"""Docs lint: dead links, drifted CLI commands, undocumented format tags,
deleted constructor keywords, deleted methods, dead module and repo paths.

Seven classes of documentation rot this catches mechanically:

* **dead relative links** -- every ``[text](target)`` markdown link whose
  target is a repo path must resolve from the linking file's directory;
* **stale CLI examples** -- every ``repro <subcommand>`` invocation inside
  a fenced code block must name a subcommand the real
  :func:`repro.cli.build_parser` knows, and every ``--flag`` on it (its
  backslash-continued lines included) an option of that subcommand's
  parser, so renaming or removing a subcommand or a flag without sweeping
  the docs fails CI;
* **undocumented format tags** -- every chunk-tag constant of
  :mod:`repro.core.postings` and :mod:`repro.upgrade` and value-tag constant of
  :mod:`repro.kvstore.encoding` must appear (as ``0xNN``) in the tag tables
  of DESIGN.md's on-disk-layout section, so a new on-disk byte cannot ship
  without its layout being written down;
* **deleted constructor keywords** -- every keyword shown in a
  ``SequenceIndex(``, ``LSMStore(``, ``ShardedSequenceIndex.open(`` or
  ``ParallelExecutor(`` call
  inside a code block of docs/OPERATIONS.md must exist in the live
  signature, so a removed knob cannot linger in the operator guide;
* **deleted methods** -- every backticked ``Class.attribute`` in DESIGN.md
  or ``docs/*.md`` whose class lives in one of :data:`API_MODULES` (the
  query, postings, pairs, engine, builder, tables, ingester, executor and
  store modules),
  every backticked ``core.query.function`` (module path spelled out), and
  every bare backticked ``_private_name`` must name a live attribute, so
  the design text cannot describe a method that a refactor removed;
* **dead module paths** -- every backticked dotted path starting
  ``repro.`` must resolve, by import plus ``getattr``, to a live module or
  attribute, so a deleted module cannot survive in prose;
* **dead repo paths** -- every backticked path starting with one of
  :data:`REPO_DIRS` (``benchmarks/``, ``tests/``, ...) must exist, so a
  deleted file cannot survive in prose; globs (``bench_*.py``) and
  ``<placeholder>`` paths are patterns, not paths, and are not checked.

Runs standalone (``python -m repro.bench.docscheck``, exit 1 on findings)
and inside tier-1 via ``tests/test_docs.py``.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterable

#: the documentation surface checked, relative to the repo root
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/INGEST.md",
    "docs/METRICS.md",
    "docs/OPERATIONS.md",
)

_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~)")
#: a CLI invocation inside a fenced block: ``repro <sub>`` either via
#: ``python -m repro <sub>`` or as a bare ``repro <sub>`` command (the
#: installed console script), with an optional ``$ `` prompt and env-var
#: assignments in front.  ``python -m repro.bench.runner``-style module
#: invocations carry a dot and are not subcommand calls.
_CLI_CALL = re.compile(
    r"""^\s*(?:\$\s+)?(?:[A-Z_][A-Z0-9_]*=\S+\s+)*
        (?:python(?:3)?\s+-m\s+repro|repro)\s+(?P<sub>[a-z][a-z0-9_-]*)\b""",
    re.VERBOSE,
)


def repo_root() -> str:
    """The repository root (three levels up from this file)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", ".."))


def known_subcommands() -> dict[str, set[str]]:
    """Each subcommand's option strings, straight from the live parser."""
    import argparse

    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                name: set(parser._option_string_actions)
                for name, parser in action.choices.items()
            }
    raise RuntimeError("repro parser has no subcommands")  # pragma: no cover


def _fenced_lines(text: str) -> Iterable[tuple[int, str]]:
    """Yield ``(line_number, line)`` for lines inside fenced code blocks."""
    inside = False
    for number, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line.strip()):
            inside = not inside
            continue
        if inside:
            yield number, line


def check_links(root: str, doc: str, text: str) -> list[str]:
    """Dead relative markdown links in one document."""
    findings = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(
            os.path.join(root, os.path.dirname(doc), path)
        )
        if not os.path.exists(resolved):
            findings.append(f"{doc}: dead link -> {target}")
    return findings


_CLI_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def check_cli_commands(
    doc: str, text: str, subcommands: dict[str, set[str]]
) -> list[str]:
    """Fenced ``repro <sub>`` invocations that name an unknown subcommand,
    or pass it a ``--flag`` its parser does not define."""
    findings = []
    fenced = list(_fenced_lines(text))
    for index, (number, line) in enumerate(fenced):
        match = _CLI_CALL.match(line)
        if not match:
            continue
        sub = match.group("sub")
        if sub not in subcommands:
            findings.append(
                f"{doc}:{number}: unknown repro subcommand "
                f"{sub!r} in: {line.strip()}"
            )
            continue
        while True:  # the invocation and its backslash-continued lines
            for flag in _CLI_FLAG.findall(line):
                if flag not in subcommands[sub]:
                    findings.append(
                        f"{doc}:{number}: repro {sub} takes no flag {flag!r}"
                    )
            index += 1
            if not line.rstrip().endswith("\\") or index == len(fenced):
                break
            number, line = fenced[index]
    return findings


#: where the on-disk tag tables live: (document, heading prefix of the section)
TAG_TABLES = ("DESIGN.md", "## 11.")


def format_tags() -> dict[str, int]:
    """Every on-disk tag constant: ``{"module.NAME": byte}``."""
    from repro import upgrade
    from repro.core import postings
    from repro.kvstore import encoding

    tags = {}
    for module, prefix in ((postings, "TAG_"), (upgrade, "TAG_"), (encoding, "_V_")):
        for name, value in vars(module).items():
            if name.startswith(prefix) and isinstance(value, int):
                tags[f"{module.__name__}.{name}"] = value
    return tags


def check_format_tags(doc: str, text: str, tags: dict[str, int]) -> list[str]:
    """Tag constants missing from the tag-table section of ``doc``."""
    section = re.search(
        rf"^{re.escape(TAG_TABLES[1])}.*?(?=^## |\Z)", text, re.MULTILINE | re.DOTALL
    )
    if section is None:
        return [f"{doc}: no section {TAG_TABLES[1]!r} to hold the tag tables"]
    documented = {int(tag, 16) for tag in re.findall(r"`0x([0-9A-Fa-f]{2})`", section[0])}
    return [
        f"{doc}: tag 0x{value:02X} ({name}) is missing from the section "
        f"{TAG_TABLES[1]!r} tag tables"
        for name, value in sorted(tags.items())
        if value not in documented
    ]


#: the operator guide, whose constructor calls must match the live signatures
KNOBS_DOC = "docs/OPERATIONS.md"
_CONSTRUCTOR_CALL = re.compile(
    r"(?<![\w.])"
    r"(ShardedSequenceIndex\.open|SequenceIndex|LSMStore|ParallelExecutor)\("
)
_KEYWORD = re.compile(r"\s*([A-Za-z_]\w*)\s*=(?!=)")


def constructor_keywords() -> dict[str, set[str]]:
    """Parameter names of the documented constructors, from the live code."""
    import inspect

    from repro.core.engine import SequenceIndex
    from repro.executor import ParallelExecutor
    from repro.kvstore import LSMStore
    from repro.shard import ShardedSequenceIndex

    engine = set(inspect.signature(SequenceIndex).parameters)
    return {
        "SequenceIndex": engine,
        "LSMStore": set(inspect.signature(LSMStore).parameters),
        # ``**engine_kwargs`` reach every shard's ``SequenceIndex``
        "ShardedSequenceIndex.open": engine
        | set(inspect.signature(ShardedSequenceIndex.open).parameters),
        "ParallelExecutor": set(inspect.signature(ParallelExecutor).parameters),
    }


def check_constructor_keywords(
    doc: str, text: str, keywords: dict[str, set[str]]
) -> list[str]:
    """Keywords of fenced constructor calls that the signature lacks."""
    fenced = list(_fenced_lines(text))
    code = "\n".join(line for _, line in fenced)
    findings = []
    for call in _CONSTRUCTOR_CALL.finditer(code):
        name = call.group(1)
        line = fenced[code.count("\n", 0, call.start())][0]
        # Split the call's own arguments: commas at nesting depth 1.
        depth, start, arguments = 1, call.end(), []
        for pos in range(call.end(), len(code)):
            char = code[pos]
            depth += (char in "([{") - (char in ")]}")
            if depth == 0 or (depth == 1 and char == ","):
                arguments.append(code[start:pos])
                start = pos + 1
            if depth == 0:
                break
        for argument in arguments:
            keyword = _KEYWORD.match(argument)
            if keyword and keyword.group(1) not in keywords[name]:
                findings.append(
                    f"{doc}:{line}: {name}() takes no keyword "
                    f"{keyword.group(1)!r}"
                )
    return findings


#: modules whose classes and functions the design docs name member by member
API_MODULES = (
    "repro.core.query",
    "repro.core.postings",
    "repro.core.pairs",
    "repro.core.engine",
    "repro.core.builder",
    "repro.core.tables",
    "repro.ingest.ingester",
    "repro.executor",
    "repro.kvstore.lsm",
    "repro.kvstore.tableset",
    "repro.kvstore.compaction",
    "repro.kvstore.sstable",
    "repro.kvstore.merge",
    "repro.upgrade",
)
_API_DOCS = ("DESIGN.md", "docs/")
_REFERENCE = re.compile(r"`([A-Za-z_][\w.]*)\.([A-Za-z_]\w*)\b[^`]*`")
#: a bare private name, optionally called: `_run_compaction`, `_join(...)`
_PRIVATE_NAME = re.compile(r"`(_[a-z]\w*)(?:\([^`]*\))?`")


def api_owners() -> dict[str, object]:
    """What a checked reference may start with: the classes defined in
    :data:`API_MODULES` by bare name, and the modules themselves by dotted
    path (``core.query``, ``repro.core.query``).  A bare last component
    (``query``, ``lsm``, ``ingester``) is not an owner: the docs use those
    as span-name prefixes (``lsm.multi_get``) and instance names."""
    import importlib
    import inspect

    owners: dict[str, object] = {}
    for name in API_MODULES:
        module = importlib.import_module(name)
        owners[name] = owners[name.removeprefix("repro.")] = module
        for attribute, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                owners[attribute] = value
    return owners


def _has_member(owner: object, name: str) -> bool:
    """Whether ``owner`` has ``name``: as an attribute, a declared field, or
    an instance attribute some method of the class assigns."""
    import inspect

    if hasattr(owner, name):
        return True
    if not inspect.isclass(owner):
        return False
    for klass in owner.__mro__[:-1]:
        if klass.__module__ == "builtins":  # e.g. Exception: no source to read
            continue
        if name in getattr(klass, "__annotations__", {}):
            return True
        if re.search(rf"\bself\.{name}\b[^=\n]*=[^=]", inspect.getsource(klass)):
            return True
    return False


def check_api_references(doc: str, text: str, owners: dict[str, object]) -> list[str]:
    """Backticked ``Owner.member`` references whose member no longer exists,
    and bare backticked ``_private_name``s that no class or module of
    :data:`API_MODULES` defines."""
    findings = []
    documented = set(owners.values())
    for number, line in enumerate(text.splitlines(), start=1):
        for owner, member in _REFERENCE.findall(line):
            if owner in owners and not _has_member(owners[owner], member):
                findings.append(
                    f"{doc}:{number}: `{owner}.{member}` names no live attribute"
                )
        for name in _PRIVATE_NAME.findall(line):
            if not any(_has_member(owner, name) for owner in documented):
                findings.append(
                    f"{doc}:{number}: `{name}` names no live attribute of "
                    f"the documented modules"
                )
    return findings


#: a backticked dotted path into the package: `repro.ingest`,
#: `repro.obs.REGISTRY.render()`, `repro.ingest.index_snapshot(engine)`
_MODULE_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")


def _resolves(path: str) -> bool:
    """Whether ``path`` imports: its longest importable prefix as a module,
    the rest attribute by attribute."""
    import pkgutil

    try:
        pkgutil.resolve_name(path)
    except (ImportError, AttributeError):
        return False
    return True


def check_module_paths(doc: str, text: str) -> list[str]:
    """Backticked ``repro.x.y`` paths that name no live module or attribute."""
    return [
        f"{doc}:{number}: `{path}` names no live module or attribute"
        for number, line in enumerate(text.splitlines(), start=1)
        for path in _MODULE_PATH.findall(line)
        if not _resolves(path)
    ]


#: top-level directories whose backticked paths the docs must keep alive
REPO_DIRS = ("benchmarks", "tests", "src", "examples", "docs", "results")
#: a backticked repo path, up to the first space, ``::`` test id or ``:line``
_REPO_PATH = re.compile(
    rf"`((?:{'|'.join(REPO_DIRS)})/[^`\s:]*)(?:[\s:][^`]*)?`"
)


def check_repo_paths(root: str, doc: str, text: str) -> list[str]:
    """Backticked repo paths that name no existing file or directory."""
    return [
        f"{doc}:{number}: `{path}` names no file or directory of the repo"
        for number, line in enumerate(text.splitlines(), start=1)
        for path in _REPO_PATH.findall(line)
        if not any(char in path for char in "*?[{<")
        and not os.path.exists(os.path.join(root, path))
    ]


def run_docscheck(root: str | None = None) -> list[str]:
    """All findings across the documented surface (empty means healthy)."""
    root = root or repo_root()
    subcommands = known_subcommands()
    owners = api_owners()
    findings: list[str] = []
    for doc in DOC_FILES:
        path = os.path.join(root, doc)
        if not os.path.isfile(path):
            findings.append(f"{doc}: file is missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        findings.extend(check_links(root, doc, text))
        findings.extend(check_cli_commands(doc, text, subcommands))
        findings.extend(check_module_paths(doc, text))
        findings.extend(check_repo_paths(root, doc, text))
        if doc == TAG_TABLES[0]:
            findings.extend(check_format_tags(doc, text, format_tags()))
        if doc == KNOBS_DOC:
            findings.extend(
                check_constructor_keywords(doc, text, constructor_keywords())
            )
        if doc.startswith(_API_DOCS):
            findings.extend(check_api_references(doc, text, owners))
    return findings


def main() -> int:
    findings = run_docscheck()
    for finding in findings:
        print(finding)
    if findings:
        print(f"docscheck: {len(findings)} finding(s)")
        return 1
    print(f"docscheck: {len(DOC_FILES)} documents clean")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
