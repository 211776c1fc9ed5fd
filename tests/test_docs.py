"""Documentation health: intra-repo links resolve, metrics stay documented.

Runs as part of the normal pytest suite, so CI fails when a doc link rots
or a counter is added without a row in ``docs/METRICS.md``.
"""

from __future__ import annotations

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/INGEST.md",
    "docs/METRICS.md",
    "docs/OPERATIONS.md",
]

# [text](target) markdown links; images excluded by the (?<!!) guard.
_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")


def _links(doc: str) -> list[str]:
    with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as fh:
        return _LINK.findall(fh.read())


@pytest.mark.parametrize("doc", DOC_FILES)
def test_doc_exists(doc):
    assert os.path.isfile(os.path.join(REPO_ROOT, doc)), f"{doc} is missing"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_intra_repo_links_resolve(doc):
    """Every relative markdown link must point at an existing file."""
    broken = []
    for target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(
            os.path.join(REPO_ROOT, os.path.dirname(doc), path)
        )
        if not os.path.exists(resolved):
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


def _metrics_doc() -> str:
    with open(os.path.join(REPO_ROOT, "docs/METRICS.md"), encoding="utf-8") as fh:
        return fh.read()


def test_every_store_counter_documented():
    """Adding a StoreMetrics counter requires a docs/METRICS.md row."""
    from repro.kvstore.lsm import StoreMetrics

    doc = _metrics_doc()
    missing = [
        name for name in StoreMetrics._COUNTERS if f"`{name}`" not in doc
    ]
    assert not missing, (
        f"StoreMetrics counters missing from docs/METRICS.md: {missing}"
    )


def test_every_catalogued_metric_documented():
    """Every exposition name in METRIC_CATALOG needs a docs/METRICS.md row."""
    from repro.obs.registry import METRIC_CATALOG

    doc = _metrics_doc()
    missing = [name for name in METRIC_CATALOG if f"`{name}`" not in doc]
    assert not missing, (
        f"catalogued metrics missing from docs/METRICS.md: {missing}"
    )


def test_every_documented_metric_is_catalogued():
    """Every backticked ``repro_*`` name in docs/METRICS.md must be a key of
    METRIC_CATALOG, so a deleted metric cannot linger in the doc (wildcard
    family names such as ``repro_row_cache_*`` are not names)."""
    from repro.obs.registry import METRIC_CATALOG

    documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", _metrics_doc()))
    stale = sorted(documented - set(METRIC_CATALOG))
    assert not stale, f"docs/METRICS.md names uncatalogued metrics: {stale}"


def test_every_catalogued_metric_has_type_and_help():
    from repro.obs.registry import METRIC_CATALOG

    for name, (metric_type, help_text) in METRIC_CATALOG.items():
        assert metric_type in ("counter", "gauge"), name
        assert help_text.strip(), f"{name} has empty help text"
        if name.endswith("_total"):
            assert metric_type == "counter", f"{name} must be a counter"
        else:
            assert metric_type == "gauge", f"{name} must be a gauge"


# -- pattern language ---------------------------------------------------------

#: Operator vocabulary of the composite pattern language.  DESIGN.md must
#: document each one, and the golden corpus must exercise each one -- a new
#: operator lands with docs and a golden case or this test fails.
PATTERN_OPERATORS = ("sequence", "alternation", "kleene", "negation", "within")


def test_design_documents_every_pattern_operator():
    with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        doc = fh.read().lower()
    missing = [op for op in PATTERN_OPERATORS if op not in doc]
    assert not missing, f"DESIGN.md does not mention operators: {missing}"


def test_golden_corpus_covers_every_documented_operator():
    """Every operator named in DESIGN.md's grammar has a golden-corpus case."""
    import json

    with open(
        os.path.join(REPO_ROOT, "tests/data/pattern_corpus.json"),
        encoding="utf-8",
    ) as fh:
        corpus = json.load(fh)
    tagged = {op for case in corpus["cases"] for op in case["operators"]}
    unknown = tagged - set(PATTERN_OPERATORS)
    assert not unknown, f"corpus uses undeclared operator tags: {unknown}"
    missing = set(PATTERN_OPERATORS) - tagged
    assert not missing, f"no golden-corpus case exercises: {missing}"


def test_operations_guide_documents_the_pattern_grammar():
    with open(
        os.path.join(REPO_ROOT, "docs/OPERATIONS.md"), encoding="utf-8"
    ) as fh:
        doc = fh.read()
    assert "WITHIN" in doc, "docs/OPERATIONS.md lacks the pattern grammar"
    assert "diffcheck" in doc, "docs/OPERATIONS.md lacks the diffcheck runbook"


# -- CLI surface --------------------------------------------------------------


def _all_docs() -> str:
    parts = []
    for doc in DOC_FILES:
        with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as fh:
            parts.append(fh.read())
    return "\n".join(parts)


def test_every_cli_subcommand_documented():
    """Adding a `repro` subcommand requires a `repro <name>` doc mention."""
    from repro.bench.docscheck import known_subcommands

    doc = _all_docs()
    missing = [
        sub for sub in sorted(known_subcommands()) if f"repro {sub}" not in doc
    ]
    assert not missing, f"CLI subcommands missing from the docs: {missing}"


def test_docscheck_is_clean():
    """The docs lint (dead links, stale CLI examples, undocumented on-disk
    tags) has no findings."""
    from repro.bench.docscheck import run_docscheck

    assert run_docscheck(REPO_ROOT) == []


def test_docscheck_fails_on_an_undocumented_format_tag():
    from repro.bench.docscheck import check_format_tags, format_tags

    tags = format_tags()
    assert tags["repro.upgrade.TAG_POSTINGS"] == 0x04
    assert tags["repro.kvstore.encoding._V_MAP_STR_I64"] == 0xE0
    with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        design = fh.read()
    assert check_format_tags("DESIGN.md", design, tags) == []
    # a tag nobody wrote down, and a tag documented only outside section 11
    findings = check_format_tags("DESIGN.md", design, {**tags, "new.TAG_X": 0x3F})
    assert findings == [
        "DESIGN.md: tag 0x3F (new.TAG_X) is missing from the section '## 11.' "
        "tag tables"
    ]
    elsewhere = "## 1. Intro\n`0x04`\n## 11. Layout\n`0x05`\n## 12. Next\n`0x04`\n"
    assert len(check_format_tags("D.md", elsewhere, {"a.TAG_A": 4, "a.TAG_B": 5})) == 1
    assert "no section" in check_format_tags("D.md", "## 1. Intro\n", tags)[0]


def test_docscheck_fails_on_a_deleted_constructor_keyword():
    from repro.bench.docscheck import (
        check_constructor_keywords,
        constructor_keywords,
    )

    keywords = constructor_keywords()
    assert "cache_bytes" in keywords["SequenceIndex"]
    assert "removed_knob" not in keywords["SequenceIndex"]
    # ShardedSequenceIndex.open forwards **engine_kwargs to every shard
    assert {"num_shards", "policy"} <= keywords["ShardedSequenceIndex.open"]
    guide = (
        "prose SequenceIndex(removed_knob=True) outside a block is not checked\n"
        "```python\n"
        "index = SequenceIndex(store,\n"
        "                      cache_bytes=1 << 20,\n"
        "                      removed_knob=True)\n"
        "LSMStore(path, leveled=LeveledConfig(fanout=10), sync_wal=False)\n"
        "LSMStore(path, compression='zlib')\n"
        "ShardedSequenceIndex.open(root, factory, num_shards=4, other_gone=True)\n"
        "ShardedSequenceIndex(shards, whatever=1)  # not a documented constructor\n"
        "```\n"
    )
    assert check_constructor_keywords("G.md", guide, keywords) == [
        "G.md:3: SequenceIndex() takes no keyword 'removed_knob'",
        "G.md:6: LSMStore() takes no keyword 'leveled'",
        "G.md:7: LSMStore() takes no keyword 'compression'",
        "G.md:8: ShardedSequenceIndex.open() takes no keyword 'other_gone'",
    ]


def test_docscheck_fails_on_a_deleted_method():
    from repro.bench.docscheck import api_owners, check_api_references

    owners = api_owners()
    assert {"QueryProcessor", "Postings", "SequenceIndex", "LSMStore"} <= set(owners)
    assert "core.query" in owners and "repro.kvstore.lsm" in owners
    assert "query" not in owners and "lsm" not in owners  # span-name prefixes
    design = (
        "`Postings.columns(restrict)` feeds `QueryProcessor._join`; the old\n"
        "`Postings.grouped(restrict)` and `QueryProcessor._chain_left_to_right`\n"
        "are gone, as is `core.query.detect(..., policy=STAM)`.\n"
        "`core.query.as_query` is a function; `lsm.multi_get` and `query.detect`\n"
        "are span names, `Memtable.anything` belongs to no checked module.\n"
        "Fields count: `SequenceIndex.store`, `Postings.entries`, `StoreMetrics.bump`;\n"
        "`LSMStore.no_such_counter` does not.\n"
    )
    assert check_api_references("D.md", design, owners) == [
        "D.md:2: `Postings.grouped` names no live attribute",
        "D.md:2: `QueryProcessor._chain_left_to_right` names no live attribute",
        "D.md:3: `core.query.detect` names no live attribute",
        "D.md:7: `LSMStore.no_such_counter` names no live attribute",
    ]


def test_docscheck_fails_on_a_deleted_ingest_or_table_method():
    from repro.bench.docscheck import api_owners, check_api_references

    owners = api_owners()
    assert {"EngineSink", "TailIngester", "IndexBuilder", "UpdateStats", "IndexTables"} <= set(owners)
    assert "ingest.ingester" in owners and "ingester" not in owners  # an instance name
    guide = (
        "`EngineSink.apply` calls `IndexBuilder.update(..., dedup=True)` and reports\n"
        "`UpdateStats.events_deduped`; `IndexTables.get_sequences` is the one read.\n"
        "Gone: `ingest.ingester.drop_indexed`, `EngineSink.indexed_tail`,\n"
        "`IndexTables.get_tails_many` and `UpdateStats.last_checked_reads`.\n"
    )
    assert check_api_references("I.md", guide, owners) == [
        "I.md:3: `ingest.ingester.drop_indexed` names no live attribute",
        "I.md:3: `EngineSink.indexed_tail` names no live attribute",
        "I.md:4: `IndexTables.get_tails_many` names no live attribute",
        "I.md:4: `UpdateStats.last_checked_reads` names no live attribute",
    ]


def test_docscheck_fails_on_a_deleted_pair_function():
    from repro.bench.docscheck import api_owners, check_api_references

    owners = api_owners()
    assert "core.pairs" in owners and "repro.core.pairs" in owners
    assert "pairs" not in owners  # a bare last component names no module
    design = (
        "`core.pairs.fold_indexing_pairs` folds a trace's new pairs and\n"
        "`core.pairs.PAIR_FOLDS[policy](activities, timestamps, tail, position, rows)`\n"
        "is the builder's call; `core.pairs.create_pairs` is the row view.\n"
        "`core.pairs.pairs_after_cut`, `core.pairs.pairs_completed_after`\n"
        "and `repro.core.pairs.PairDict` are gone; `_emit` resolves, `_unpair` not.\n"
    )
    assert check_api_references("D.md", design, owners) == [
        "D.md:4: `core.pairs.pairs_after_cut` names no live attribute",
        "D.md:4: `core.pairs.pairs_completed_after` names no live attribute",
        "D.md:5: `repro.core.pairs.PairDict` names no live attribute",
        "D.md:5: `_unpair` names no live attribute of the documented modules",
    ]


def test_docscheck_fails_on_a_deleted_cli_flag():
    from repro.bench.docscheck import check_cli_commands, known_subcommands

    subcommands = known_subcommands()
    assert {"--store", "--policy"} <= subcommands["stats"]
    assert not {"--mmap", "--compaction", "--compression"} & subcommands["stats"]
    guide = (
        "prose `repro stats --mmap` outside a block is not checked\n"
        "```console\n"
        "$ python -m repro stats --store ./ix --mmap\n"
        "$ PYTHONPATH=src python -m repro index --log log.csv \\\n"
        "      --store ./ix --shards 2 \\\n"
        "      --lazy-open\n"
        "$ repro detect --store ./ix a,b --explain   # fine\n"
        "$ python -m repro.bench.runner table8 --scale 0.05   # not a subcommand\n"
        "$ repro frobnicate --store ./ix\n"
        "$ repro faults --seeds 0:200 --compression zlib\n"
        "```\n"
    )
    assert check_cli_commands("G.md", guide, subcommands) == [
        "G.md:3: repro stats takes no flag '--mmap'",
        "G.md:6: repro index takes no flag '--lazy-open'",
        "G.md:9: unknown repro subcommand 'frobnicate' in: "
        "$ repro frobnicate --store ./ix",
        "G.md:10: repro faults takes no flag '--compression'",
    ]


def test_docscheck_fails_on_a_deleted_private_name():
    from repro.bench.docscheck import api_owners, check_api_references

    owners = api_owners()
    assert {"TableSet", "CompactionPick", "SSTableReader"} <= set(owners)
    design = (
        "The one executor is `_run_compaction`; `_compact_slice` and\n"
        "`_validate_levels` are gone.  `_demote_unsound_levels` (TableSet),\n"
        "`_seal_table(writer, level)` (LSMStore), `_live_history` (a function of\n"
        "kvstore.merge) and `_join(...)` (QueryProcessor) resolve; constants like\n"
        "`_V_LIST` and suffixes like `..._total` are not private names.\n"
    )
    assert check_api_references("D.md", design, owners) == [
        "D.md:1: `_compact_slice` names no live attribute of the documented modules",
        "D.md:2: `_validate_levels` names no live attribute of the documented modules",
        "D.md:2: `_demote_unsound_levels` names no live attribute of the documented modules",
    ]


def test_docscheck_fails_on_a_dead_module_path():
    from repro.bench.docscheck import check_module_paths

    design = (
        "Feeds: `repro.ingest`; workers: `repro.executor`; this lint: `repro.bench.docscheck`.\n"
        "`repro.logs.pipeline` and `repro.ingest.drop_indexed(events)` are gone;\n"
        "`repro.ingest.index_snapshot(engine)` and `repro.obs.REGISTRY.render()` resolve.\n"
    )
    assert check_module_paths("D.md", design) == [
        "D.md:2: `repro.logs.pipeline` names no live module or attribute",
        "D.md:2: `repro.ingest.drop_indexed` names no live module or attribute",
    ]


def test_docscheck_covers_the_executor():
    from repro.bench.docscheck import (
        api_owners,
        check_api_references,
        check_constructor_keywords,
        constructor_keywords,
    )

    guide = (
        "```python\n"
        "executor = ParallelExecutor.serial()\n"
        "ParallelExecutor(max_workers=2)\n"
        "```\n"
        "`ParallelExecutor.serial` stays; `ParallelExecutor.gather` is gone.\n"
    )
    findings = check_constructor_keywords(
        "G.md", guide, constructor_keywords()
    ) + check_api_references("G.md", guide, api_owners())
    assert findings == [
        "G.md:3: ParallelExecutor() takes no keyword 'max_workers'",
        "G.md:5: `ParallelExecutor.gather` names no live attribute",
    ]


def test_docscheck_fails_on_a_dead_repo_path():
    from repro.bench.docscheck import check_repo_paths

    doc = (
        "Run `benchmarks/pipeline/run.py --workload index_bulk`; see\n"
        "`tests/core/test_engine.py::test_no_method_is_written_twice`, `results/`.\n"
        "Gone: `benchmarks/bench_table8_stnm_query.py` and `docs/NOPE.md:12`.\n"
        "Patterns: `benchmarks/bench_*.py`, `results/<experiment>.csv`,\n"
        "`bench_table{5,6}.py`; not a repo dir: `build/out.txt`.\n"
    )
    assert check_repo_paths(REPO_ROOT, "D.md", doc) == [
        "D.md:3: `benchmarks/bench_table8_stnm_query.py` names no file or "
        "directory of the repo",
        "D.md:3: `docs/NOPE.md` names no file or directory of the repo",
    ]
