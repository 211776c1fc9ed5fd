"""The expressive pattern language over the pair index.

The paper's index answers plain in-order sequence queries (Algorithm 2);
the "Enhanced Expressiveness" follow-up by the same authors extends the
query class to the SASE language over the distributed pair index.  This
module defines that query class for the repo: a small pattern AST, a
textual grammar, and the *indexed-side* evaluator used after the planner
has pruned candidate traces through the pair index.

Grammar (activity names may not contain ``, ( ) | ! +`` or whitespace)::

    pattern  := [ "SEQ" "(" ] element ("," element)* [ ")" ] [ "WITHIN" number ]
    element  := ["!"] group ["+"]
    group    := name | "(" name ("|" name)* ")"

Operators:

* **sequence**    -- ``A, B, C``: the elements occur in order,
  skip-till-next-match (greedy, non-overlapping runs).
* **alternation** -- ``(B|C)``: the element matches the next occurrence of
  *either* type.
* **Kleene plus** -- ``B+``: one or more occurrences, maximal munch -- the
  element absorbs every occurrence of its types until the first occurrence
  of the next positive element's types (to the end of the trace when it is
  the last positive element).
* **negation**    -- ``!X``: no occurrence of ``X`` strictly between the
  neighbouring positive elements' matched events.  A trailing ``!X``
  ("A not followed by X") forbids ``X`` after the last matched event --
  to the end of the trace, or to the end of the WITHIN window when one is
  given.  A pattern may not start with a negated element.
* **within**      -- ``WITHIN t``: the match's end-to-end span (first to
  last matched event, Kleene absorptions included) is at most ``t``.
  The bound is inclusive: a span of exactly ``t`` matches.

Matching semantics (shared with the SASE oracle in
:mod:`repro.baselines.sase.nfa`, which implements them independently as a
streaming automaton -- the differential suite in
``tests/core/test_differential.py`` leans on that independence):

1. Runs are greedy and non-overlapping (skip-till-next-match).  An
   attempt from position ``s`` matches each positive element at its
   earliest possible position; if some positive element has no occurrence
   in the remaining suffix the whole search ends.
2. A completed attempt is checked against the window and every negation.
   If it passes, its events are consumed: the next attempt starts after
   the last matched event.  If it fails, the next attempt starts right
   after the *first* matched event (the same retry rule the SASE NFA uses
   when a WITHIN window is exceeded).
3. Negation never consumes events; it only invalidates attempts.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.core.errors import PatternSyntaxError

__all__ = [
    "Pattern",
    "PatternElement",
    "parse_pattern",
    "find_matches",
]


@dataclass(frozen=True)
class PatternElement:
    """One element of a pattern: an alternation set plus operator flags.

    ``types`` holds one activity name for a plain element, several for an
    alternation.  ``kleene`` marks Kleene plus (one or more, maximal
    munch); ``negated`` marks the element as forbidden between its
    positive neighbours.  The two flags are mutually exclusive.
    """

    types: tuple[str, ...]
    kleene: bool = False
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.types:
            raise PatternSyntaxError("a pattern element needs at least one type")
        deduped = tuple(dict.fromkeys(self.types))
        if deduped != self.types:
            object.__setattr__(self, "types", deduped)
        for name in self.types:
            if not name:
                raise PatternSyntaxError("empty activity name in pattern element")
        if self.negated and self.kleene:
            raise PatternSyntaxError(
                "an element cannot be both negated and Kleene-plus"
            )

    def __str__(self) -> str:
        body = self.types[0] if len(self.types) == 1 else f"({'|'.join(self.types)})"
        return ("!" if self.negated else "") + body + ("+" if self.kleene else "")


@dataclass(frozen=True)
class Pattern:
    """A composite sequence pattern with an optional WITHIN window.

    Hashable (frozen, tuple fields), so patterns key the engine's
    query-result cache exactly like plain activity tuples do.  The derived
    views below are computed once per pattern (``cached_property`` writes to
    the instance ``__dict__``, which neither hash nor equality look at).
    """

    elements: tuple[PatternElement, ...]
    within: float | None = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise PatternSyntaxError("a pattern needs at least one element")
        if self.elements[0].negated:
            raise PatternSyntaxError(
                "a pattern cannot start with a negated element "
                "(negation scopes anchor on a preceding positive match)"
            )
        if self.within is not None and self.within <= 0:
            raise PatternSyntaxError("the WITHIN window must be positive")

    @classmethod
    def of(cls, *elements: str, within: float | None = None) -> "Pattern":
        """Build from element strings: ``Pattern.of("A", "!B", "(C|D)+")``."""
        return cls(tuple(_parse_element(raw) for raw in elements), within)

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        """Indices of the non-negated elements, in pattern order."""
        return tuple(i for i, e in enumerate(self.elements) if not e.negated)

    @cached_property
    def alphabet(self) -> frozenset[str]:
        """Every activity the pattern names, negated elements included."""
        return frozenset(name for e in self.elements for name in e.types)

    @cached_property
    def has_operators(self) -> bool:
        """True when any element uses alternation, Kleene or negation."""
        return any(
            len(e.types) > 1 or e.kleene or e.negated for e in self.elements
        )

    @property
    def is_plain(self) -> bool:
        """True for a bare sequence: no operators and no window."""
        return not self.has_operators and self.within is None

    @cached_property
    def _negation_scopes(self) -> tuple[tuple[int, int, int | None], ...]:
        positives = self.positive_indices
        scopes: list[tuple[int, int, int | None]] = []
        for i, elem in enumerate(self.elements):
            if not elem.negated:
                continue
            prev_ord = max(j for j, p in enumerate(positives) if p < i)
            following = [j for j, p in enumerate(positives) if p > i]
            scopes.append((i, prev_ord, following[0] if following else None))
        return tuple(scopes)

    def negation_scopes(self) -> tuple[tuple[int, int, int | None], ...]:
        """``(element_index, prev_positive_ordinal, next_positive_ordinal)``
        per negated element; ``next`` is ``None`` for trailing negations."""
        return self._negation_scopes

    def activities(self) -> tuple[str, ...]:
        """The flat activity list of a plain pattern."""
        if not self.is_plain:
            raise PatternSyntaxError(
                "activities() is only defined for plain sequence patterns"
            )
        return tuple(e.types[0] for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        body = ", ".join(str(e) for e in self.elements)
        suffix = f" WITHIN {self.within:g}" if self.within is not None else ""
        return f"SEQ({body}){suffix}"


# -- parser --------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([^\s,()|!+]+)|([,()|!+]))")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:  # only trailing whitespace can fail to match
            if text[pos:].strip():
                raise PatternSyntaxError(
                    f"cannot tokenize pattern at {text[pos:]!r}"
                )
            break
        tokens.append(match.group(1) or match.group(2))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], text: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise PatternSyntaxError(f"unexpected end of pattern in {self.text!r}")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise PatternSyntaxError(
                f"expected {token!r} but found {got!r} in {self.text!r}"
            )

    def parse(self) -> Pattern:
        wrapped = False
        token = self.peek()
        if token is not None and token.lower() == "seq":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt == "(":
                self.pos += 2
                wrapped = True
        elements = [self.element()]
        while self.peek() == ",":
            self.take()
            elements.append(self.element())
        if wrapped:
            self.expect(")")
        within = None
        token = self.peek()
        if token is not None and token.lower() == "within":
            self.take()
            raw = self.take()
            try:
                within = float(raw)
            except ValueError:
                raise PatternSyntaxError(
                    f"WITHIN expects a number, found {raw!r}"
                ) from None
        if self.peek() is not None:
            raise PatternSyntaxError(
                f"trailing tokens after pattern: {self.tokens[self.pos:]} "
                f"in {self.text!r}"
            )
        return Pattern(tuple(elements), within)

    def element(self) -> PatternElement:
        negated = False
        if self.peek() == "!":
            self.take()
            negated = True
        token = self.take()
        if token == "(":
            types = [self.name()]
            while self.peek() == "|":
                self.take()
                types.append(self.name())
            self.expect(")")
        elif token in ",()|!+":
            raise PatternSyntaxError(
                f"expected an activity name, found {token!r} in {self.text!r}"
            )
        else:
            types = [token]
        kleene = False
        if self.peek() == "+":
            self.take()
            kleene = True
        return PatternElement(tuple(types), kleene=kleene, negated=negated)

    def name(self) -> str:
        token = self.take()
        if token in ",()|!+":
            raise PatternSyntaxError(
                f"expected an activity name, found {token!r} in {self.text!r}"
            )
        return token


def parse_pattern(text: str) -> Pattern:
    """Parse the textual grammar into a :class:`Pattern`.

    Accepts the ``SEQ(...)`` wrapper and the bare comma form::

        parse_pattern("SEQ(A, !B, (C|D)+) WITHIN 10")
        parse_pattern("A, !B, (C|D)+ within 10")
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PatternSyntaxError("empty pattern expression")
    return _Parser(tokens, text).parse()


def _parse_element(raw: str) -> PatternElement:
    parser = _Parser(_tokenize(raw), raw)
    element = parser.element()
    if parser.peek() is not None:
        raise PatternSyntaxError(f"trailing tokens in element {raw!r}")
    return element


# -- indexed-side evaluator ----------------------------------------------------


def occurrence_positions(
    activities: Sequence[str], alphabet: frozenset[str] | set[str]
) -> dict[str, list[int]]:
    """Ascending positions of each activity of ``alphabet`` occurring in
    ``activities``.  A pattern names a handful of the activities a trace
    holds, so no list is built for the rest."""
    positions: dict[str, list[int]] = {}
    for idx, activity in enumerate(activities):
        if activity in alphabet:
            positions.setdefault(activity, []).append(idx)
    return positions


def find_matches(
    activities: Sequence[str],
    timestamps: Sequence[float],
    pattern: Pattern,
    max_matches: int | None = None,
) -> list[tuple[float, ...]]:
    """All matches of ``pattern`` over one trace, as timestamp tuples.

    This is the verification step of the indexed path: it runs only on
    traces the planner could not prune via the pair index.  The
    implementation works off per-activity occurrence lists with binary
    search -- deliberately a different algorithm from the SASE oracle's
    streaming automaton, so the differential suite compares two
    independent realisations of the same semantics.

    Kleene elements contribute every absorbed event's timestamp, so match
    tuples may be longer than the pattern's positive element count.
    """
    n = len(activities)
    positions = occurrence_positions(activities, pattern.alphabet)

    def next_of(types: tuple[str, ...], cursor: int) -> int | None:
        """Earliest occurrence of any of ``types`` at or after ``cursor``."""
        best: int | None = None
        for name in types:
            occ = positions.get(name)
            if not occ:
                continue
            k = bisect_left(occ, cursor)
            if k < len(occ) and (best is None or occ[k] < best):
                best = occ[k]
        return best

    def occurs_between(types: tuple[str, ...], low: int, high: int) -> bool:
        """Any occurrence of ``types`` strictly between ``low`` and ``high``."""
        for name in types:
            occ = positions.get(name)
            if not occ:
                continue
            k = bisect_right(occ, low)
            if k < len(occ) and occ[k] < high:
                return True
        return False

    elements = pattern.elements
    pos_idx = pattern.positive_indices
    scopes = pattern.negation_scopes()
    matches: list[tuple[float, ...]] = []
    search_from = 0
    while search_from < n:
        cursor = search_from
        flat: list[int] = []  # every matched/absorbed position, ascending
        bounds: list[tuple[int, int]] = []  # (first, last) per positive element
        for ordinal, elem_index in enumerate(pos_idx):
            elem = elements[elem_index]
            next_types = (
                elements[pos_idx[ordinal + 1]].types
                if ordinal + 1 < len(pos_idx)
                else None
            )
            hit = next_of(elem.types, cursor)
            if hit is None:
                # The element has no occurrence in the remaining suffix;
                # later attempts only search later, so the search is over.
                return matches
            first = last = hit
            flat.append(hit)
            cursor = hit + 1
            if elem.kleene:
                stop = next_of(next_types, cursor) if next_types else None
                limit = n if stop is None else stop
                absorbed: list[int] = []
                for name in elem.types:
                    occ = positions.get(name, [])
                    k = bisect_left(occ, cursor)
                    while k < len(occ) and occ[k] < limit:
                        absorbed.append(occ[k])
                        k += 1
                absorbed.sort()
                flat.extend(absorbed)
                if absorbed:
                    last = absorbed[-1]
                cursor = limit
            bounds.append((first, last))
        ok = True
        if pattern.within is not None:
            ok = timestamps[flat[-1]] - timestamps[flat[0]] <= pattern.within
        if ok:
            for elem_index, prev_ord, next_ord in scopes:
                low = bounds[prev_ord][1]
                if next_ord is not None:
                    if occurs_between(
                        elements[elem_index].types, low, bounds[next_ord][0]
                    ):
                        ok = False
                        break
                else:
                    hit = next_of(elements[elem_index].types, low + 1)
                    if hit is not None and (
                        pattern.within is None
                        or timestamps[hit]
                        <= timestamps[flat[0]] + pattern.within
                    ):
                        ok = False
                        break
        if ok:
            matches.append(tuple(timestamps[p] for p in flat))
            if max_matches is not None and len(matches) >= max_matches:
                return matches
            search_from = flat[-1] + 1
        else:
            search_from = flat[0] + 1
    return matches
