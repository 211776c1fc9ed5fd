"""Sequence-detection policies (§2.1)."""

from __future__ import annotations

import enum


class Policy(enum.Enum):
    """How pattern elements are allowed to relate to the underlying trace.

    * ``SC`` -- *strict contiguity*: matching events are consecutive in the
      trace, nothing in between.
    * ``STNM`` -- *skip-till-next-match*: irrelevant events are skipped
      until the next matching event; matched pairs never overlap in time.
    * ``STAM`` -- *skip-till-any-match*: the relaxed, overlapping flavor the
      paper lists as future work (§7).  Supported here by the SASE baseline
      and by index-assisted verification, not by the pair index itself.

    The policies the pair index can be built under are the keys of
    :data:`repro.core.pairs.PAIR_FOLDS`.
    """

    SC = "strict-contiguity"
    STNM = "skip-till-next-match"
    STAM = "skip-till-any-match"
