"""Exception hierarchy of the core library.

Storage-corruption errors (:class:`CorruptionError`,
:class:`CorruptSSTableError`) are defined next to the store in
:mod:`repro.kvstore.api` and re-exported here so engine-level callers can
catch them without importing kvstore internals.
"""

from __future__ import annotations

from repro.core.postings import CorruptPostingsError
from repro.kvstore.api import CorruptionError, CorruptSSTableError

__all__ = [
    "ReproError",
    "TraceOrderError",
    "EmptyPatternError",
    "PatternSyntaxError",
    "PolicyMismatchError",
    "IndexStateError",
    "DeadlineExceeded",
    "CorruptionError",
    "CorruptSSTableError",
    "CorruptPostingsError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class TraceOrderError(ReproError):
    """Events in a trace violate the strict total order of Definition 2.1."""


class EmptyPatternError(ReproError):
    """A query pattern was empty or too short for the requested operation."""


class PatternSyntaxError(ReproError):
    """A pattern expression could not be parsed or is structurally invalid."""


class PolicyMismatchError(ReproError):
    """A query asked for a policy the index was not built with."""


class IndexStateError(ReproError):
    """The index store is missing tables or metadata it should contain."""


class DeadlineExceeded(ReproError):
    """A deadline expired before the operation finished.

    Raised by an engine query, which checks its deadline between query
    stages and between shards -- a stage already running finishes first --
    and surfaced by the query service as a ``deadline`` error response.
    Reads are side-effect free, so stopping one leaves no state behind.
    """
