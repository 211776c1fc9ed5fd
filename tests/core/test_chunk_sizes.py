"""Size guard for the columnar chunk header.

The benchmark store averages ~13 entries and as many distinct traces per
postings chunk, so a careless fixed header costs more than the columns
save.  Held here on the ``max_10000`` log: summed over every chunk an index
build writes, the columnar layout is no larger than the varint layout it
replaced, and Seq rows take at most 60 % of their generic encoding --
whether the log arrives as ten batches of whole traces (few large chunks)
or as a stream of five-event slices (many tiny ones).  The Index chunks the
engine stores name traces by number, and take at most 55 % of the bytes of
the same rows with their trace ids spelled out.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SequenceIndex
from repro.core.model import Event, EventLog
from repro.core.postings import encode_postings, encode_sequence
from repro.kvstore.encoding import encode_value
from repro.logs.datasets import load_dataset

from .legacy_codec import encode_varint_postings


def _whole_trace_batches(log: EventLog, calls: int = 10) -> list:
    traces = list(log)
    return [
        EventLog(traces[i * len(traces) // calls : (i + 1) * len(traces) // calls])
        for i in range(calls)
    ]


def _streamed_batches(log: EventLog, slice_len: int = 5) -> list:
    """Round-robin slices of every trace: what a tailing ingester applies."""
    longest = max(len(trace) for trace in log)
    return [
        [
            Event(trace.trace_id, activity, ts)
            for trace in log
            for activity, ts in trace.pairs_view()[start : start + slice_len]
        ]
        for start in range(0, longest, slice_len)
    ]


@pytest.mark.parametrize("batching", [_whole_trace_batches, _streamed_batches])
def test_columnar_rows_are_no_larger_than_what_they_replace(batching):
    log = load_dataset("max_10000", 0.01)
    index = SequenceIndex()
    postings_batches: list = []
    sequence_batches: list = []
    append_index = index.tables.append_index
    append_sequence = index.tables.append_sequence

    def record_index(pair, columns, partition=""):
        numbers, ts_a, ts_b = columns
        postings_batches.append(list(zip(index.tables.trace_names(numbers), ts_a, ts_b)))
        append_index(pair, columns, partition)

    def record_sequence(trace_id, events):
        sequence_batches.append(list(events))
        append_sequence(trace_id, events)

    index.tables.append_index = record_index
    index.tables.append_sequence = record_sequence
    for batch in batching(log):
        index.update(batch)
    assert sum(map(len, sequence_batches)) == log.num_events

    columnar = sum(len(encode_postings(entries)) for entries in postings_batches)
    varint = sum(len(encode_varint_postings(entries)) for entries in postings_batches)
    assert columnar <= varint, (columnar, varint)

    chunked = sum(len(encode_value(encode_sequence(e))) for e in sequence_batches)
    generic = sum(len(encode_value(e)) for e in sequence_batches)
    assert chunked <= 0.6 * generic, (chunked, generic)


@pytest.mark.parametrize("batching", [_whole_trace_batches, _streamed_batches])
def test_numbered_index_chunks_are_at_most_55_percent_of_the_string_layout(batching):
    """Trace numbers in place of the id dictionary: the stored Index chunks
    against ``encode_postings`` of the same rows, their ids spelled out
    (measured 0.44 for whole traces, 0.36 for streamed slices)."""
    log = load_dataset("max_10000", 0.01)
    index = SequenceIndex()
    postings_batches: list = []
    append_index = index.tables.append_index

    def record_index(pair, columns, partition=""):
        numbers, ts_a, ts_b = columns
        postings_batches.append(list(zip(index.tables.trace_names(numbers), ts_a, ts_b)))
        append_index(pair, columns, partition)

    index.tables.append_index = record_index
    for batch in batching(log):
        index.update(batch)

    stored = sum(len(chunk) for _, row in index.store.scan("index") for chunk in row)
    spelled_out = sum(len(encode_postings(entries)) for entries in postings_batches)
    ratio = stored / spelled_out
    print(f"{batching.__name__}: numbered Index chunks {stored} B, "
          f"string layout {spelled_out} B, ratio {ratio:.3f}")
    assert ratio <= 0.55, (stored, spelled_out)
