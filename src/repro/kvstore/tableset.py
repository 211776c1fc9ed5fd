"""The table set: everything the MANIFEST records, and the MANIFEST itself.

A :class:`TableSet` owns the store's durable catalogue -- the logical
tables and their merge operators, the flat SSTable list with each table's
level and key bounds, the id counters and the flush watermark -- and is
the one reader and the one writer of the ``MANIFEST`` file.
:class:`~repro.kvstore.lsm.LSMStore` keeps the locks, the WAL, the
memtables, the read path and the flush/compaction protocols.  A
``TableSet`` has no lock of its own: the store's ``RWLock`` guards it
(mutators under the write side, everything else under at least the read
side).

Manifest versions: v1 listed SSTables as bare filenames (every table
reads as L0 with unknown key bounds); v2 -- the only version written --
records ``level``, ``min_key`` / ``max_key`` (hex), ``records`` and
``data_bytes`` per table, so the leveled planner can reason about overlap
without I/O.
"""

from __future__ import annotations

import json
import os
import re
from typing import Iterable

from repro.kvstore.merge import MergeOperator, resolve_merge_operator
from repro.kvstore.sstable import SSTableReader

MANIFEST_NAME = "MANIFEST"
#: an SSTable or the temporary file of one still being written
_SST_FILE_RE = re.compile(r"^sst-\d+\.sst(\.tmp)?$")


class TableSet:
    """Catalogue + SSTable list + counters, persisted as the MANIFEST."""

    def __init__(
        self, directory: str, strategy_name: str, io, cache=None, metrics=None
    ) -> None:
        self._directory = directory
        self._manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._strategy_name = strategy_name
        self._io = io
        self._cache = cache  # the store's shared BlockCache, if any
        self._metrics = metrics
        #: logical table name -> 2-byte key-prefix id
        self.table_ids: dict[str, int] = {}
        #: table id -> resolved merge operator (``None`` = plain table)
        self.merge_ops: dict[int, MergeOperator | None] = {}
        #: live SSTables, oldest shadow first: deepest level first and L0
        #: last (oldest -> newest within L0); the order reads trust
        self.readers: list[SSTableReader] = []
        self.last_flushed_seq = 0
        self._next_table_id = 1
        self._next_sst_id = 1

    # -- load and commit ----------------------------------------------------

    def load(self, dir_names: Iterable[str]) -> None:
        """Adopt the directory's MANIFEST, or bootstrap a fresh one.

        Readers open lazily (footer only), so the cost is O(manifest); if
        a table fails to open, the ones already opened are closed before
        the error propagates.  Every ``sst-*.sst`` / ``*.sst.tmp`` of
        ``dir_names`` (the listing taken at open) that the manifest does
        not reference is removed: ids are never reused, so an orphan (a
        killed compaction's outputs before its swap or inputs after it, a
        torn flush) would otherwise stay on disk for good.
        """
        if not os.path.exists(self._manifest_path):
            self.commit()
            return
        with open(self._manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        self._next_table_id = manifest["next_table_id"]
        self._next_sst_id = manifest["next_sst_id"]
        self.last_flushed_seq = manifest["last_flushed_seq"]
        for name, spec in manifest["tables"].items():
            self._register(name, spec["id"], spec["merge"])
        readers: list[SSTableReader] = []
        try:
            for entry in manifest["sstables"]:
                if isinstance(entry, str):  # manifest v1: plain filename, L0
                    entry = {"file": entry}
                reader = SSTableReader(
                    os.path.join(self._directory, entry["file"]),
                    cache=self._cache,
                    io=self._io,
                    metrics=self._metrics,
                    lazy=True,
                )
                readers.append(reader)
                reader.level = int(entry.get("level", 0))
                if entry.get("min_key"):
                    reader.min_key = bytes.fromhex(entry["min_key"])
                if entry.get("max_key"):
                    reader.max_key = bytes.fromhex(entry["max_key"])
            referenced = {os.path.basename(reader.path) for reader in readers}
            for name in dir_names:
                if _SST_FILE_RE.match(name) and name not in referenced:
                    self._io.remove(os.path.join(self._directory, name))
        except BaseException:
            for reader in readers:
                reader.close()
            raise
        self.readers = readers
        self._demote_unsound_levels()

    def commit(self) -> None:
        """Persist the current state as a v2 MANIFEST (tmp + fsync + rename)."""
        manifest = {
            "version": 2,
            "compaction": self._strategy_name,
            "next_table_id": self._next_table_id,
            "next_sst_id": self._next_sst_id,
            "last_flushed_seq": self.last_flushed_seq,
            "tables": {
                name: {"id": table_id, "merge": self._operator_name(name)}
                for name, table_id in self.table_ids.items()
            },
            "sstables": [
                {
                    "file": os.path.basename(r.path),
                    "level": r.level,
                    "min_key": r.min_key.hex() if r.min_key is not None else None,
                    "max_key": r.max_key.hex() if r.max_key is not None else None,
                    "records": r.record_count,
                    "data_bytes": r.data_bytes,
                }
                for r in self.readers
            ],
        }
        tmp = self._manifest_path + ".tmp"
        fh = self._io.open(tmp, "wb")
        try:
            fh.write(json.dumps(manifest).encode("utf-8"))
            fh.flush()
            self._io.fsync(fh)
        finally:
            fh.close()
        self._io.replace(tmp, self._manifest_path)

    def close(self) -> None:
        """Close every reader; the first error is raised once all are closed."""
        error: BaseException | None = None
        for reader in self.readers:
            try:
                reader.close()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    # -- logical-table catalogue --------------------------------------------

    def _register(self, name: str, table_id: int, merge_operator: str | None) -> None:
        operator = resolve_merge_operator(merge_operator) if merge_operator else None
        self.table_ids[name] = table_id
        self.merge_ops[table_id] = operator

    def _operator_name(self, table: str) -> str | None:
        operator = self.merge_ops[self.table_ids[table]]
        return operator.name if operator is not None else None  # its registry key

    def create_table(self, name: str, merge_operator: str | None) -> None:
        """Add a logical table and commit; a no-op if it already exists
        with the same merge operator, a ``ValueError`` with another."""
        if name in self.table_ids:
            if self._operator_name(name) != merge_operator:
                raise ValueError(
                    f"table {name!r} already exists with merge operator "
                    f"{self._operator_name(name)!r}, not {merge_operator!r}"
                )
            return
        self._register(name, self._next_table_id, merge_operator)
        self._next_table_id += 1
        self.commit()

    # -- SSTable membership ----------------------------------------------------

    def allocate(self) -> str:
        """Path of the next ``sst-N.sst``; ids are never reused."""
        filename = f"sst-{self._next_sst_id:06d}.sst"
        self._next_sst_id += 1
        return os.path.join(self._directory, filename)

    def install_flush(self, reader: SSTableReader, flushed_upto: int) -> None:
        """A flush output joins as the newest L0 table; the watermark moves
        with it in the same commit."""
        self.readers.append(reader)
        self.last_flushed_seq = flushed_upto
        self.commit()

    def swap(self, inputs: list[SSTableReader], outputs: list[SSTableReader]) -> bool:
        """Replace a compaction's ``inputs`` by its ``outputs`` and commit.

        One rule for every pick: the outputs take the flat position of the
        oldest input (whatever the inputs shadowed, the outputs shadow),
        the level layout is re-checked, and the list is re-sorted deepest
        level first.  ``False`` -- nothing changed -- when the pick is
        stale because an input has already left the set.
        """
        gone = {id(reader) for reader in inputs}
        positions = [i for i, r in enumerate(self.readers) if id(r) in gone]
        if len(positions) != len(gone):
            return False
        kept = [r for r in self.readers if id(r) not in gone]
        oldest = positions[0]  # nothing before it is an input
        self.readers = kept[:oldest] + outputs + kept[oldest:]
        self._demote_unsound_levels()
        self._sort_deepest_first()
        self.commit()
        return True

    def relevel(self, reader: SSTableReader, level: int) -> bool:
        """Trivial move: ``reader`` changes level, no byte is rewritten.
        ``False`` if the table has already left the set."""
        if all(reader is not r for r in self.readers):
            return False
        reader.level = level
        self._sort_deepest_first()
        self.commit()
        return True

    def levels(self) -> list[list[SSTableReader]]:
        """The flat list grouped by level, for the leveled planner.

        ``levels[0]`` keeps flat-list order (oldest -> newest); deeper
        levels sort by ``min_key`` so the planner sees each run in key
        order regardless of how the flat list interleaved them.
        """
        depth = max((r.level for r in self.readers), default=0)
        levels: list[list[SSTableReader]] = [[] for _ in range(depth + 1)]
        for reader in self.readers:
            levels[reader.level].append(reader)
        for run in levels[1:]:
            run.sort(key=lambda r: r.min_key or b"")
        return levels

    def _sort_deepest_first(self) -> None:
        """Re-derive the flat read order from per-table levels.

        Deepest level first (oldest shadow), then L0 in its existing
        relative order (recency; the sort is stable).  Within an L1+ level
        tables are key-disjoint, so sorting them by ``min_key`` cannot
        change which record shadows which.
        """
        self.readers.sort(
            key=lambda r: (-r.level, r.min_key or b"") if r.level else (0, b"")
        )

    def _demote_unsound_levels(self) -> None:
        """Demote every table to L0 if the level layout is unsound.

        The flat order is what reads trust (oldest shadow first), so
        interpreting *any* layout as all-L0 is always correct -- L0
        imposes nothing beyond that order.  Keeping deeper levels, however,
        lets the planner reorder tables within a level and skip shadow
        checks between disjoint runs, so levels are kept only when the
        invariants actually hold: flat order non-increasing in level
        (deepest first) and every L1+ level a key-disjoint run with known
        bounds.  Checked when a manifest is loaded (a torn or hand-edited
        one demotes cleanly) and on every swap: a size-tiered round over a
        formerly leveled store puts an L0 output where its oldest input
        stood, possibly in front of deeper tables, and the leveled planner
        then rebuilds the levels from scratch.
        """
        flat = [reader.level for reader in self.readers]
        sound = min(flat, default=0) >= 0 and flat == sorted(flat, reverse=True)
        for run in self.levels()[1:] if sound else ():
            if any(
                r.min_key is None or r.max_key is None or r.min_key > r.max_key
                for r in run
            ) or any(a.max_key >= b.min_key for a, b in zip(run, run[1:])):
                sound = False
        if not sound:
            for reader in self.readers:
                reader.level = 0  # key bounds stay: they are still true

    # -- stats rows ------------------------------------------------------------

    def level_rows(self) -> list[dict[str, int]]:
        """Per-level table count and data bytes, L0 first."""
        return [
            {
                "level": level,
                "tables": len(run),
                "data_bytes": sum(r.data_bytes for r in run),
            }
            for level, run in enumerate(self.levels())
        ]

    def file_bytes(self) -> int:
        """Bytes the live SSTable files occupy on disk."""
        return sum(_file_bytes(reader) for reader in self.readers)

    def storage_stats(self) -> dict:
        """Physical storage accounting, per SSTable and aggregated.

        ``raw_data_bytes`` is the pre-compression data size (equal to
        ``data_bytes`` for uncompressed v1 files), so
        ``compression_ratio`` = raw / on-disk measures what the block
        codec actually saved.
        """
        rows = [
            {
                "file": os.path.basename(reader.path),
                "format_version": reader.format_version,
                "level": reader.level,
                "records": reader.record_count,
                "data_bytes": reader.data_bytes,
                "raw_data_bytes": reader.raw_data_bytes,
                "file_bytes": _file_bytes(reader),
            }
            for reader in self.readers
        ]
        data_bytes = sum(row["data_bytes"] for row in rows)
        raw_bytes = sum(row["raw_data_bytes"] for row in rows)
        return {
            "sstables": rows,
            "records": sum(row["records"] for row in rows),
            "data_bytes": data_bytes,
            "raw_data_bytes": raw_bytes,
            "file_bytes": sum(row["file_bytes"] for row in rows),
            "compression_ratio": (raw_bytes / data_bytes) if data_bytes else 1.0,
            "compaction": self._strategy_name,
            "level_count": len({row["level"] for row in rows}),
        }


def _file_bytes(reader: SSTableReader) -> int:
    try:
        return os.path.getsize(reader.path)
    except OSError:  # pragma: no cover - racing deletion
        return reader.data_bytes
