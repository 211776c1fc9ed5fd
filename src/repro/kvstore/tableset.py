"""The table set: everything the MANIFEST records, and the MANIFEST itself.

A :class:`TableSet` owns the store's durable catalogue -- the logical
tables and their merge operators, the flat SSTable list, the id counters
and the flush watermark -- and is the one reader and the one writer of the
``MANIFEST`` file.
:class:`~repro.kvstore.lsm.LSMStore` keeps the locks, the WAL, the
memtables, the read path and the flush/compaction protocols.  A
``TableSet`` has no lock of its own: the store's ``RWLock`` guards it
(mutators under the write side, everything else under at least the read
side).

Manifest versions: v1 listed SSTables as bare filenames; v2 -- the only
version written -- records ``file``, ``records`` and ``data_bytes`` per
table.  Either way the list is in read order, oldest shadow first.
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

    def __init__(self, directory: str, io, cache=None, metrics=None) -> None:
        self._directory = directory
        self._manifest_path = os.path.join(directory, MANIFEST_NAME)
        self._io = io
        self._cache = cache  # the store's shared BlockCache, if any
        self._metrics = metrics
        #: logical table name -> 2-byte key-prefix id
        self.table_ids: dict[str, int] = {}
        #: table id -> resolved merge operator (``None`` = plain table)
        self.merge_ops: dict[int, MergeOperator | None] = {}
        #: live SSTables, oldest shadow first: the order reads trust
        self.readers: list[SSTableReader] = []
        self.last_flushed_seq = 0
        self._next_table_id = 1
        self._next_sst_id = 1
        #: files of tables that left the set, deleted by the first commit
        #: that makes a MANIFEST without them durable
        self._obsolete: list[str] = []

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
                # v1: a bare filename.  A v2 entry written by the retired
                # leveled strategy also carries ``level`` / ``min_key`` /
                # ``max_key`` (and the manifest a ``compaction`` name): all
                # ignored, so such a store opens as one flat list in
                # manifest order -- the order its reads already trusted.
                name = entry if isinstance(entry, str) else entry["file"]
                readers.append(
                    SSTableReader(
                        os.path.join(self._directory, name),
                        cache=self._cache,
                        io=self._io,
                        metrics=self._metrics,
                        lazy=True,
                    )
                )
            referenced = {os.path.basename(reader.path) for reader in readers}
            for name in dir_names:
                if _SST_FILE_RE.match(name) and name not in referenced:
                    self._io.remove(os.path.join(self._directory, name))
        except BaseException:
            for reader in readers:
                reader.close()
            raise
        self.readers = readers

    def commit(self) -> None:
        """Persist the current state as a v2 MANIFEST: tmp + fsync + rename
        + directory fsync; only then delete the files of tables that have
        left the set (a MANIFEST that still names them may be the one on
        disk until this commit is durable)."""
        manifest = {
            "version": 2,
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
        self._io.fsync_dir(self._directory)
        obsolete, self._obsolete = self._obsolete, []
        for path in obsolete:
            self._io.remove(path)

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
        """A flush output joins as the newest table; the watermark moves
        with it in the same commit."""
        self.readers.append(reader)
        self.last_flushed_seq = flushed_upto
        self.commit()

    def swap(self, inputs: list[SSTableReader], output: SSTableReader) -> bool:
        """Replace a compaction's ``inputs`` by its ``output`` and commit.

        The output takes the flat position of the oldest input: whatever
        the inputs shadowed, the output shadows.  The inputs are closed
        (one cache sweep for all) before the commit, so they are released
        even if it raises; their files go with this commit or, if it
        raises, with the next one that succeeds.  ``False`` -- nothing
        changed -- when the pick is stale because an input has already left
        the set.
        """
        gone = {id(reader) for reader in inputs}
        positions = [i for i, r in enumerate(self.readers) if id(r) in gone]
        if len(positions) != len(gone):
            return False
        kept = [r for r in self.readers if id(r) not in gone]
        oldest = positions[0]  # nothing before it is an input
        self.readers = kept[:oldest] + [output] + kept[oldest:]
        if self._cache is not None:
            self._cache.evict_owners(r._uid for r in inputs)
        for reader in inputs:
            reader.close(evict_blocks=False)
        self._obsolete.extend(reader.path for reader in inputs)
        self.commit()
        return True

    # -- stats rows ------------------------------------------------------------

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
        }


def _file_bytes(reader: SSTableReader) -> int:
    try:
        return os.path.getsize(reader.path)
    except OSError:  # pragma: no cover - racing deletion
        return reader.data_bytes
