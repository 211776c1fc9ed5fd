"""An :class:`~repro.kvstore.lsm.LSMStore` in a temporary directory of its
own, for tests that build a store where no ``tmp_path`` reaches and for the
subclasses that count or slow down its calls."""

from __future__ import annotations

import shutil
import tempfile
import weakref

from repro.kvstore import LSMStore


class TempStore(LSMStore):
    """A store whose directory is removed when the store is collected."""

    def __init__(self) -> None:
        path = tempfile.mkdtemp(prefix="repro-test-store-")
        weakref.finalize(self, shutil.rmtree, path, True)
        super().__init__(path)
