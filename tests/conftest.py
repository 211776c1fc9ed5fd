"""Shared fixtures of the test suite."""

from __future__ import annotations

import pytest

from repro.core.model import EventLog
from repro.kvstore import InMemoryStore, LSMStore, blockcodec

try:  # hypothesis drives the differential suite; the rest runs without it
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        deadline=None,  # store setup time varies too much for per-example deadlines
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("ci")
except ImportError:  # pragma: no cover
    pass


@pytest.fixture
def memory_store():
    store = InMemoryStore()
    yield store
    store.close()


@pytest.fixture
def lsm_store(tmp_path):
    store = LSMStore(str(tmp_path / "store"))
    yield store
    store.close()


@pytest.fixture(params=["memory", "lsm"])
def any_store(request, tmp_path):
    """Both backends behind the same API; tests run once per backend."""
    if request.param == "memory":
        store = InMemoryStore()
    else:
        store = LSMStore(str(tmp_path / "store"))
    yield store
    store.close()


@pytest.fixture
def written_codecs(monkeypatch) -> list[int]:
    """The codec of every SSTable block written while the test runs."""
    codecs: list[int] = []
    compress = blockcodec.compress

    def recording(raw: bytes) -> tuple[int, bytes]:
        codec, stored = compress(raw)
        codecs.append(codec)
        return codec, stored

    monkeypatch.setattr(blockcodec, "compress", recording)
    return codecs


@pytest.fixture
def paper_log() -> EventLog:
    """The trace of the paper's §2.1 example plus companions."""
    return EventLog.from_dict(
        {
            "t1": list("AAABAACB"),
            "t2": list("ABC"),
            "t3": list("CBA"),
        }
    )


@pytest.fixture
def table3_trace() -> tuple[list[str], list[int]]:
    """The exact trace of the paper's Table 3: <(A,1)...(A,6)>."""
    return ["A", "A", "B", "A", "B", "A"], [1, 2, 3, 4, 5, 6]
