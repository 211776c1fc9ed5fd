"""Checkpoint durability: defaults, round trips, atomic replace, versioning."""

from __future__ import annotations

import json
import os

import pytest

from repro.ingest import Checkpoint, load_checkpoint, store_checkpoint


def test_missing_file_means_start_of_feed(tmp_path):
    assert load_checkpoint(str(tmp_path / "absent")) == Checkpoint()


def test_round_trip(tmp_path):
    path = str(tmp_path / "cp")
    checkpoint = Checkpoint(offset=1234, batches=7, events=301)
    store_checkpoint(path, checkpoint)
    assert load_checkpoint(path) == checkpoint


def test_overwrite_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "cp")
    store_checkpoint(path, Checkpoint(offset=1))
    store_checkpoint(path, Checkpoint(offset=2))
    assert load_checkpoint(path).offset == 2
    assert os.listdir(tmp_path) == ["cp"]


@pytest.mark.parametrize(
    "document",
    [
        {"version": 99, "offset": 10},
        [],
        {"version": 1},
        {"version": 1, "offset": -5},
        {"version": 1, "offset": 10, "batches": None},
    ],
    ids=["version", "not-an-object", "no-offset", "negative", "null-counter"],
)
def test_unknown_version_is_refused(tmp_path, document):
    path = str(tmp_path / "cp")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    with pytest.raises(ValueError, match="unsupported ingest checkpoint"):
        load_checkpoint(path)
