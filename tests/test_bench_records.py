"""Every benchmark record at the repository root, ``BENCH_*.json``, is a JSON
object with the keys of one schema, so that records of different changes can
be read side by side."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("title", "parent_commit", "claim", "command", "method", "machine",
        "workloads", "layers")


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_with_every_key(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in KEYS if key not in record] == []
    assert isinstance(record["workloads"], dict) and record["workloads"]
