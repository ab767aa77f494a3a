import json

import pytest

from avoidwords.cache import Cache, payload_hash


def test_round_trip(tmp_path):
    cache = Cache(tmp_path)
    payload = {"terms": ["1", "1", "6", "43"]}
    cache.store("sequence", 2, {"nmax": 3}, payload)
    assert cache.load("sequence", 2, {"nmax": 3}) == payload


def test_miss_on_other_parameters(tmp_path):
    cache = Cache(tmp_path)
    cache.store("sequence", 2, {"nmax": 3}, {"terms": []})
    assert cache.load("sequence", 2, {"nmax": 4}) is None
    assert cache.load("sequence", 3, {"nmax": 3}) is None
    assert cache.load("equation", 2, {"nmax": 3}) is None


def test_corrupted_payload_reads_as_miss(tmp_path):
    cache = Cache(tmp_path)
    entry = cache.store("sequence", 1, {"nmax": 2}, {"terms": ["1", "1", "2"]})
    path = cache._key_path("sequence", 1, {"nmax": 2})
    data = json.loads(path.read_text())
    data["payload"]["terms"] = ["9", "9", "9"]  # hash no longer matches
    path.write_text(json.dumps(data))
    assert cache.load("sequence", 1, {"nmax": 2}) is None
    assert entry["content_hash"] == payload_hash({"terms": ["1", "1", "2"]})


@pytest.mark.parametrize("document", ["[1, 2]", "null", "7", '"text"'])
def test_non_object_document_reads_as_miss(tmp_path, document):
    cache = Cache(tmp_path)
    cache.store("sequence", 2, {"nmax": 5}, {"terms": ["1"]})
    cache._key_path("sequence", 2, {"nmax": 5}).write_text(document)
    assert cache.load("sequence", 2, {"nmax": 5}) is None


def test_version_bump_invalidates(tmp_path):
    cache = Cache(tmp_path)
    cache.store("report", 1, {}, {"passed": True})
    path = cache._key_path("report", 1, {})
    data = json.loads(path.read_text())
    data["tool_version"] = "0.0.0-other"
    path.write_text(json.dumps(data))
    assert cache.load("report", 1, {}) is None


def test_entry_hash_consistency(tmp_path):
    entry = Cache(tmp_path).store("sequence", 2, {"nmax": 3}, {"a": 1})
    assert entry["content_hash"] == payload_hash({"a": 1})
    assert entry["kind"] == "sequence"
