"""Persistent result cache."""

import json
import os
import warnings
from fractions import Fraction

import pytest

from hilbloc.cache import (
    ENGINE_VERSION,
    ResultCache,
    canonical_key,
    default_cache,
)
from hilbloc.integrals import chi_theta, quot_count
from hilbloc.tautological import virtual_integral
from hilbloc.toric import make_surface, split_bundle

P2 = make_surface("P2")


def test_canonical_key_is_order_insensitive():
    a = canonical_key({"op": "x", "k": 2, "surface": "P2"})
    b = canonical_key({"surface": "P2", "op": "x", "k": 2})
    assert a == b
    assert a != canonical_key({"op": "x", "k": 3, "surface": "P2"})


def test_put_get_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    req = {"op": "test", "k": 1}
    assert cache.get(req) is None
    cache.put(req, Fraction(22, 7))
    assert cache.get(req) == Fraction(22, 7)
    # a fresh instance reads the same file
    assert ResultCache(path).get(req) == Fraction(22, 7)


def test_fetch_computes_once(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    calls = []

    def compute():
        calls.append(1)
        return Fraction(5)

    assert cache.fetch({"op": "t"}, compute) == 5
    assert cache.fetch({"op": "t"}, compute) == 5
    assert len(calls) == 1


def test_reader_tolerates_foreign_and_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put({"op": "keep"}, Fraction(3))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"unrelated": True}) + "\n")
        record = {
            "key_hash": canonical_key({"op": "old"}),
            "request": {"op": "old"},
            "value_numerator": "1",
            "value_denominator": "1",
            "engine_version": "0.0.0",
        }
        fh.write(json.dumps(record) + "\n")
    fresh = ResultCache(path)
    assert fresh.get({"op": "keep"}) == 3
    assert fresh.get({"op": "old"}) is None  # different engine version


def test_record_schema(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResultCache(path).put({"op": "schema"}, Fraction(-7, 3))
    with open(path, encoding="utf-8") as fh:
        record = json.loads(fh.readline())
    assert set(record) == {
        "key_hash", "request", "value_numerator", "value_denominator",
        "engine_version",
    }
    assert record["value_numerator"] == "-7"
    assert record["value_denominator"] == "3"
    assert record["engine_version"] == ENGINE_VERSION
    assert record["key_hash"] == canonical_key({"op": "schema"})


def test_default_cache_honors_environment(tmp_path, monkeypatch):
    target = tmp_path / "env" / "cache.jsonl"
    monkeypatch.setenv("HILBLOC_CACHE", str(target))
    cache = default_cache()
    cache.put({"op": "env"}, Fraction(1))
    assert target.exists()
    disabled = ResultCache(target, enabled=False)
    assert disabled.get({"op": "env"}) is None
    calls = []

    def compute():
        calls.append(1)
        return Fraction(9)

    assert disabled.fetch({"op": "env"}, compute) == 9
    assert calls == [1]


def test_disabled_cache_never_touches_disk(tmp_path):
    path = tmp_path / "never.jsonl"
    cache = ResultCache(path, enabled=False)
    cache.put({"op": "x"}, Fraction(2))
    assert not path.exists()
    assert not os.path.exists(path)


# sha256 keys written by engine 0.1.0; a change here turns every cached
# result on disk into a miss
@pytest.mark.parametrize(
    "run, key",
    [
        (
            lambda c: quot_count(P2, split_bundle(P2, [-2, -3]), 2, cache=c),
            "ef8e0086e3ae22d520dd10671c42e5b5fc705e9ce7f37026bc77d4d3a01b7c53",
        ),
        (
            lambda c: chi_theta(P2, split_bundle(P2, [1, 1], [2]), 2, cache=c),
            "9c051c303eb27a52a3884de62726f2b26ca46cc7d08ee6c09612bbf23661eb56",
        ),
        (
            lambda c: virtual_integral(
                P2, split_bundle(P2, [-1, -1]), split_bundle(P2, [1]), 1, cache=c
            ),
            "3cb362e723517283d09ad6123cbc9a1fa40ebd28fe7a36657a81a613899ec3bd",
        ),
    ],
    ids=["quot_count", "chi_theta", "virtual_integral"],
)
def test_request_keys_are_stable(tmp_path, run, key):
    path = tmp_path / "cache.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run(ResultCache(path))
    [rec] = [json.loads(line) for line in path.read_text().splitlines()]
    assert rec["key_hash"] == canonical_key(rec["request"]) == key
