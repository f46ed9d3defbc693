"""Persistent result cache."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hilbloc import cache as cache_module
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


def test_fetch_hashes_its_request_once(tmp_path, monkeypatch):
    hashes = []
    sha256 = cache_module._sha256()

    def counting_sha256(data):
        hashes.append(data)
        return sha256(data)

    monkeypatch.setattr(cache_module, "_sha256", lambda: counting_sha256)
    path = tmp_path / "cache.jsonl"
    request = {"op": "once", "k": 1}
    assert ResultCache(path).fetch(request, lambda: Fraction(4)) == 4  # miss
    assert len(hashes) == 1
    assert ResultCache(path).fetch(request, lambda: Fraction(5)) == 4  # hit
    assert len(hashes) == 2
    [rec] = [json.loads(line) for line in path.read_text().splitlines()]
    assert rec["request"] == request
    assert rec["key_hash"] == canonical_key(request)


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
        fh.write("42\n")  # JSON, but not an object
        fh.write("[1, 2]\n")
        zero = dict(record, key_hash=canonical_key({"op": "zero"}),
                    value_denominator="0", engine_version=ENGINE_VERSION)
        fh.write(json.dumps(zero) + "\n")
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")  # not UTF-8
        fh.write(b'{"key_hash": "\xff"}\n')
    cache.put({"op": "after"}, Fraction(1, 2))
    fresh = ResultCache(path)
    assert fresh.get({"op": "keep"}) == 3
    assert fresh.get({"op": "old"}) is None  # different engine version
    assert fresh.get({"op": "zero"}) is None
    assert fresh.get({"op": "after"}) == Fraction(1, 2)


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
QUOT_KEY = "ef8e0086e3ae22d520dd10671c42e5b5fc705e9ce7f37026bc77d4d3a01b7c53"
CHI_KEY = "f13ea2939d829be5c96ecedc23260ed3e865445352e6eef8e5002f8daa553f88"
# the requests behind them: quot_count(P2, O(-2) + O(-3), 2) and
# chi_theta(P2, e of rank 1 and c1 0, 2)
QUOT_REQUEST = {
    "op": "integrate",
    "surface": "P2",
    "k": 2,
    "bundles": {
        "Vdual_k": {
            "plus": [[[0, 0], [2, 0], [0, 2]], [[0, 0], [3, 0], [0, 3]]],
            "minus": [],
        }
    },
    "expr": "c4(Vdual_k)",
}
CHI_REQUEST = {"op": "chi_theta", "surface": "P2", "k": 2, "rank": 1, "c1": [0]}


@pytest.mark.parametrize(
    "request_, key",
    [(QUOT_REQUEST, QUOT_KEY), (CHI_REQUEST, CHI_KEY)],
    ids=["quot_count", "chi_theta"],
)
def test_canonical_key_is_pinned(request_, key):
    assert canonical_key(request_) == key


json_values = st.recursive(
    st.integers() | st.text() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _hashlib_key(request):
    blob = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@given(st.dictionaries(st.text(max_size=8), json_values, max_size=5))
def test_canonical_key_is_hashlib_sha256(request_):
    assert canonical_key(request_) == _hashlib_key(request_)


def test_canonical_key_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without _sha2 and _sha256: imports of either fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    cache_module._sha256.cache_clear()
    try:
        assert cache_module._sha256() is hashlib.sha256
        assert canonical_key(QUOT_REQUEST) == QUOT_KEY
        assert canonical_key(CHI_REQUEST) == CHI_KEY
    finally:
        cache_module._sha256.cache_clear()


@pytest.mark.parametrize(
    "run, key",
    [
        (
            lambda c: quot_count(P2, split_bundle(P2, [-2, -3]), 2, cache=c),
            QUOT_KEY,
        ),
        (
            lambda c: chi_theta(P2, split_bundle(P2, [1, 1], [2]), 2, cache=c),
            CHI_KEY,
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


def _assert_hashlib_keys(path):
    # every key written is the sha256 hashlib gives for the canonical request
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert rec["key_hash"] == _hashlib_key(rec["request"])


# hashlib maps OpenSSL's libcrypto, so the cache keys with CPython's
# built-in sha256; dataclasses loads inspect, ast and dis, so the value
# classes are written out.  No run loads any of these.
UNLOADED = {"hashlib", "_hashlib", "dataclasses", "inspect"}


def test_runs_never_load_hashlib(tmp_path):
    path = tmp_path / "cache.jsonl"
    code = (
        "import json, sys, warnings; warnings.simplefilter('ignore'); "
        "from hilbloc import (ChernData, ResultCache, c2_for_expected_dim_zero, "
        "chi_theta, e_from_v, make_surface, quot_count, realize_split_model, "
        "split_bundle, virtual_integral); "
        "P2 = make_surface('P2'); "
        "vd = realize_split_model(P2, ChernData(3, (4,), c2_for_expected_dim_zero(3, 4, 2))); "
        "v = vd.dual(); "
        "assert virtual_integral(P2, v, None, 2) == quot_count(P2, v, 2); "
        "assert chi_theta(P2, e_from_v(v.chern_data(), 2), 2) == quot_count(P2, v, 2); "
        "cache = ResultCache(sys.argv[1]); "
        "assert quot_count(P2, split_bundle(P2, [-2, -3]), 2, cache=cache) == 15; "
        "assert chi_theta(P2, split_bundle(P2, [1, 1], [2]), 2, cache=cache) == 0; "
        "assert quot_count(P2, split_bundle(P2, [-2, -3]), 2, "
        "cache=ResultCache(sys.argv[1])) == 15; "
        f"loaded = {UNLOADED!r} & set(sys.modules); "
        "assert not loaded, loaded; "
        "print(json.loads(open(sys.argv[1]).readline())['key_hash'])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == QUOT_KEY
    assert len(path.read_text().splitlines()) == 2
    _assert_hashlib_keys(path)

    # the CLI opens its default cache; -X importtime lists every module the
    # process imports, one per stderr line, its name in the last column
    cli_cache = tmp_path / "cli-cache.jsonl"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hilbloc.cli",
         "verify-conjecture", "--r", "3", "--d", "7", "--kmax", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(env, HILBLOC_CACHE=str(cli_cache)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_equal"] is True
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "hilbloc.cache" in imported
    assert not UNLOADED & imported
    assert len(cli_cache.read_text().splitlines()) == 4
    _assert_hashlib_keys(cli_cache)
