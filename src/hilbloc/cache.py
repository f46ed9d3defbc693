"""Append-only result cache, one JSON object per line.

Records look like

    {"key_hash": ..., "request": {...}, "value_numerator": "6",
     "value_denominator": "1", "engine_version": "0.1.0"}

keyed by the sha256 of the canonical-JSON request (sorted keys, compact
separators).  Requests describe the integral up to specialization, so seeds
never enter the key.  Numerator and denominator are decimal strings to keep
big integers JSON-safe.

Writes take an advisory lock on the file; reads are lock-free and tolerate
truncated or foreign lines, so concurrent sweeps can share one cache file.
The location comes from HILBLOC_CACHE, defaulting to
~/.cache/hilbloc/results.jsonl.  Any I/O failure silently disables the cache
for the rest of the process; caching is an optimization, never a correctness
dependency.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

ENGINE_VERSION = "0.1.0"
ENV_VAR = "HILBLOC_CACHE"
DEFAULT_PATH = "~/.cache/hilbloc/results.jsonl"

__all__ = ["ENGINE_VERSION", "ResultCache", "canonical_key", "default_cache"]


def canonical_key(request: dict) -> str:
    blob = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    def __init__(self, path: str | os.PathLike | None = None, enabled: bool = True):
        if path is None:
            path = os.environ.get(ENV_VAR, DEFAULT_PATH)
        self.path = Path(path).expanduser()
        self.enabled = enabled
        self._index: dict[str, Fraction] | None = None

    def _load(self) -> dict[str, Fraction]:
        if self._index is not None:
            return self._index
        index: dict[str, Fraction] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        rec = json.loads(line)
                        if rec.get("engine_version") != ENGINE_VERSION:
                            continue
                        index[rec["key_hash"]] = Fraction(
                            int(rec["value_numerator"]),
                            int(rec["value_denominator"]),
                        )
                    except (ValueError, KeyError, TypeError):
                        continue  # partial write or foreign line
        except OSError:
            pass
        self._index = index
        return index

    def get(self, request: dict) -> Fraction | None:
        if not self.enabled:
            return None
        return self._load().get(canonical_key(request))

    def put(self, request: dict, value: Fraction) -> None:
        if not self.enabled:
            return
        key = canonical_key(request)
        index = self._load()
        if key in index:
            return
        index[key] = value
        rec = {
            "key_hash": key,
            "request": request,
            "value_numerator": str(value.numerator),
            "value_denominator": str(value.denominator),
            "engine_version": ENGINE_VERSION,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                try:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                    fh.flush()
                finally:
                    fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError:
            self.enabled = False

    def fetch(self, request: dict, compute) -> Fraction:
        """Return the cached value or compute, store and return it."""
        hit = self.get(request)
        if hit is not None:
            return hit
        value = compute()
        self.put(request, value)
        return value


def default_cache() -> ResultCache:
    return ResultCache()
