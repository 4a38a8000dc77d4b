"""Store mechanics and robustness: the cache must never crash a compile.

Covers the ISSUE-3 robustness matrix: corrupted and truncated artifact
files, concurrent writers racing on one key, LRU eviction under a tiny
size budget, and key canonicalization.
"""

import json
import multiprocessing
import time

import pytest

from repro.cache import ArtifactCache, artifact_key, canonical_payload
from repro.cache.store import CacheKeyError


def key_of(i: int) -> str:
    return artifact_key("test", index=i)


class TestKeys:
    def test_deterministic(self):
        assert artifact_key("k", a=1, b="x") == artifact_key("k", b="x", a=1)

    def test_distinct_inputs_distinct_keys(self):
        seen = {
            artifact_key("k", a=1),
            artifact_key("k", a=2),
            artifact_key("k2", a=1),
            artifact_key("k", a=1, b=None),
        }
        assert len(seen) == 4

    def test_canonical_payload_carries_versions(self):
        payload = json.loads(canonical_payload("k", {"a": 1}))
        assert payload["kind"] == "k"
        assert "repro_version" in payload and "cache_version" in payload

    def test_bad_key_rejected(self, tmp_path):
        store = ArtifactCache(tmp_path)
        with pytest.raises(CacheKeyError):
            store.get("../escape")
        with pytest.raises(CacheKeyError):
            store.get("")


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(0)
        assert store.get(k) is None
        store.put(k, {"a.txt": "alpha", "b.bin": b"\x00\xff"})
        assert store.get_bytes(k, "a.txt").decode() == "alpha"
        assert store.get_bytes(k, "b.bin") == b"\x00\xff"
        assert store.stats.hits == 2 and store.stats.misses == 1
        assert store.stats.stores == 1

    def test_meta_recorded(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(1)
        store.put(k, {"x": "data"}, meta={"kind": "test", "name": "x"})
        entry = store.get(k)
        assert entry.meta["kind"] == "test"
        assert entry.files == {"x": 4}

    def test_put_is_idempotent_and_race_safe(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(3)
        store.put(k, {"f": "one"})
        # Second writer of the same content-addressed key: first wins,
        # nothing breaks, the entry stays readable.
        store.put(k, {"f": "one"})
        assert store.get_bytes(k, "f").decode() == "one"
        assert store.entry_count() == 1

    def test_no_partial_entries_left_in_tmp(self, tmp_path):
        store = ArtifactCache(tmp_path)
        store.put(key_of(4), {"f": "data"})
        leftovers = list(store.tmp_dir.glob("*")) if store.tmp_dir.exists() else []
        assert leftovers == []


class TestCorruption:
    """A bad entry is a miss + cleanup, never an exception."""

    def test_corrupt_meta_json(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(5)
        entry = store.put(k, {"f": "data"})
        (entry.path / "meta.json").write_text("{not json")
        assert store.get(k) is None
        assert store.stats.errors == 1
        assert not entry.path.exists()  # dropped, will be recompiled
        # And the slot is reusable:
        store.put(k, {"f": "data"})
        assert store.get_bytes(k, "f").decode() == "data"

    def test_truncated_blob(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(6)
        entry = store.put(k, {"f": "0123456789"})
        (entry.path / "f").write_text("0123")  # truncated on disk
        assert store.get(k) is None
        assert store.stats.errors == 1

    def test_missing_blob(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(7)
        entry = store.put(k, {"f": "data", "g": "more"})
        (entry.path / "g").unlink()
        assert store.get(k) is None

    def test_missing_meta(self, tmp_path):
        store = ArtifactCache(tmp_path)
        k = key_of(8)
        entry = store.put(k, {"f": "data"})
        (entry.path / "meta.json").unlink()
        assert store.get(k) is None


class TestEviction:
    def test_size_bounded_lru(self, tmp_path):
        store = ArtifactCache(tmp_path, max_bytes=600)
        for i in range(6):
            store.put(key_of(i), {"f": "x" * 150})
            time.sleep(0.01)  # distinct mtimes for deterministic LRU order
        assert store.stats.evictions > 0
        assert store.total_bytes() <= 600
        # Newest entries survive, oldest are gone.
        assert store.get(key_of(5)) is not None
        assert store.get(key_of(0)) is None

    def test_hit_refreshes_lru_position(self, tmp_path):
        store = ArtifactCache(tmp_path, max_bytes=10_000)
        for i in range(3):
            store.put(key_of(i), {"f": "x" * 150})
            time.sleep(0.01)
        assert store.get(key_of(0)) is not None  # touch the oldest
        time.sleep(0.01)
        store.max_bytes = 600
        store.put(key_of(9), {"f": "x" * 150})  # forces eviction
        assert store.get(key_of(0)) is not None  # refreshed: survived
        assert store.get(key_of(1)) is None  # now-oldest: evicted

    def test_unbounded_when_none(self, tmp_path):
        store = ArtifactCache(tmp_path, max_bytes=None)
        for i in range(5):
            store.put(key_of(i), {"f": "x" * 1000})
        assert store.stats.evictions == 0
        assert store.entry_count() == 5


def _hammer(root: str, worker: int, rounds: int) -> None:
    """Child process: race puts and gets on a shared set of keys."""
    store = ArtifactCache(root)
    for r in range(rounds):
        for i in range(4):
            k = key_of(i)
            payload = f"content-{i}" * 20  # same content per key everywhere
            store.put(k, {"f.txt": payload})
            got = store.get_bytes(k, "f.txt")
            assert got is None or got.decode() == payload, (worker, r, i, got)


class TestConcurrentWriters:
    def test_two_processes_same_keys(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer, args=(str(tmp_path), w, 10))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # Exactly one complete entry per key, every one readable.
        store = ArtifactCache(tmp_path)
        assert store.entry_count() == 4
        for i in range(4):
            assert store.get_bytes(key_of(i), "f.txt").decode() == f"content-{i}" * 20
        assert store.stats.errors == 0


class TestStatsDict:
    def test_metrics_shape(self, tmp_path):
        store = ArtifactCache(tmp_path, max_bytes=123)
        store.put(key_of(0), {"f": "x"})
        stats = store.stats_dict()
        assert set(stats) == {
            "hits", "misses", "stores", "evictions", "errors",
            "entries", "bytes", "max_bytes", "dir",
        }
        assert stats["entries"] == 1 and stats["max_bytes"] == 123
