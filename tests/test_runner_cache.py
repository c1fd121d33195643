"""Shard-indexed result cache: round trips, durability, accounting, GC."""

from __future__ import annotations

import json
import os

import pytest

from repro.runner.cache import INDEX_SCHEMA, ResultCache
from repro.runner.record import FAILURE_SCHEMA

KEY = "ab" + "0" * 62
KEY2 = "cd" + "1" * 62
RECORD = {"makespan": 1.5, "success": True}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _corrupt_entry(cache: ResultCache, key: str) -> None:
    """Scribble over the packed bytes of one entry on disk."""
    cache.sync()
    pack_rel, offset, length = cache._load_index()[key]
    path = os.path.join(cache.root, pack_rel)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(b"x" * min(length, 8))


def test_get_on_empty_cache_is_a_miss(cache):
    """Missing entries read as None and count as misses."""
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0


def test_put_then_get_round_trips(cache):
    """A stored record comes back exactly and counts as a hit."""
    cache.put(KEY, RECORD)
    assert cache.get(KEY) == RECORD
    assert cache.stats.puts == 1
    assert cache.stats.hits == 1


def test_entries_are_packed_and_indexed(cache):
    """Records append to a pack file; sync writes the manifest."""
    cache.put(KEY, RECORD)
    cache.sync()
    packs = os.listdir(os.path.join(cache.root, "packs"))
    assert len(packs) == 1 and packs[0].startswith("pack-")
    with open(cache.index_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[0] == {"schema": INDEX_SCHEMA}
    assert lines[1]["k"] == KEY
    assert lines[1]["p"] == os.path.join("packs", packs[0])


def test_cache_survives_reopen(cache):
    """A second process (fresh instance) reads synced entries."""
    cache.put(KEY, RECORD)
    cache.close()
    again = ResultCache(cache.root)
    assert again.get(KEY) == RECORD
    assert len(again) == 1


def test_corrupt_entry_reads_as_miss(cache):
    """Scribbled pack bytes are a miss + error, never an exception."""
    cache.put(KEY, RECORD)
    _corrupt_entry(cache, KEY)
    again = ResultCache(cache.root)
    assert again.get(KEY) is None
    assert again.stats.errors == 1
    assert again.stats.misses == 1


def test_corrupt_manifest_line_is_skipped(cache):
    """A truncated manifest line (crashed writer) loses only that entry."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, RECORD)
    cache.close()
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"k": "ef')  # torn final append
    again = ResultCache(cache.root)
    assert again.get(KEY) == RECORD
    assert again.get(KEY2) == RECORD
    assert again.stats.errors == 1  # the torn line


def test_entry_with_wrong_embedded_key_reads_as_miss(cache):
    """An entry whose embedded key mismatches its manifest key is rejected."""
    cache.put(KEY, RECORD)
    cache.sync()
    pack_rel, offset, length = cache._load_index()[KEY]
    # Point a different key's manifest line at KEY's bytes.
    with open(cache.index_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"k": KEY2, "p": pack_rel, "o": offset, "n": length}
        ) + "\n")
    cache.close()
    again = ResultCache(cache.root)
    assert again.get(KEY2) is None
    assert again.stats.errors == 1


def test_overwrite_replaces_entry(cache):
    """Re-putting a key replaces the stored record (last write wins)."""
    cache.put(KEY, RECORD)
    cache.put(KEY, {"makespan": 9.0, "success": False})
    assert cache.get(KEY)["makespan"] == 9.0
    assert len(cache) == 1
    # ... including across a reopen (manifest order decides).
    cache.close()
    assert ResultCache(cache.root).get(KEY)["makespan"] == 9.0


def test_get_many_batches_lookups(cache):
    """get_many returns every hit and counts stats per unique key."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, {"makespan": 2.0})
    missing = "ef" + "2" * 62
    out = cache.get_many([KEY, KEY2, KEY, missing])
    assert out == {KEY: RECORD, KEY2: {"makespan": 2.0}}
    assert cache.stats.hits == 2
    assert cache.stats.misses == 1


def test_len_is_manifest_count_not_a_walk(cache):
    """__len__ comes from the index; stray temp files don't count."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, RECORD)
    os.makedirs(cache.packs_path, exist_ok=True)
    with open(os.path.join(cache.packs_path, ".tmp-zzz.jsonl"), "w") as fh:
        fh.write("{}")
    assert len(cache) == 2


def test_unindexed_key_opens_no_file(cache, monkeypatch):
    """An index miss is a dict lookup: get and get_many open nothing."""
    cache.put(KEY, RECORD)
    cache.sync()
    assert cache.get(KEY) == RECORD  # the index is loaded from here on
    opened = []

    def refuse(*args, **kwargs):
        opened.append(args[0] if args else kwargs)
        raise AssertionError(f"unexpected open of {opened[-1]!r}")

    monkeypatch.setattr("builtins.open", refuse)
    monkeypatch.setattr(os, "open", refuse)
    assert cache.get(KEY2) is None
    assert cache.get_many([KEY2, "ef" + "2" * 62]) == {}
    assert opened == []
    assert cache.stats.misses == 3 and cache.stats.errors == 0


def test_mixed_hit_miss_corrupt_stats(tmp_path):
    """Hits, misses, corrupt entries and failure hits fold into CacheStats.

    Each lookup counts once: a hit (a cached failure also as a
    failure hit), a miss, or a corrupt entry as both an error and a miss.
    """
    root = str(tmp_path / "cache")
    failure = {"kind": FAILURE_SCHEMA, "error_type": "RuntimeError"}
    writer = ResultCache(root)
    writer.put(KEY, RECORD)
    writer.put(KEY2, RECORD)
    writer.put("ef" + "3" * 62, failure)
    _corrupt_entry(writer, KEY2)
    writer.close()

    cache = ResultCache(root)
    missing = ["01" + "4" * 62, "02" + "5" * 62]
    assert cache.get(KEY) == RECORD
    assert cache.get(missing[0]) is None
    out = cache.get_many([KEY, missing[0], KEY2, "ef" + "3" * 62, missing[1]])
    assert sorted(out) == sorted([KEY, "ef" + "3" * 62])
    assert cache.get(KEY2) is None
    assert cache.stats.as_dict() == {
        "hits": 3, "misses": 5, "puts": 0, "errors": 2, "failure_hits": 1,
    }


def test_clear_removes_everything_including_orphans(cache):
    """clear() empties packs, manifest and .tmp-* litter."""
    cache.put(KEY, RECORD)
    cache.put(KEY2, RECORD)
    cache.sync()
    orphan = os.path.join(cache.packs_path, ".tmp-dead.json")
    with open(orphan, "w") as fh:
        fh.write("{")
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get(KEY) is None
    assert not os.path.exists(orphan)
    assert not os.path.exists(cache.index_path)


def test_gc_tmp_removes_stale_temp_files(cache):
    """gc_tmp() reclaims crashed writers' temp files, nothing else."""
    cache.put(KEY, RECORD)
    cache.sync()
    stray = os.path.join(cache.root, ".tmp-index.jsonl")
    with open(stray, "w") as fh:
        fh.write("{}")
    assert cache.gc_tmp() == 1
    assert not os.path.exists(stray)
    assert cache.get(KEY) == RECORD


def test_evict_to_drops_oldest_packs(tmp_path):
    """Size-bounded eviction removes whole packs and rewrites the manifest."""
    cache = ResultCache(str(tmp_path / "cache"), pack_max_bytes=1)
    # pack_max_bytes=1 rotates after every put: one pack per entry.
    keys = [f"{i:02x}" + "f" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, {"makespan": float(i)})
    cache.close()
    assert len(os.listdir(cache.packs_path)) == 4
    evicted = cache.evict_to(0)
    assert evicted == 4
    assert len(cache) == 0
    # Manifest was rewritten, not deleted: reopen sees an empty cache.
    again = ResultCache(cache.root)
    assert len(again) == 0


def test_evict_to_partial_keeps_survivors_readable(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"), pack_max_bytes=1)
    keys = [f"{i:02x}" + "e" * 62 for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, {"makespan": float(i)})
    cache.close()
    sizes = sorted(
        os.path.getsize(os.path.join(cache.packs_path, f))
        for f in os.listdir(cache.packs_path)
    )
    evicted = cache.evict_to(sum(sizes[:2]))
    assert evicted == 2
    survivors = ResultCache(cache.root)
    assert len(survivors) == 2
    remaining = [k for k in keys if survivors.get(k) is not None]
    assert len(remaining) == 2


def test_sync_every_checkpoints_automatically(tmp_path):
    """Every sync_every-th put flushes the manifest without an explicit sync."""
    cache = ResultCache(str(tmp_path / "cache"), sync_every=2)
    cache.put(KEY, RECORD)
    assert not os.path.exists(cache.index_path)  # pending
    cache.put(KEY2, RECORD)
    fresh = ResultCache(cache.root)  # simulated crash: no close()
    assert len(fresh) == 2
    assert fresh.get(KEY) == RECORD


def test_unsynced_entries_lost_on_crash_simply_re_simulate(tmp_path):
    """Entries pending since the last sync read as misses after a crash."""
    cache = ResultCache(str(tmp_path / "cache"), sync_every=100)
    cache.put(KEY, RECORD)
    fresh = ResultCache(cache.root)  # crash before any sync
    assert fresh.get(KEY) is None
    assert fresh.stats.misses == 1


def test_len_of_nonexistent_root_is_zero(cache):
    """A cache that never wrote anything has no directory and length 0."""
    assert len(cache) == 0
    assert cache.clear() == 0
