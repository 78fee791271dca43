"""Bounded store GC and the ``repro store`` CLI.

``gc`` evicts LRU by mtime under explicit bounds and never runs
implicitly.
"""

import os

import pytest

from repro.experiments.store import ResultStore
from repro.experiments.store_cli import main as store_cli_main
from repro.experiments.store_cli import parse_size


def _fill(store: ResultStore, count: int) -> list[str]:
    keys = []
    for i in range(count):
        key = f"{i:064x}"
        store.put(key, {"value": i})
        keys.append(key)
    return keys


class TestGc:
    def _age(self, store: ResultStore, key: str, days: float) -> None:
        path = store.path_for(key)
        stamp = path.stat().st_mtime - days * 86400.0
        os.utime(path, (stamp, stamp))

    def test_gc_without_bounds_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        _fill(store, 3)
        report = store.gc()
        assert report.removed == [] and report.kept == 3

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 4)
        for i, key in enumerate(keys):
            self._age(store, key, days=len(keys) - i)  # keys[0] oldest
        entry_size = store.path_for(keys[0]).stat().st_size
        report = store.gc(max_bytes=2 * entry_size + 1)
        assert report.removed == sorted(keys[:2])
        assert store.get(keys[0]) is None and store.get(keys[3]) is not None
        assert report.kept == 2 and report.kept_bytes <= 2 * entry_size + 2

    def test_max_age_is_relative_to_newest_entry(self, tmp_path):
        # `now` defaults to the newest mtime, so GC is a pure function
        # of directory state (no wall-clock read — REPRO105).
        store = ResultStore(tmp_path)
        keys = _fill(store, 3)
        self._age(store, keys[0], days=10)
        self._age(store, keys[1], days=4)
        report = store.gc(max_age_days=7)
        assert report.removed == [keys[0]]
        assert sorted(store.keys()) == sorted(keys[1:])

    def test_explicit_now_overrides(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 2)
        newest = store.path_for(keys[1]).stat().st_mtime
        report = store.gc(max_age_days=1, now=newest + 3 * 86400.0)
        assert sorted(report.removed) == sorted(keys)

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = _fill(store, 3)
        report = store.gc(max_bytes=0, dry_run=True)
        assert report.dry_run and sorted(report.removed) == sorted(keys)
        assert len(store.keys()) == 3


class TestStoreCli:
    def test_parse_size(self):
        assert parse_size("1048576") == 1024**2
        assert parse_size("500M") == 500 * 1024**2
        assert parse_size("2G") == 2 * 1024**3
        assert parse_size("1.5K") == 1536
        assert parse_size("10KiB") == 10240
        with pytest.raises(ValueError):
            parse_size("lots")
        with pytest.raises(ValueError):
            parse_size("-1M")

    def test_status_gc_prune_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        store = ResultStore(cache)
        keys = _fill(store, 3)
        (store.path_for(keys[0]).parent / ".junk.tmp").write_text("x")

        assert store_cli_main(["status", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out and "stray files: 1" in out

        assert store_cli_main(["prune", "--cache-dir", cache]) == 0
        assert "pruned 1" in capsys.readouterr().out

        assert (
            store_cli_main(
                ["gc", "--cache-dir", cache, "--max-bytes", "0", "--dry-run"]
            )
            == 0
        )
        assert "would remove 3" in capsys.readouterr().out
        assert len(store.keys()) == 3

        assert store_cli_main(["gc", "--cache-dir", cache]) == 2  # no bound
        assert "nothing to do" in capsys.readouterr().err
