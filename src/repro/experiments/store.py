"""Content-addressed result store for experiment shards.

Every shard of every experiment is cached under a key that is the
SHA-256 of the canonical JSON of everything that determines its
result::

    {exp_id, tier, seed, params, shard, salt}

where ``salt`` combines the store's format version with the driver's
``code_version`` (bumped whenever a driver's semantics change).  A
cache hit therefore guarantees the stored payload is what the shard
would recompute; any change to the spec, the seed, the shard payload,
or the driver version changes the key and transparently invalidates
the entry.  Interrupted runs resume for free: completed shards are
already on disk, only missing ones recompute.

Entries are plain JSON files (``<root>/<key[:2]>/<key>.json``)
written atomically (:func:`write_atomic`: tempfile + ``os.replace``),
so a store survives crashes, a reader never observes a half-written
entry, and the cache can be inspected, diffed, or garbage-collected
with ordinary shell tools.  Reads are lock-free.  Quarantine and
campaign replay artifacts go through the same writer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.scenarios import RunConfig
from repro.util.encoding import canonical_json

__all__ = [
    "STORE_VERSION",
    "DEFAULT_CACHE_DIR",
    "write_atomic",
    "shard_key",
    "GcReport",
    "ResultStore",
]

#: Format version; participates in every key, so bumping it invalidates
#: the whole store at once.
STORE_VERSION = 1

#: Default on-disk location (relative to the invoking directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so a reader never sees a partial file.

    The text lands in a ``.<stem>-*.tmp`` file in the target directory
    (created if missing) and is moved into place with ``os.replace``;
    a crash leaves at most that temp file, which
    :meth:`ResultStore.prune` removes from the store.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def shard_key(config: RunConfig, shard: dict, code_version: int) -> str:
    """Content address of one shard result.

    The SHA-256 of ``canonical_json({exp_id, tier, seed, params, shard,
    salt})``, built without re-encoding the plan-wide head: the text
    starts with :attr:`RunConfig.key_prefix` (``exp_id`` and ``params``)
    and the remaining fields follow in sorted-key order.
    """
    text = (
        config.key_prefix
        + canonical_json(f"{STORE_VERSION}:{code_version}")
        + ',"seed":'
        + canonical_json(config.seed)
        + ',"shard":'
        + canonical_json(shard)
        + ',"tier":'
        + canonical_json(config.tier)
        + "}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or would do)."""

    removed: list[str] = field(default_factory=list)
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    dry_run: bool = False


class ResultStore:
    """Content-addressed JSON-on-disk cache of shard results."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the stored data payload, or None (missing/corrupt)."""
        try:
            text: str | None = self.path_for(key).read_text()
        except OSError:
            text = None
        entry = self._parse_entry(text, key)
        return None if entry is None else entry["data"]

    @staticmethod
    def _parse_entry(text: str | None, key: str) -> dict | None:
        """Parse and validate one entry's text against its claimed key."""
        if text is None:
            return None
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or "data" not in entry
        ):
            return None
        return entry

    def put(self, key: str, data: dict, meta: dict | None = None) -> None:
        """Persist one shard result atomically (tempfile + rename)."""
        entry = {"key": key, "meta": meta or {}, "data": data}
        write_atomic(self.path_for(key), json.dumps(entry, sort_keys=True))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> list[str]:
        """Keys of every *valid* entry, sorted.

        An on-disk ``*.json`` file only counts when :meth:`get` would
        serve it: it parses, carries its own key, matches its filename
        and bucket directory, and has a data payload.  Corrupt or
        foreign files therefore no longer inflate ``--shard-status``
        style occupancy reports; :meth:`prune` deletes them.
        """
        return sorted(key for key, _path in self._valid_entries())

    def entry_files(self) -> list[Path]:
        """Every candidate entry file (``??/*.json``), sorted."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def stray_files(self) -> list[Path]:
        """Leftover temp files from interrupted writes, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/.*.tmp"))

    def _valid_entries(self) -> list[tuple[str, Path]]:
        out = []
        for path in self.entry_files():
            key = path.stem
            if path != self.path_for(key):
                continue
            try:
                text: str | None = path.read_text()
            except OSError:
                text = None
            if self._parse_entry(text, key):
                out.append((key, path))
        return out

    def prune(self) -> list[Path]:
        """Delete files :meth:`get` would reject; returns what was removed.

        Covers corrupt/truncated entries, foreign ``*.json`` files
        (wrong name or misfiled bucket), and stale ``*.tmp`` files left
        behind by interrupted atomic writes.  Valid entries are
        untouched, so a prune never costs recomputation.
        """
        removed: list[Path] = []
        for path in self.entry_files():
            key = path.stem
            try:
                text: str | None = path.read_text()
            except OSError:
                text = None
            if path != self.path_for(key) or self._parse_entry(
                text, key
            ) is None:
                removed.append(path)
        removed.extend(self.stray_files())
        for path in removed:
            _unlink(path)
        return sorted(removed)

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Age/size-bounded garbage collection (LRU by mtime); default off.

        With ``max_age_days``, entries whose mtime is more than that
        many days behind ``now`` are removed.  With ``max_bytes``, the
        **oldest** entries are then evicted until the surviving valid
        entries fit the budget.  Both bounds may be combined; with
        neither, the pass is a no-op (a long-lived cache never
        self-destructs by accident).

        ``now`` defaults to the *newest entry's mtime* — ages are
        measured relative to the most recent write, not the wall clock,
        so a gc pass is a pure function of the directory state
        (replayable in tests, immune to clock skew on shared storage).
        Pass an explicit ``now`` (e.g. from the CLI) for calendar-time
        policies.  ``dry_run`` reports what would be removed without
        deleting.  Corrupt/foreign files are :meth:`prune`'s job, not
        gc's.
        """
        entries = []
        for key, path in self._valid_entries():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deleter
                continue
            entries.append((key, path, stat.st_size, stat.st_mtime))
        if not entries or (max_bytes is None and max_age_days is None):
            total = sum(size for _, _, size, _ in entries)
            return GcReport(kept=len(entries), kept_bytes=total, dry_run=dry_run)

        if now is None:
            now = max(mtime for _, _, _, mtime in entries)
        # Oldest first; path tie-break keeps eviction order deterministic.
        entries.sort(key=lambda e: (e[3], str(e[1])))
        doomed: list[tuple[str, Path, int, float]] = []
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            while entries and entries[0][3] < cutoff:
                doomed.append(entries.pop(0))
        if max_bytes is not None:
            kept_bytes = sum(size for _, _, size, _ in entries)
            while entries and kept_bytes > max_bytes:
                victim = entries.pop(0)
                kept_bytes -= victim[2]
                doomed.append(victim)
        if not dry_run:
            for _key, path, _size, _mtime in doomed:
                _unlink(path)
        return GcReport(
            removed=sorted(key for key, _, _, _ in doomed),
            freed_bytes=sum(size for _, _, size, _ in doomed),
            kept=len(entries),
            kept_bytes=sum(size for _, _, size, _ in entries),
            dry_run=dry_run,
        )

    def __len__(self) -> int:
        return len(self.keys())


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # pragma: no cover - racing deleter
        pass
