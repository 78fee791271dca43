"""``repro store`` — inspect and maintain the content-addressed cache.

Subcommands::

    repro store status [--cache-dir PATH]
    repro store gc     [--cache-dir PATH] [--max-bytes SIZE]
                       [--max-age-days N] [--dry-run]
    repro store prune  [--cache-dir PATH]

``status`` reports entry count, on-disk footprint, and journaled runs.
``gc`` evicts least-recently-used entries until the store fits the
given bounds (it never runs implicitly — an unbounded cache is the
default, per docs/orchestration.md).  ``prune`` deletes corrupt or
foreign files that ``get`` would reject anyway.

Every entry is a pure function of its key, so eviction is always safe:
the worst case is recomputing an evicted shard on the next run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.journal import list_runs
from repro.experiments.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = ["main", "parse_size"]

_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": 1024,
    "M": 1024**2,
    "G": 1024**3,
    "T": 1024**4,
}


def parse_size(text: str) -> int:
    """Parse a human byte size: ``500M``, ``2G``, ``1048576``, ``1.5G``."""
    raw = text.strip().upper().removesuffix("IB").removesuffix("B")
    suffix = raw[-1:] if raw[-1:] in "KMGT" else ""
    number = raw[: len(raw) - len(suffix)] if suffix else raw
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"not a size: {text!r} (try 500M, 2G, 1048576)")
    if value < 0:
        raise ValueError(f"size must be non-negative: {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


def format_size(n: int) -> str:
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    raise AssertionError("unreachable")


def _entry_bytes(store: ResultStore) -> int:
    return sum(path.stat().st_size for path in store.entry_files())


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    keys = store.keys()
    print(f"store: {store.root}")
    print(f"entries: {len(keys)} ({format_size(_entry_bytes(store))})")
    stray = store.stray_files()
    if stray:
        print(f"stray files: {len(stray)} (clean with `repro store prune`)")
    runs = list_runs(store.root)
    if runs:
        print(f"runs: {len(runs)}")
        for run_id in runs:
            print(f"  {run_id}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_age_days is None:
        print(
            "nothing to do: give --max-bytes and/or --max-age-days "
            "(gc never runs with no bound)",
            file=sys.stderr,
        )
        return 2
    store = ResultStore(args.cache_dir)
    report = store.gc(
        max_bytes=args.max_bytes,
        max_age_days=args.max_age_days,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"{verb} {len(report.removed)} entries "
        f"({format_size(report.freed_bytes)}); "
        f"kept {report.kept} ({format_size(report.kept_bytes)})"
    )
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    removed = store.prune()
    print(f"pruned {len(removed)} invalid file(s) from {store.root}")
    return 0


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"result-store location (default {DEFAULT_CACHE_DIR})",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro store", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    status_parser = sub.add_parser(
        "status", help="entry count, footprint, and journaled runs"
    )
    _add_cache_dir(status_parser)
    status_parser.set_defaults(func=_cmd_status)

    gc_parser = sub.add_parser(
        "gc", help="evict least-recently-used entries to fit bounds"
    )
    _add_cache_dir(gc_parser)
    gc_parser.add_argument(
        "--max-bytes", metavar="SIZE", type=parse_size, default=None,
        help="keep the store under SIZE (e.g. 500M, 2G)",
    )
    gc_parser.add_argument(
        "--max-age-days", metavar="N", type=float, default=None,
        help="evict entries older than N days (vs. the newest entry)",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting",
    )
    gc_parser.set_defaults(func=_cmd_gc)

    prune_parser = sub.add_parser(
        "prune", help="delete corrupt/foreign files the store would reject"
    )
    _add_cache_dir(prune_parser)
    prune_parser.set_defaults(func=_cmd_prune)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
