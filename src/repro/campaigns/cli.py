"""``repro campaign`` — run, list, and replay randomized campaigns.

Subcommands::

    repro campaign run [NAME ...] [--tier T] [--jobs N] [--seed S]
                       [--cache-dir PATH | --no-cache]
                       [--artifacts DIR] [--resume [RUN_ID]]
                       [--max-retries N] [--shard-timeout S]
    repro campaign list
    repro campaign status RUN_ID [--cache-dir PATH]
    repro campaign replay ARTIFACT.json

``run`` executes the selected campaigns (default: all) through the
sharded orchestrator — ``--jobs`` and the content-addressed cache
behave exactly as for ``python -m repro`` — and writes one replay
artifact per failing cell.  Each cached run is journaled;
``--resume`` re-attaches to a killed run and recomputes nothing it
completed, and ``status`` shows a run's completed/leased/quarantined
ledger (live or post-mortem).  ``replay`` re-executes a failure from
its artifact alone; exit status 1 means the failure still reproduces,
0 means the underlying bug no longer manifests.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.campaigns.artifacts import (
    DEFAULT_ARTIFACT_DIR,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from repro.campaigns.checks import CHECKS
from repro.campaigns.registry import CAMPAIGNS, get_campaign
from repro.experiments.journal import list_runs
from repro.experiments.orchestrator import journal_status, run_suite
from repro.experiments.queue import DEFAULT_MAX_RETRIES
from repro.experiments.scenarios import TIERS
from repro.experiments.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.campaigns import driver

    print(f"{'campaign':<18} {'cells (smoke/fast/full/stress)':<32} checks")
    for name, spec in CAMPAIGNS.items():
        counts = "/".join(
            str(len(driver.make_shards(spec.config(tier)))) for tier in TIERS
        )
        checks = sorted({c for t in spec.tiers.values() for c in t["checks"]})
        kinds = sorted({CHECKS[c].kind for c in checks})
        print(
            f"{name:<18} {counts:<32} "
            f"{len(checks)} checks ({', '.join(kinds)})"
        )
    print()
    print("checks:")
    for check_id, check in CHECKS.items():
        print(f"  {check_id:<30} {check.doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = [get_campaign(name) for name in (args.campaigns or CAMPAIGNS)]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.resume is not None and args.no_cache:
        print("--resume needs the journal; drop --no-cache", file=sys.stderr)
        return 2
    store = None if args.no_cache else ResultStore(args.cache_dir)
    started = time.perf_counter()
    runs = run_suite(
        specs,
        tier=args.tier,
        seed=args.seed,
        jobs=args.jobs,
        store=store,
        max_retries=args.max_retries,
        shard_timeout=args.shard_timeout,
        run_id=args.resume or None,
        resume=args.resume is not None,
    )
    elapsed = time.perf_counter() - started
    failures = 0
    for run in runs:
        print(run.record.to_text())
        for outcome in run.shards:
            for artifact in (outcome.result or {}).get("failures", []):
                failures += 1
                path = write_artifact(artifact, args.artifacts)
                print(
                    f"FAILED cell {artifact['check']} on "
                    f"{artifact['graph_spec']} -> {path}"
                )
        print(
            f"({run.seconds:.1f}s, cells {run.shards_cached}/"
            f"{len(run.shards)} cached)\n"
        )
    total = sum(len(run.shards) for run in runs)
    computed = sum(run.shards_computed for run in runs)
    quarantined = sum(run.shards_quarantined for run in runs)
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(
        f"cells: total={total} recomputed={computed} "
        f"cached={total - computed - quarantined} failures={failures} "
        f"({elapsed:.1f}s, {rate:.1f} cells/s, tier={args.tier}, "
        f"jobs={args.jobs})"
    )
    if runs and runs[0].run_id:
        print(
            f"run id: {runs[0].run_id} "
            f"(status/resume with `repro campaign status {runs[0].run_id}` "
            "/ `repro campaign run --resume ...`)"
        )
    if quarantined:
        print(
            f"WARNING: {quarantined} quarantined cell(s); replay with "
            "`python -m repro --replay-shard "
            f"{args.cache_dir}/runs/<run-id>/quarantine/shard-*.json`"
        )
    if failures:
        print(
            f"{failures} failing cell(s); replay with "
            f"`repro campaign replay {args.artifacts}/replay-*.json`"
        )
    return 1 if failures or quarantined else 0


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    try:
        state, rows = journal_status(store, args.run_id)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        runs = list_runs(store.root)
        if runs:
            print(f"known runs: {', '.join(runs)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"corrupt journal: {exc}", file=sys.stderr)
        return 2
    totals = state.counts()
    print(
        f"run {state.run_id} tier={state.tier} seed={state.seed} "
        f"resumes={state.resumes}"
        + (" [truncated tail dropped]" if state.truncated_tail else "")
    )
    header = (
        f"{'experiment':<18} {'completed':>9} {'cached':>7} {'leased':>7} "
        f"{'quarantined':>11} {'pending':>8}"
    )
    print(header)
    for exp_id, counts in rows:
        print(
            f"{exp_id:<18} "
            f"{counts['completed']:>4}/{counts['planned']:<4} "
            f"{counts['cached']:>7} {counts['leased']:>7} "
            f"{counts['quarantined']:>11} {counts['pending']:>8}"
        )
    print(
        f"TOTAL: {totals['completed']}/{totals['planned']} completed, "
        f"{totals['leased']} leased, {totals['quarantined']} quarantined, "
        f"{totals['pending']} pending"
    )
    return 0 if totals["quarantined"] == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        artifact = load_artifact(args.artifact)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifact: {exc}", file=sys.stderr)
        return 2
    print(
        f"replaying {artifact['check']} on {artifact['graph_spec']} "
        f"(seed {artifact['seed']})"
    )
    if artifact.get("detail"):
        print(f"recorded failure: {artifact['detail']}")
    result = replay_artifact(artifact)
    if result.ok:
        print(
            f"check PASSED ({result.comparisons} comparisons) — the "
            "recorded failure no longer reproduces"
        )
        return 0
    print(f"check FAILED (reproduced): {result.detail}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro campaign", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="execute campaigns through the sharded orchestrator"
    )
    run_parser.add_argument(
        "campaigns", nargs="*", help=f"campaign names (default all: {sorted(CAMPAIGNS)})"
    )
    run_parser.add_argument(
        "--tier", choices=TIERS, default="smoke",
        help="scale tier (default smoke)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cell execution (default 1 = serial)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the campaign base seed (new grid, fresh cache keys)",
    )
    run_parser.add_argument(
        "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"result-store location (default {DEFAULT_CACHE_DIR})",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result store (recompute every cell)",
    )
    run_parser.add_argument(
        "--artifacts", metavar="DIR", default=DEFAULT_ARTIFACT_DIR,
        help=f"replay-artifact directory (default {DEFAULT_ARTIFACT_DIR})",
    )
    run_parser.add_argument(
        "--resume", nargs="?", const="", default=None, metavar="RUN_ID",
        help="re-attach to a journaled run (default: the run id this "
        "same invocation derives) and recompute nothing it completed",
    )
    run_parser.add_argument(
        "--max-retries", type=int, default=DEFAULT_MAX_RETRIES, metavar="N",
        help="re-lease a failing cell N times before quarantining it "
        f"(default {DEFAULT_MAX_RETRIES})",
    )
    run_parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="with --jobs >= 2, expire a cell lease after SECONDS and "
        "re-lease it; the expired worker is not killed, so a hung cell "
        "still blocks the run (default: no deadline)",
    )
    run_parser.set_defaults(func=_cmd_run)

    list_parser = sub.add_parser(
        "list", help="list campaigns, grid sizes, and the check registry"
    )
    list_parser.set_defaults(func=_cmd_list)

    status_parser = sub.add_parser(
        "status", help="show a journaled run's shard ledger"
    )
    status_parser.add_argument("run_id", help="run id (printed by `run`)")
    status_parser.add_argument(
        "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"result-store location (default {DEFAULT_CACHE_DIR})",
    )
    status_parser.set_defaults(func=_cmd_status)

    replay_parser = sub.add_parser(
        "replay", help="re-execute one failure from its replay artifact"
    )
    replay_parser.add_argument("artifact", help="path to a replay-*.json file")
    replay_parser.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        run_parser.error("--jobs must be >= 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
