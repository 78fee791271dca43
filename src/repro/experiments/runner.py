"""Experiment CLI: sharded runs, tiers, caching, EXPERIMENTS.md.

``python -m repro [exp_id ...]`` (or ``python -m
repro.experiments.runner``) runs the selected experiments (default:
all) through the orchestration layer and prints the regenerated
tables.  Highlights::

    --tier {smoke,fast,full,stress}   scale tier (default fast)
    --jobs N                          parallel shard workers
    --cache-dir PATH / --no-cache     content-addressed result store
    --resume [RUN_ID]                 re-attach to a journaled run
    --max-retries N / --shard-timeout S   lease discipline knobs
    --replay-shard ARTIFACT.json      re-execute a quarantined shard
    --list                            show scenarios and shard counts
    --shard-status                    cache occupancy per experiment
    --write-md PATH                   refresh the results file

``--full`` is kept as an alias for ``--tier full``.  See
docs/orchestration.md for the scenario/shard/cache model and the
work-queue (lease/journal/quarantine) layer underneath it.

``python -m repro campaign ...`` dispatches to the randomized
campaign subsystem (:mod:`repro.campaigns.cli`): declarative fuzz
grids of differential/metamorphic/statistical checks with shrunken
replay artifacts — see docs/campaigns.md.  ``python -m repro store
...`` maintains the result store (status/gc/prune,
:mod:`repro.experiments.store_cli`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from repro.experiments import (
    e_async_random,
    e_baselines,
    e_open_problem,
    e_fig1,
    e_hardness,
    e_infeasible,
    e_shrink,
    e_symm_rv,
    e_universal,
)
from repro.experiments.records import ExperimentRecord
from repro.experiments.orchestrator import (
    ExperimentRun,
    run_suite,
    shard_status,
    validate_experiment_ids,
)
from repro.experiments.queue import DEFAULT_MAX_RETRIES
from repro.experiments.scenarios import TIERS, all_scenarios, tier_for
from repro.experiments.store import DEFAULT_CACHE_DIR, ResultStore

__all__ = ["EXPERIMENTS", "run_all", "to_markdown", "main"]

#: Legacy registry: experiment id -> ``run(fast: bool)`` entry point.
#: New code should address experiments through
#: :mod:`repro.experiments.scenarios` / the orchestrator instead.
EXPERIMENTS: dict[str, Callable[[bool], ExperimentRecord]] = {
    "FIG1": e_fig1.run,
    "TAB-SHRINK": e_shrink.run,
    "EXP-L31": e_infeasible.run,
    "EXP-L32": e_symm_rv.run,
    "EXP-T31/P41": e_universal.run,
    "EXP-T41": e_hardness.run,
    "EXP-BASE/LE": e_baselines.run,
    "EXP-OPEN": e_open_problem.run,
    "EXP-ASYNC/RAND": e_async_random.run,
}


def run_all(
    fast: bool = True,
    only: list[str] | None = None,
    *,
    tier: str | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> list[tuple[ExperimentRecord, float]]:
    """Run experiments; returns ``(record, seconds)`` pairs.

    Every requested id is validated *before* any experiment executes,
    so a typo cannot burn the minutes of the experiments ahead of it.
    ``fast`` is the legacy knob; ``tier`` overrides it when given.
    """
    runs = run_suite(
        only,
        tier=tier or tier_for(fast),
        jobs=jobs,
        store=store,
    )
    return [(run.record, run.seconds) for run in runs]


def to_markdown(
    results: list[tuple[ExperimentRecord, float]],
    *,
    fast: bool = True,
    tier: str | None = None,
) -> str:
    """Assemble the EXPERIMENTS.md body from run results.

    Timings are deliberately omitted: the file must be byte-identical
    across ``--jobs`` settings and across warm-cache re-runs.
    """
    tier = tier or tier_for(fast)
    flag = "" if tier == "fast" else f" --tier {tier}"
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Regenerated by `python -m repro{flag} "
        "--write-md EXPERIMENTS.md`.  Absolute round counts depend on the",
        "tuned profile's constants (see README.md and "
        "docs/orchestration.md); the *shape* of each",
        "claim — feasibility verdicts, bounds respected, growth rates,",
        "orderings — is what the verdict column certifies.",
        "",
    ]
    for record, _seconds in results:
        lines.append(record.to_markdown())
    return "\n".join(lines)


def _print_scenarios() -> None:
    print(f"{'experiment':<15} {'shards (smoke/fast/full/stress)':<32} shard axis")
    for exp_id, spec in all_scenarios().items():
        counts = "/".join(
            str(len(spec.driver().make_shards(spec.config(tier))))
            for tier in TIERS
        )
        print(f"{exp_id:<15} {counts:<32} {spec.shard_axis}")


def _print_shard_status(ids, *, tier: str, store: ResultStore) -> None:
    print(f"tier={tier} cache={store.root}")
    total_cached = total = 0
    for exp_id, cached, count in shard_status(ids, tier=tier, seed=None, store=store):
        total_cached += cached
        total += count
        print(f"{exp_id:<15} {cached}/{count} shards cached")
    print(f"{'TOTAL':<15} {total_cached}/{total} shards cached")


def _replay_shard(artifact_path: str) -> int:
    """Re-execute one quarantined shard from its replay artifact."""
    from repro.experiments.queue import (
        load_quarantined_shard,
        replay_quarantined_shard,
    )

    try:
        artifact = load_quarantined_shard(artifact_path)
    except (OSError, ValueError) as exc:
        print(f"cannot load artifact: {exc}", file=sys.stderr)
        return 2
    print(
        f"replaying shard {artifact.get('key', '?')[:16]} of "
        f"{artifact.get('exp_id', '?')} "
        f"(module {artifact['module']}, {artifact.get('attempts', '?')} "
        "failed attempts recorded)"
    )
    if artifact.get("error"):
        print(f"recorded error: {artifact['error']}")
    try:
        result = replay_quarantined_shard(artifact_path)
    except Exception as exc:
        print(f"shard FAILED again: {type(exc).__name__}: {exc}")
        return 1
    print(
        "shard PASSED — the recorded failure no longer reproduces "
        f"(result keys: {sorted(result) if isinstance(result, dict) else '—'})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = sys.argv[1:] if argv is None else argv
        if args and args[0] == "campaign":
            # `repro campaign run|list|replay ...` — the randomized
            # campaign subsystem rides the same orchestrator but has
            # its own registry and artifact workflow.
            from repro.campaigns.cli import main as campaign_main

            return campaign_main(args[1:])
        if args and args[0] == "lint":
            # `repro lint [PATH ...]` — the static determinism/dtype
            # rules engine (docs/static_analysis.md); gates CI.
            from repro.analysis.cli import main as lint_main

            return lint_main(args[1:])
        if args and args[0] == "store":
            # `repro store status|gc|prune ...` — result-store
            # maintenance (docs/orchestration.md#store-maintenance).
            from repro.experiments.store_cli import main as store_main

            return store_main(args[1:])
        return _main(args)
    except BrokenPipeError:
        # e.g. `repro --list | head`: die quietly, like other CLIs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment ids (default all)")
    parser.add_argument(
        "--tier", choices=TIERS, default=None,
        help="scale tier (default fast)",
    )
    parser.add_argument(
        "--full", action="store_true", help="alias for --tier full"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for shard execution (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"result-store location (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result store (recompute every shard)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list scenarios, shard counts per tier, and shard axes",
    )
    parser.add_argument(
        "--shard-status", action="store_true",
        help="show cached/total shards per experiment, then exit",
    )
    parser.add_argument(
        "--resume", nargs="?", const="", default=None, metavar="RUN_ID",
        help="re-attach to a journaled run (default: the run id this "
        "same invocation derives) and recompute nothing it completed",
    )
    parser.add_argument(
        "--max-retries", type=int, default=DEFAULT_MAX_RETRIES, metavar="N",
        help="re-lease a failing shard N times before quarantining it "
        f"(default {DEFAULT_MAX_RETRIES})",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="with --jobs >= 2, expire a shard lease after SECONDS and "
        "re-lease it; the expired worker is not killed, so a hung shard "
        "still blocks the run (default: no deadline)",
    )
    parser.add_argument(
        "--replay-shard", metavar="ARTIFACT", default=None,
        help="re-execute a quarantined shard from its artifact, then exit "
        "(exit 1 if the failure still reproduces)",
    )
    parser.add_argument("--write-md", metavar="PATH", help="write EXPERIMENTS.md")
    parser.add_argument(
        "--write-json", metavar="PATH", help="write machine-readable results"
    )
    args = parser.parse_args(argv)

    if args.replay_shard is not None:
        return _replay_shard(args.replay_shard)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.resume is not None and args.no_cache:
        parser.error("--resume needs the journal; drop --no-cache")
    if args.full and args.tier is not None:
        parser.error("--full is an alias for --tier full; drop one of the two")
    tier = args.tier or ("full" if args.full else "fast")
    only = args.experiments or None

    if args.list_scenarios:
        _print_scenarios()
        return 0

    store = None if args.no_cache else ResultStore(args.cache_dir)

    if args.shard_status:
        if store is None:
            parser.error("--shard-status requires the cache (drop --no-cache)")
        validate_experiment_ids(only)
        _print_shard_status(only, tier=tier, store=store)
        return 0

    started = time.perf_counter()
    runs: list[ExperimentRun] = run_suite(
        only,
        tier=tier,
        jobs=args.jobs,
        store=store,
        max_retries=args.max_retries,
        shard_timeout=args.shard_timeout,
        run_id=args.resume or None,
        resume=args.resume is not None,
    )
    for run in runs:
        print(run.record.to_text())
        print(
            f"({run.seconds:.1f}s, shards {run.shards_cached}/"
            f"{len(run.shards)} cached)\n"
        )
    total = sum(len(run.shards) for run in runs)
    computed = sum(run.shards_computed for run in runs)
    quarantined = sum(run.shards_quarantined for run in runs)
    print(
        f"shards: total={total} recomputed={computed} "
        f"cached={total - computed - quarantined} "
        f"({time.perf_counter() - started:.1f}s, "
        f"tier={tier}, jobs={args.jobs})"
    )
    if runs and runs[0].run_id:
        print(f"run id: {runs[0].run_id} (resume with --resume)")
    if quarantined:
        print(
            f"WARNING: {quarantined} shard(s) quarantined; artifacts under "
            f"{store.root if store else '?'}/runs/<run-id>/quarantine/ — "
            "replay with --replay-shard"
        )

    results = [(run.record, run.seconds) for run in runs]
    if args.write_md:
        with open(args.write_md, "w") as fh:
            fh.write(to_markdown(results, tier=tier))
        print(f"wrote {args.write_md}")
    if args.write_json:
        import json

        payload = [
            {**record.to_json_dict(), "seconds": round(seconds, 3)}
            for record, seconds in results
        ]
        with open(args.write_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.write_json}")
    return 0 if all(r.passed for r, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
