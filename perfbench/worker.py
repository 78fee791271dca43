"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  A fresh process
per pass keeps every in-process cache of ``repro`` cold, as in a CLI
call, and makes ``ru_maxrss`` the peak of this pass alone.

``--trace`` wraps the ``repro`` layers first (see spans.py), records
spans during the setup, cold and warm phases, writes them to
``--spans`` and adds the per-layer metrics to the output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import tempfile
import time
from pathlib import Path

#: Warm passes repeat until this much time is spent (at least one;
#: exactly one in a traced run).
WARM_BUDGET_S = 1.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the parent spawned us")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder)

    import workloads

    def phase(name: str):
        if recorder is None:
            return contextlib.nullcontext()
        return recorder.phase(f"{args.workload}/{args.seed}/{name}")

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        with phase("setup"):
            workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_s = time.monotonic() - args.spawned

        with phase("cold"):
            t0 = time.perf_counter()
            result = workload.run()
            wall_s = time.perf_counter() - t0
        units = workload.check(result)
        digest = workload.digest(result)

        workload.prepare_warm(result)
        warm_times: list[float] = []
        budget = time.perf_counter() + WARM_BUDGET_S
        while not warm_times or (recorder is None and time.perf_counter() < budget):
            with phase("warm"):
                t0 = time.perf_counter()
                warm = workload.warm()
                warm_times.append(time.perf_counter() - t0)
            units.append(workload.check_warm(result, warm))
            del warm  # one warm result alive at a time, as in a CLI re-run

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_s": statistics.median(warm_times),
        "warm_passes": len(warm_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed": sum(bool(unit) for unit in units),
        "attempted": len(units),
        "digest": digest,
    }
    if recorder is not None:
        out["layers"] = spans.layer_metrics(recorder)
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
