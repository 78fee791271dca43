"""Repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload fast_tier|campaign_core|symmetry_scale
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Every pass runs in a fresh interpreter (worker.py), one at a time, so
each workload is a closed loop with a single client.  Passes repeat
while the next one is expected to end within ``--seconds`` (at least
:data:`MIN_PASSES`), and timings are reported as medians over passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of one traced pass, plus the tracing overhead
against untraced passes of the same run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch stores and span files go under ``.perfbench/``
in the checkout.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import METRICS  # noqa: E402

WORKLOADS = ("fast_tier", "campaign_core", "symmetry_scale")
MIN_PASSES = 3
#: Hard limit for one whole invocation; a pass still running then is
#: killed and the run fails.
DEADLINE_S = 170.0
END_TO_END = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    # A fixed hash seed and single-threaded BLAS make passes of one
    # workload do the same work in the same order.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--spawned", repr(spawned),
        "--tmp", str(tmp),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {args.workload} exceeded the time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"pass of {args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass of {args.workload} printed no result")
    return json.loads(lines[-1])


def _passes(args: argparse.Namespace, deadline: float, budget: float, minimum: int) -> list[dict]:
    started = time.monotonic()
    passes: list[dict] = []
    last = 0.0
    while len(passes) < minimum or time.monotonic() - started + last <= budget:
        t0 = time.monotonic()
        passes.append(_spawn(args, deadline))
        last = time.monotonic() - t0
    return passes


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _summary(passes: list[dict]) -> dict[str, list[float]]:
    return {key: [p[key] for p in passes] for key in ("wall_s", "warm_s", "setup_s", "peak_rss_mb")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    try:
        # Write the bytecode of every module now, so that no pass pays
        # for compiling it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            check=True, capture_output=True, timeout=120,
        )
        if args.trace:
            untraced = _passes(args, deadline, args.seconds / 2, 1)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = _spawn(args, deadline, "--trace", "--spans", str(spans_path))
            passes = untraced + [traced]
        else:
            passes = _passes(args, deadline, args.seconds, MIN_PASSES)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    passed = sum(p["passed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = passed == attempted and len(digests) == 1
    samples = _summary(passes)
    fingerprint = _fingerprint()

    if args.trace:
        layers = traced["layers"]
        layers["bench.trace_overhead_s"] = traced["wall_s"] - statistics.median(
            p["wall_s"] for p in untraced
        )
        values = {m.name: layers[m.name] for m in METRICS}
        units = {m.name: m.unit for m in METRICS}
    else:
        values = {key: statistics.median(samples[key]) for key in samples}
        values["success_rate"] = passed / attempted
        units = END_TO_END

    print(f"env: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace} checks={passed}/{attempted} "
          f"records_identical={len(digests) == 1}")
    for key, vals in samples.items():
        q1, q2, q3 = _quartiles(vals)
        print(f"  {key:<12} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(vals)}")
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": fingerprint, "passes": passes,
    }
    with open(out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
