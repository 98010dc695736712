"""shallowcal benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src``.  The workload runs in a worker process of its own (``worker.py``),
so the peak resident size reported is that workload's.  Set-up time is the
median over that worker and ``SETUP_SAMPLES`` processes that only set up:
each is timed from process start to the point where the first operation
would be timed.  BLAS and OpenMP threads are capped at the CPUs this process
may run on.

Prints an environment block, per-run details, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits non-zero without a result if the package source is
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("consistency-d2", "sphere-cap-d4", "reference-gap", "interp-lb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 8
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, cpus))
        except ValueError:
            wanted = cpus
        env[var] = str(min(max(wanted, 1), cpus))
    return env


def run_worker(args: list, env: dict, deadline: float):
    """Start a worker and return (start time, its last-line JSON)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return start, json.loads(lines[-1])


def report(res: dict, setups: list, trace: bool):
    print("# environment")
    for key, value in res["env"].items():
        print(f"  {key}: {value}")
    ops = res["op_seconds"]
    print(f"# {len(ops)} untraced operations, median {statistics.median(ops):.4f} s, "
          f"min {min(ops):.4f} s, max {max(ops):.4f} s")
    print(f"# set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# peak resident size: {res['peak_rss_mib']:.1f} MiB")
    if trace:
        print(f"# traced self time by module, share of traced operation time (expected to lead: {res['dominant']})")
        for module, share in sorted(res["module_share"].items(), key=lambda kv: -kv[1]):
            print(f"  {module}: {100 * share:.1f}%")
        print("# span counts: " + ", ".join(f"{k}={v}" for k, v in sorted(res["span_counts"].items())))
    print(f"# checked {res['attempted'] - res['failed']} outputs: " + ("all correct" if res["correct"] else "FAILED"))
    for line in res["check_failures"]:
        print(f"  {line}")
    for line in res["errors"]:
        print(f"  error: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shallowcal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if not (ROOT / "src" / "shallowcal" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a shallowcal checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    start, res = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    setups = [res["ready"] - start]
    for _ in range(SETUP_SAMPLES):
        start, ready = run_worker(common + ["--setup-only"], env, deadline)
        setups.append(ready["ready"] - start)

    report(res, setups, bool(args.trace))
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)} for name, value in res["per_layer"].items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(res["op_seconds"]), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("gmac_per_s"):
        return "GMAC/s"
    if name.endswith("gmac"):
        return "GMAC"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
