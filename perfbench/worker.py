"""Runs one workload in a process of its own and prints its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this process, so that the process's peak resident size
belongs to one workload.  It runs whole rounds of operations until
``--seconds`` have passed (at least ``MIN_ROUNDS``).  With ``--trace 1``
each operation runs once without and once with every layer's public
functions wrapped in spans, and the trainer probes run afterwards.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ROUNDS = 3

# Span self times reported per operation, by span name.
SPAN_METRICS = (
    "trainer.train",
    "network.forward_batch",
    "network.frozen_forward_batch",
    "network.init_network",
    "reference.infinite_forward_batch",
    "reference.sample_reference",
    "reference.gap_experiment",
    "distributions.sample",
    "distributions.evaluator",
    "distributions.population_risk",
    "metrics.risk_breakdown",
    "interpolation.sorted_sample",
    "interpolation.one_nn_rule",
    "interpolation.knn_rule",
    "interpolation.wrong_pairs",
    "interpolation.excess_zero_one_exact",
    "harness.run_experiment",
)
# Work counts reported per operation.
COUNT_METRICS = (
    "trainer.steps",
    "trainer.gmac",
    "network.forward_batch.rows",
    "reference.infinite_forward_batch.calls",
    "reference.infinite_forward_batch.repeat_calls",
    "reference.mc_products",
    "distributions.sample.points",
    "interpolation.points",
)
PROBE_METRICS = ("trainer.gd_step_ms", "trainer.frozen_pass_ms", "trainer.ref_pass_ms")


def _call(call):
    t0 = time.perf_counter()
    try:
        output, error = call(), None
    except Exception as exc:  # counted as a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, time.perf_counter() - t0, error


def run_ops(wl, ctx, seconds, tracer=None):
    """Whole rounds of operations until ``seconds`` have passed.

    Each output is checked as soon as its operation returns, outside the
    timed call, and then dropped, so memory does not grow with the number
    of operations.  With a tracer every operation also runs with spans
    installed; which of the two runs first alternates from one operation to
    the next.  Returns the untraced and the traced records
    (k, seconds, error, fingerprint) and the check failures.
    """
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    k = 0
    while not (
        k % wl.round_size == 0
        and k >= MIN_ROUNDS * wl.round_size
        and time.perf_counter() - start >= seconds
    ):
        order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
        for with_spans in order:
            inputs, call = wl.prepare(ctx, k)
            if with_spans:
                tracer.install()
            try:
                output, elapsed, error = _call(call)
            finally:
                if with_spans:
                    tracer.uninstall()
            fingerprint = None
            if error is None:
                try:
                    messages = wl.check(ctx, inputs, output)
                    fingerprint = wl.fingerprint(output)
                except Exception as exc:  # a malformed output fails its check
                    messages = [f"check raised {type(exc).__name__}: {exc}"]
                failures += [f"op {k}: {msg}" for msg in messages]
            (traced if with_spans else plain).append((k, elapsed, error, fingerprint))
        k += 1
    return plain, traced, failures


def layer_metrics(wl, ctx, tracer, plain, traced):
    """Per-operation layer figures of the traced runs, and the probes."""
    ops = len(traced)
    self_times = tracer.self_times()
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.self_s"] = self_times.get(name, (0, 0.0, 0.0))[1] / ops
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0.0) / ops
    train_s = self_times.get("trainer.train", (0, 0.0, 0.0))[2]
    out["trainer.gmac_per_s"] = tracer.counts.get("trainer.gmac", 0.0) / train_s if train_s else 0.0
    probes = wl.probes(ctx) if hasattr(wl, "probes") else {}
    for name in PROBE_METRICS:
        out[name] = probes.get(name, 0.0)
    out["trace.overhead_s"] = statistics.median(t[1] - p[1] for p, t in zip(plain, traced))
    return out


def measure(wl, ctx, seconds, trace, trace_path=None):
    tracer = Tracer() if trace else None
    plain, traced, failures = run_ops(wl, ctx, seconds, tracer)
    result = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_seconds": [r[1] for r in plain],
    }
    if trace:
        for p, t in zip(plain, traced):
            if p[3] != t[3]:
                failures.append(f"op {p[0]}: traced output differs from untraced")
        self_times = tracer.self_times()
        traced_s = sum(r[1] for r in traced)
        result["per_layer"] = layer_metrics(wl, ctx, tracer, plain, traced)
        result["module_share"] = {k: v / traced_s for k, v in sorted(tracer.module_self_times().items())}
        result["dominant"] = wl.dominant
        result["span_counts"] = {k: v[0] for k, v in sorted(self_times.items())}
        if trace_path is not None:
            trace_path.parent.mkdir(exist_ok=True)
            spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]
            trace_path.write_text(json.dumps({"workload": wl.name, "spans": spans, **result}))
    records = plain + traced
    result.update(
        attempted=len(records),
        failed=sum(r[2] is not None for r in records),
        errors=sorted({r[2] for r in records if r[2] is not None}),
        correct=not failures,
        check_failures=failures[:20],
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import envinfo
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    ctx = wl.setup(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    trace_path = ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json"
    result = measure(wl, ctx, args.seconds, args.trace, trace_path if args.trace else None)
    result["ready"] = ready
    result["env"] = envinfo.collect()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
