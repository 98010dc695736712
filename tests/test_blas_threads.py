"""Reported bits must not depend on the BLAS thread count.

OpenBLAS splits a long ``ddot`` (``a @ b`` on vectors, ``np.linalg.norm``)
across its threads, which changes the sum's last bits.  Each run below is
large enough for that split: m * d = 2^14 weights for the norms, and 2^14
Monte Carlo points for the population sums at d = 4.  The lemma checks'
radii are norms of m * d = 2^18 weights.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = r"""
import dataclasses, json
from shallowcal import harness

def hexes(obj):
    if isinstance(obj, dict):
        return {k: hexes(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexes(v) for v in obj]
    return obj.hex() if isinstance(obj, float) else obj

d2 = dataclasses.replace(
    harness.derive_consistency(512, 0.5, dist_name="step-smooth-1d", augment_bias=True, seed=3),
    m=1 << 13, n=256, t=2)
d4 = harness.derive_regime("clairvoyant", 0.5, dist_name="sphere-cap-teacher", dist_params={"d": 4},
                           seed=4, overrides={"m": 4096, "n": 256, "eps_gd": 1 / 24})
out = []
for cfg in (d2, d4):
    report = harness.run_experiment(cfg)
    out.append([report.to_dict(), [dataclasses.astuple(r) for r in report.trajectory.records]])
print(json.dumps(hexes(out)))
"""


def run_with_threads(threads: int, args: list) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def report_hexes(threads: int) -> list:
    return json.loads(run_with_threads(threads, ["-c", RUNS]))


def test_reports_are_bitwise_equal_with_one_and_two_blas_threads():
    one, two = report_hexes(1), report_hexes(2)
    for (report, records), (report2, records2) in zip(one, two):
        assert report["status"] == "ok"
        assert records == records2
        assert report == report2


def test_lemma_reports_are_byte_equal_with_one_and_two_blas_threads(tmp_path):
    for lemma in ("flip-count", "sphere-gap"):
        texts = []
        for threads in (1, 2):
            out = tmp_path / f"{lemma}-{threads}"
            run_with_threads(threads, ["-m", "shallowcal.cli", "lemma-check", "--lemma", lemma,
                                       "--m", "131072", "--seed", "3", "--out-dir", str(out)])
            texts.append((out / f"lemma_{lemma}.json").read_text())
        assert texts[0] == texts[1], lemma
