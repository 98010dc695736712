"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The oracles must agree with the program at tiny sizes, each workload's
checks must catch a perturbed output, and a traced run must record spans
for every layer its workload is meant to exercise.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from shallowcal.distributions import make_distribution, population_risk, sample  # noqa: E402
from shallowcal.interpolation import excess_zero_one_exact, one_nn_rule, sorted_sample  # noqa: E402
from shallowcal.network import augment_batch, forward_batch, freeze_features, frozen_forward_batch, init_network  # noqa: E402
from shallowcal.reference import affine_teacher, infinite_forward_batch  # noqa: E402
from shallowcal.trainer import empirical_risk  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "consistency-d2": {"n": 64, "cap": 256},
    "sphere-cap-d4": {"m": 64, "n": 128},
    "reference-gap": {"widths": (16, 64), "mc_features": 20_000},
    "interp-lb": {"n_grid": (1_000, 20_000), "trials": 1},
}


def test_regenerated_inputs_match_program():
    dist = make_distribution("step-smooth-1d")
    X, y = oracles.uniform_1d_sample(17, 300, -1.0, 1.0, oracles.step_smooth_p)
    samp = sample(dist, 300, 17)
    np.testing.assert_array_equal(X, samp.points)
    np.testing.assert_array_equal(y, samp.labels)

    X, y = oracles.sphere_cap_sample(18, 300, 4, 4.0)
    samp = sample(make_distribution("sphere-cap-teacher", d=4), 300, 18)
    np.testing.assert_array_equal(X, samp.points)
    np.testing.assert_array_equal(y, samp.labels)

    W0, signs = oracles.initial_network(19, 50, 3)
    net = init_network(50, 3, 0.5, 19)
    np.testing.assert_array_equal(W0, net.init_weights)
    np.testing.assert_array_equal(signs, net.signs)


def test_dense_margins_match_program():
    rng = np.random.default_rng(3)
    net = init_network(96, 2, 0.6, 4)
    net.weights += rng.standard_normal(net.weights.shape)
    samp = sample(make_distribution("step-smooth-1d"), 200, 5)
    X = augment_batch(samp.points)
    np.testing.assert_allclose(oracles.augment(samp.points), X, rtol=0, atol=0)
    f = oracles.margins(net.weights, net.signs, net.scale, X)
    np.testing.assert_allclose(f, forward_batch(net, X), rtol=1e-12, atol=1e-15)
    assert oracles.empirical_logistic_risk(f, samp.labels) == pytest.approx(
        empirical_risk(net, X, samp.labels), rel=1e-12
    )
    ff = freeze_features(net, at_init=True)
    np.testing.assert_allclose(
        oracles.frozen_margins(net.init_weights, net.weights, net.signs, net.scale, X),
        frozen_forward_batch(ff, net.weights, X),
        rtol=1e-12,
        atol=1e-15,
    )


def test_one_nn_cell_mass_matches_exact_integral():
    p = 0.75
    dist = make_distribution("constant-1d", p=p, lo=0.0, hi=1.0)
    samp = sample(dist, 300, 6)
    exact = excess_zero_one_exact(one_nn_rule(sorted_sample(samp.points[:, 0], samp.labels)), dist)
    mass = oracles.one_nn_minority_mass(samp.points[:, 0], samp.labels, 0.0, 1.0, -1.0)
    assert abs(2 * p - 1) * mass == pytest.approx(exact, rel=1e-12)


def test_closed_form_teacher_matches_monte_carlo():
    features = 50_000
    x = oracles.midpoints(-1.0, 1.0, 64)
    for theta, bias in ((4.0, 0.0), (0.0, 2.0)):
        model = affine_teacher([theta], bias=bias, mc_features=features, mc_seed=7)
        est, se = infinite_forward_batch(model, oracles.augment(x[:, None]))
        bound = np.abs(theta * x + bias) / math.sqrt(features)
        np.testing.assert_allclose(se, bound, rtol=0.05, atol=1e-12)
        assert np.all(np.abs(est - (theta * x + bias)) <= 4 * bound + 1e-12)


def test_midpoint_integral_matches_quadrature():
    dist = make_distribution("step-smooth-1d")
    mid = oracles.midpoint_risk(lambda x: 4.0 * x, oracles.step_smooth_p, -1.0, 1.0, 1 << 15)
    quad = population_risk(dist, lambda P: 4.0 * P[:, 0]).breakdown.logistic_risk
    assert mid == pytest.approx(quad, abs=1e-9)

    net = init_network(256, 2, 0.5, 8)
    mid = oracles.midpoint_risk(
        lambda x: oracles.margins(net.weights, net.signs, net.scale, oracles.augment(x[:, None])),
        oracles.step_smooth_p, -1.0, 1.0, 1 << 12,
    )
    quad = population_risk(dist, lambda P: forward_batch(net, augment_batch(P))).breakdown.logistic_risk
    assert mid == pytest.approx(quad, abs=1e-7)


def _perturbed(name, output):
    if name in ("consistency-d2", "sphere-cap-d4"):
        output.trajectory_summary["selected_emp_risk"] *= 1 + 1e-9
        return output
    if name == "reference-gap":
        return dataclasses.replace(output, frozen_risk=output.frozen_risk * (1 + 1e-9))
    rows, summary = output
    rows[0]["excess_z"] += 1e-6
    return rows, summary


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_catch_a_perturbed_output(name):
    wl = WORKLOADS[name](**TINY[name])
    ctx = wl.setup(11)
    inputs, call = wl.prepare(ctx, 0)
    output = call()
    assert wl.check(ctx, inputs, output) == []
    assert wl.check(ctx, inputs, _perturbed(name, output))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_records_every_layer(name):
    wl = WORKLOADS[name](**TINY[name])
    res = worker.measure(wl, wl.setup(5), seconds=0, trace=True)
    assert res["correct"], res["check_failures"]
    assert res["failed"] == 0 and res["attempted"] == 2 * worker.MIN_ROUNDS * wl.round_size
    missing = [layer for layer in wl.layers if res["span_counts"].get(layer, 0) == 0]
    assert not missing
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(res["per_layer"])
    if wl.dominant == "trainer":
        assert all(res["per_layer"][f"trainer.{p}_ms"] > 0 for p in ("gd_step", "frozen_pass"))


def test_benchmark_json_matches_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mib"}
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interp-lb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
