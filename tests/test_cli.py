import csv
import dataclasses
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shallowcal import diagnostics, harness, interpolation
from shallowcal.cli import build_parser, main
from shallowcal.diagnostics import LemmaCheckReport
from shallowcal.distributions import make_distribution, sample as draw_sample
from shallowcal.harness import derive_regime


@pytest.fixture
def small_config(tmp_path):
    cfg = derive_regime("clairvoyant", 0.5, seed=2, overrides={"m": 128, "n": 64})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_flat_dict()))
    return path


def read_trajectory(out: Path):
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    return rows, json.loads((out / "trajectory_meta.json").read_text())


class TestTrainCommand:
    def test_config_run_writes_report(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", str(small_config), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["monitors"]["smoothness_ok"] is True
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().strip()
        assert header == "iter,emp_risk,dist_init,grad_norm,smooth_resid,selected"
        meta = json.loads((out / "trajectory_meta.json").read_text())
        assert meta["status"] == "ok"
        printed = capsys.readouterr().out
        assert "root seed" in printed

    def test_trajectory_meta_keys(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", str(small_config), "--out-dir", str(out)]) == 0
        meta = json.loads((out / "trajectory_meta.json").read_text())
        assert list(meta) == ["eta", "t_max", "eps_gd", "r_gd", "seed", "rho", "n_examples",
                              "status", "selected_index", "monitors"]
        assert list(meta["monitors"]) == ["smoothness_ok", "regret_ok", "status"]

    def test_trajectory_csv_and_sidecar(self, tmp_path):
        cfg = derive_regime("clairvoyant", 0.5, seed=2, overrides={"m": 128, "n": 64, "eps_gd": 0.05})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_flat_dict()))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 0
        traj = harness.run_experiment(cfg).trajectory  # the same run, in memory

        rows, meta = read_trajectory(out)
        assert rows[0] == ["iter", "emp_risk", "dist_init", "grad_norm", "smooth_resid", "selected"]
        assert len(rows) == len(traj.records) + 1 == cfg.t + 2
        # 17 significant digits round-trip
        for row, rec in zip(rows[1:], traj.records):
            assert float(row[1]) == rec.emp_risk
            assert float(row[2]) == rec.dist_init
        assert [row[5] for row in rows[1:]] == [
            str(int(rec.index == traj.selected_index)) for rec in traj.records]
        assert [row[5] for row in rows[1:]].count("1") == 1

        assert meta["status"] == "ok"
        assert meta["selected_index"] == traj.selected_index
        assert meta["monitors"]["smoothness_ok"] is True
        assert meta["monitors"]["regret_ok"]["W0"] is True

    def test_diverged_run_selects_no_row(self, tmp_path):
        cfg = derive_regime("easy", 0.5, seed=2, overrides={"m": 16, "n": 8})
        cfg = dataclasses.replace(cfg, rho=1e8, eta=4e-16)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_flat_dict()))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 3
        rows, meta = read_trajectory(out)
        assert len(rows) > 1
        assert [row[5] for row in rows[1:]] == ["0"] * (len(rows) - 1)
        assert (meta["status"], meta["selected_index"], meta["r_gd"]) == ("diverged", None, "inf")

    @pytest.mark.parametrize("use_config", [False, True], ids=["preset", "config"])
    def test_negative_seed_is_refused_before_any_run(self, small_config, tmp_path, monkeypatch, capsys,
                                                     use_config):
        runs = []

        def record(cfg, **kw):
            runs.append(cfg)
            raise ValueError("recorded")

        monkeypatch.setattr(harness, "run_experiment", record)
        argv = ["train", *(["--config", str(small_config)] if use_config else []),
                "--out-dir", str(tmp_path / "out")]
        assert main([*argv, "--seed", "-1"]) == 1
        assert "argument --seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert runs == []
        assert main([*argv, "--seed", "4"]) == 1
        assert [cfg.seed for cfg in runs] == [4]

    def test_preset_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["train", "--regime", "clairvoyant", "--eps", "0.5", "--seed", "6",
             "--out-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 6

    def test_missing_config_is_error(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_config_that_is_a_directory_is_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: 7,  # not a JSON object
            lambda cfg: {**cfg, "width": 64},  # unknown key
            lambda cfg: {k: v for k, v in cfg.items() if k != "eta"},  # missing key
            lambda cfg: {**cfg, "rho": "large"},  # non-numeric number
            lambda cfg: {**cfg, "m": "128"},  # non-numeric integer
            lambda cfg: {**cfg, "dist_params": [1]},  # distribution parameters not an object
            lambda cfg: {**cfg, "dist_params": {"bogus": 1}},  # unknown distribution parameter
            lambda cfg: {**cfg, "dist_params": {"c": "2"}},  # distribution parameter not a number
            lambda cfg: {**cfg, "ref_config": [1]},  # reference model not an object
            lambda cfg: {**cfg, "ref_config": {"kind": "constant"}},  # no "vector"
            lambda cfg: {**cfg, "ref_config": {"kind": "zero"}},  # no "dim"
            lambda cfg: {**cfg, "ref_config": {"kind": "linear-teacher", "theta": [float("nan")]}},
            lambda cfg: {**cfg, "ref_config": {**cfg["ref_config"], "mc_features": "1000"}},
            lambda cfg: {**cfg, "ref_config": {**cfg["ref_config"], "mc_features": 1000.5}},
            lambda cfg: {**cfg, "radius_scale": 4.0},  # removed field: R is read off the reference
            lambda cfg: {**cfg, "augment_bias": "false"},  # a string, truthy, for a flag
            lambda cfg: {**cfg, "capped": "no"},
            lambda cfg: {**cfg, "augment_bias": 0},
            lambda cfg: {**cfg, "n": 0},
            lambda cfg: {**cfg, "m": 0},
            lambda cfg: {**cfg, "t": -1},
        ],
        ids=["not-object", "unknown-key", "missing-key", "nonnumeric-float", "nonnumeric-int",
             "dist-params-not-object", "unknown-dist-param", "string-dist-param",
             "ref-config-not-object",
             "ref-config-no-vector", "ref-config-no-dim", "ref-config-nan-theta",
             "ref-config-string-mc-features", "ref-config-float-mc-features",
             "removed-radius-scale", "augment-bias-string", "capped-string", "augment-bias-int",
             "zero-n", "zero-m", "negative-t"],
    )
    def test_malformed_config_is_error(self, small_config, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(small_config.read_text()))))
        code = main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "bound"])
    @pytest.mark.parametrize("field", ["rho", "eta", "eps_gd", "r_gd"])
    def test_nan_config_field_is_error(self, small_config, tmp_path, monkeypatch, capsys, field,
                                       command):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        monkeypatch.setattr(harness, "compute_bound_terms", lambda cfg, **kw: runs.append(cfg))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(small_config.read_text()), field: float("nan")}))
        argv = [command, "--config", str(bad), "--out-dir", str(tmp_path / "out")]
        code = main(argv + (["--ref-risk", "0.5"] if command == "bound" else []))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert runs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "bound"])
    @pytest.mark.parametrize(
        "ref",
        [{"kind": "bogus"}, {"kind": "linear-teacher", "theta": [1.0, 2.0]}],
        ids=["unknown-kind", "dimension-mismatch"],
    )
    def test_bad_reference_is_refused_before_any_run(self, small_config, tmp_path, monkeypatch, capsys,
                                                     command, ref):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        monkeypatch.setattr(harness, "compute_bound_terms", lambda cfg, **kw: runs.append(cfg))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(small_config.read_text()), "ref_config": ref}))
        flags = {"train": [], "sweep": ["--axis", "n", "--values", "64,128"],
                 "bound": ["--ref-risk", "0.5"]}[command]
        code = main([command, "--config", str(bad), *flags, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert runs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--regime", "worstcase"], ["--eps", "0.01"], ["--dist", "step-1d"],
         ["--dist-params", '{"c": 3.0}'], ["--augment-bias"]],
        ids=["regime", "eps", "dist", "dist-params", "augment-bias"],
    )
    def test_preset_flag_with_config_is_usage_error(self, small_config, tmp_path, monkeypatch, capsys, flags):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        code = main(["train", "--config", str(small_config), *flags, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} cannot be combined with --config")
        assert runs == []
        assert not (tmp_path / "out").exists()

    def test_mc_eval_n_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = derive_regime("clairvoyant", 0.5, dist_name="sphere-cap-teacher", seed=2,
                            overrides={"m": 64, "n": 32})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg.to_flat_dict(), "dist_params": {"mc_eval_n": 1024}}))
        code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "mc_eval_n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", ["[1]", '{"bogus": 1}'], ids=["not-object", "unknown-param"])
    def test_malformed_dist_params_are_usage_errors(self, tmp_path, capsys, params):
        code = main(["train", "--dist-params", params, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("dist,params,match", [
        ("logistic-1d", '{"c": NaN}', "c must be finite"),
        ("step-smooth-1d", '{"width": NaN}', "width must be finite"),
        ("sphere-cap-teacher", '{"c": NaN}', "c must be finite"),
        ("sphere-cap-teacher", '{"d": 2.5}', "integer d >= 2"),
        ("logistic-1d", '{"c": "2"}', "logistic-1d parameter 'c' must be a number, got '2'"),
        ("step-smooth-1d", '{"width": null}', "parameter 'width' must be a number, got None"),
        ("logistic-1d", '{"c": true}', "parameter 'c' must be a number, got True"),
        ("sphere-cap-teacher", '{"d": [4]}', "parameter 'd' must be a number"),
    ], ids=["logistic-c-nan", "step-smooth-width-nan", "sphere-cap-c-nan", "sphere-cap-d-fraction",
            "logistic-c-string", "step-smooth-width-null", "logistic-c-bool", "sphere-cap-d-list"])
    def test_bad_dist_parameter_is_usage_error(self, tmp_path, capsys, dist, params, match):
        out = tmp_path / "out"
        code = main(["train", "--dist", dist, "--dist-params", params, "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scale,bad", [(1.0, float("nan")), (2.0, None)], ids=["nan", "outside-ball"])
    def test_invalid_inputs_are_usage_errors(self, small_config, tmp_path, monkeypatch, capsys, scale, bad):
        def corrupted(dist, n, seed):
            samp = draw_sample(dist, n, seed)
            samp.points = samp.points * scale
            if bad is not None:
                samp.points[0, 0] = bad
            return samp

        monkeypatch.setattr(harness, "draw_sample", corrupted)
        code = main(["train", "--config", str(small_config), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("regime,eps", [("worstcase", "1e-30"), ("clairvoyant", "1e-300")])
    def test_tiny_eps_is_usage_error(self, tmp_path, capsys, regime, eps):
        # m = eps^(-40/3) overflows at 1e-30; eps^2 underflows to 0 at 1e-300
        code = main(["train", "--regime", regime, "--eps", eps, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_easy_width_overflow_is_usage_error(self, tmp_path, capsys):
        # The easy width R^8 of the teacher x -> 1e40 x overflows a float.
        out = tmp_path / "out"
        assert main(["train", "--dist-params", '{"c": 1e40}', "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: reference norm 2e+40 is too large for the easy width")
        assert not out.exists()

    def test_large_rho_run_exits_diverged(self, tmp_path, capsys):
        # The sampled reference at rho = 1e8 used to fail its norm check by
        # cancellation and end in a traceback; the run diverges at iterate 0.
        cfg = derive_regime("easy", 0.5, seed=2, overrides={"m": 16, "n": 8})
        cfg = dataclasses.replace(cfg, rho=1e8, eta=4e-16)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_flat_dict()))
        out = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out-dir", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "diverged"
        assert report["trajectory_summary"]["selected_index"] is None
        assert "status: diverged" in capsys.readouterr().out


class TestParserErrors:
    @pytest.mark.parametrize(
        "argv",
        [["train", "--bogus"], ["lemma-check", "--lemma", "no-such"], ["train", "--format", "csv"],
         ["interp-lb", "--p", "0.6"]],
        ids=["unknown-flag", "unknown-lemma", "format-not-read", "interp-lb-p"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--config", "{config}", "--axis", "n", "--values", "16,32", "--seeds", "5"],
         ["consistency", "--n-grid", "16,32", "--seeds", "5"],
         ["interp-lb", "--n-grid", "10,20", "--trials", "1"],
         ["lemma-check", "--lemma", "gauss-count", "--m", "8", "--trials", "2"]],
        ids=["sweep", "consistency", "interp-lb", "lemma-check"],
    )
    def test_negative_seed_is_refused_by_the_parser(self, small_config, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(config=small_config) for a in argv]
        assert main([*argv, "--seed", "-1", "--out-dir", str(out)]) == 1
        assert "argument --seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--format" not in capsys.readouterr().out


class TestBoundCommand:
    def test_bound_report(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["bound", "--config", str(small_config), "--ref-risk", "0.5",
             "--out-dir", str(out)]
        )
        assert code == 0
        data = json.loads((out / "bound.json").read_text())
        assert {"tau_n", "tau_1", "tau_0", "b_eff", "total", "vacuous"} <= set(data)

    @pytest.mark.parametrize(
        "flags",
        [["--ref-risk", "nan"], ["--ref-risk", "-0.1"], ["--ref-risk", "inf"], ["--kbin", "-5"],
         ["--kbin", "nan"], ["--emp-ref-risk", "nan"], ["--emp-ref-risk", "-1"]],
        ids=["nan-ref", "negative-ref", "inf-ref", "negative-kbin", "nan-kbin", "nan-emp", "negative-emp"],
    )
    def test_non_finite_or_negative_input_is_usage_error(self, small_config, tmp_path, capsys, flags):
        argv = ["bound", "--config", str(small_config), "--ref-risk", "0.5", *flags]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
        assert "must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_dir_that_is_a_file_is_error(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["bound", "--config", str(small_config), "--ref-risk", "0.5",
                     "--out-dir", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_radius_read_off_config(self, tmp_path, capsys):
        cfg = derive_regime("clairvoyant", 0.5, dist_name="step-1d", augment_bias=True)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_flat_dict()))
        out = tmp_path / "out"
        assert main(["bound", "--config", str(path), "--ref-risk", "0.5", "--out-dir", str(out)]) == 0
        assert json.loads((out / "bound.json").read_text())["radius_scale"] == cfg.radius > 4.0
        argv = ["bound", "--config", str(path), "--ref-risk", "0.5", "--radius-scale", "4"]
        assert main(argv + ["--out-dir", str(tmp_path / "again")]) == 1
        assert "--radius-scale" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()


class TestConsistencyCommand:
    @pytest.mark.parametrize(
        "flags,expect", [([], True), (["--augment-bias"], True), (["--no-augment-bias"], False)]
    )
    def test_augment_bias_switch(self, flags, expect):
        args = build_parser().parse_args(["consistency", "--n-grid", "64", *flags])
        assert args.augment_bias is expect

    @pytest.mark.parametrize("params", ['{"width": null}', '{"width": "0.1"}'], ids=["null", "string"])
    def test_dist_parameter_that_is_not_a_number_is_usage_error(self, tmp_path, capsys, params):
        out = tmp_path / "out"
        code = main(["consistency", "--n-grid", "64", "--seeds", "1", "--dist-params", params,
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step-smooth-1d parameter 'width' must be a number")
        assert "Traceback" not in err
        assert not out.exists()

    def test_summary_records_base_config(self, tmp_path):
        bases = {}
        for flags in ([], ["--no-augment-bias"]):
            out = tmp_path / ("plain" if flags else "augmented")
            code = main(["consistency", "--n-grid", "64,128", "--seeds", "5",
                         "--out-dir", str(out), *flags])
            assert code == 0
            bases[bool(flags)] = json.loads((out / "consistency.json").read_text())["base"]
        assert bases[False]["augment_bias"] is True
        assert bases[True]["augment_bias"] is False
        for base in bases.values():
            assert base["dist_name"] == "step-smooth-1d"
            assert base["xi"] == 0.5 and base["m"] == 1 << 16


class TestInterpCommand:
    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["interp-lb", "--n-grid", "50,100", "--trials", "3", "--seed", "4",
             "--out-dir", str(out)]
        )
        assert code == 0
        with open(out / "interp_lb.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 3
        assert set(rows[0]) == {"n", "trial", "rule", "excess_z", "covered_mass"}
        summary = json.loads((out / "interp_lb_summary.json").read_text())
        assert any(key.startswith("n=50") for key in summary)

    def test_p_in_dist_params_is_used(self, tmp_path):
        def table(*flags):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            assert main(["interp-lb", "--n-grid", "50,100", "--trials", "3", "--out-dir", str(out),
                         *flags]) == 0
            return (out / "interp_lb.csv").read_text()

        in_params = table("--dist-params", '{"lo": 0.0, "hi": 1.0, "p": 0.6}')
        dist = make_distribution("constant-1d", p=0.6, lo=0.0, hi=1.0)
        rows, _ = interpolation.excess_risk_comparison(dist, [50, 100], trials=3)
        assert [float(r["excess_z"]) for r in csv.DictReader(io.StringIO(in_params))] == [
            r["excess_z"] for r in rows
        ]
        assert in_params != table()

    @pytest.mark.parametrize("dist,params,match", [
        ("logistic-1d", '{"c": NaN}', "c must be finite"),
        ("step-smooth-1d", '{"width": NaN}', "width must be finite"),
        ("constant-1d", '{"p": "0.6"}', "parameter 'p' must be a number"),
        ("step-smooth-1d", '{"width": null}', "parameter 'width' must be a number"),
    ], ids=["logistic-c-nan", "step-smooth-width-nan", "constant-p-string", "step-smooth-width-null"])
    def test_bad_dist_parameter_is_usage_error(self, tmp_path, capsys, dist, params, match):
        out = tmp_path / "out"
        code = main(["interp-lb", "--n-grid", "50", "--dist", dist, "--dist-params", params,
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, tmp_path, capsys, trials):
        out = tmp_path / "out"
        code = main(["interp-lb", "--n-grid", "50", f"--trials={trials}", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: trials")
        assert not out.exists()

    @pytest.mark.parametrize("grid,bad", [("1", "1"), ("2", "2"), ("1000,1", "1")])
    def test_bad_n_is_usage_error_before_any_trial(self, tmp_path, monkeypatch, capsys, grid, bad):
        drawn = []
        monkeypatch.setattr(interpolation, "draw_sample", lambda *a: drawn.append(a))
        out = tmp_path / "out"
        code = main(["interp-lb", "--n-grid", grid, "--trials", "2", "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n={bad} " in err
        assert drawn == []
        assert not out.exists()


class TestLemmaCheckCommand:
    def test_gauss_count(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["lemma-check", "--lemma", "gauss-count", "--m", "200", "--trials", "200",
             "--out-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "lemma_gauss-count.json").read_text())
        assert report["lemma_id"] == "gauss-count"
        assert report["verdict"] == "pass"

    def test_flip_count(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["lemma-check", "--lemma", "flip-count", "--m", "256", "--out-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "lemma_flip-count.json").read_text())
        assert report["verdict"] == "pass"

    def test_out_dir_under_a_file_is_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["lemma-check", "--lemma", "gauss-count", "--m", "200", "--trials", "20",
                     "--out-dir", str(tmp_path / "file" / "sub")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lemma,m", [("gauss-count", "0"), ("risk-ratio", "0"), ("risk-ratio", "-3")])
    def test_nonpositive_width_is_usage_error(self, tmp_path, capsys, lemma, m):
        code = main(["lemma-check", "--lemma", lemma, "--m", m, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "--m must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "lemma,flag,value",
        [("gauss-count", "--delta", "0"), ("flip-count", "--delta", "0"),
         ("risk-ratio", "--delta", "0"), ("sphere-gap", "--delta", "-1"),
         ("gen-gap", "--delta", "2"), ("gen-gap", "--delta", "1"),
         ("flip-count", "--delta", "nan"), ("gauss-count", "--trials", "0"),
         ("sphere-gap", "--trials", "-5"),
         # --tau and --trials belong to gauss-count alone
         ("flip-count", "--tau", "0.9"), ("sphere-gap", "--tau", "0.1"),
         ("risk-ratio", "--trials", "3"), ("gen-gap", "--trials", "2000")],
    )
    def test_flag_out_of_range_is_usage_error_before_any_run(
        self, tmp_path, monkeypatch, capsys, lemma, flag, value
    ):
        runs = []
        monkeypatch.setattr(harness, "prepare_run", lambda *a: runs.append(a))
        monkeypatch.setattr(diagnostics, "gaussian_row_count_check", lambda **kw: runs.append(kw))
        code = main(["lemma-check", "--lemma", lemma, "--m", "16", f"{flag}={value}",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert runs == []
        assert not list(tmp_path.iterdir())

    def test_gauss_count_defaults(self, tmp_path, monkeypatch):
        calls = []

        def record(**kw):
            calls.append(kw)
            return LemmaCheckReport("gauss-count", 10, 0, 0.15, 1.0, 1.0, {})

        monkeypatch.setattr(diagnostics, "gaussian_row_count_check", record)
        assert main(["lemma-check", "--lemma", "gauss-count", "--out-dir", str(tmp_path)]) == 0
        assert (calls[0]["tau"], calls[0]["trials"]) == (0.1, 2000)

    @pytest.mark.parametrize(
        "lemma,keys",
        [("sphere-gap", {"sup_gap", "radius", "points"}),
         ("risk-ratio", {"max_ratio", "iterates"}),
         ("gen-gap", {"population_risk", "empirical_risk", "gap", "n"})],
    )
    def test_run_based_lemma(self, tmp_path, capsys, lemma, keys):
        code = main(["lemma-check", "--lemma", lemma, "--m", "64", "--seed", "7",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / f"lemma_{lemma}.json").read_text())
        assert report["lemma_id"] == lemma
        assert report["verdict"] == "pass"
        assert keys | {"lemma_id", "bound_value", "verdict"} <= set(report)
        assert f"lemma {lemma}: pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "lemma,check,report",
        [("flip-count", "activation_flip_count", diagnostics.FlipStats(9, 1.0, 8.0, 1.0, 0.1)),
         ("sphere-gap", "sphere_linearization_gap",
          diagnostics.SphereGapReport(0.5, 0.25, 1.0, 8, "grid")),
         ("risk-ratio", "risk_ratio_check",
          diagnostics.RiskRatioReport(2.0, 1.5, 2, 1.0, 0.0, np.array([0.5, 1.0]))),
         ("gen-gap", "generalization_gap", diagnostics.GenGapReport(0.5, 0.7, -0.2, 0.1, 512))],
    )
    def test_failed_run_based_verdict_exits_2(
        self, tmp_path, monkeypatch, capsys, lemma, check, report
    ):
        monkeypatch.setattr(diagnostics, check, lambda *a, **kw: report)
        code = main(["lemma-check", "--lemma", lemma, "--m", "16", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"lemma {lemma}: fail" in capsys.readouterr().out
        assert json.loads((tmp_path / f"lemma_{lemma}.json").read_text())["verdict"] == "fail"

    def test_unknown_lemma_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lemma-check", "--lemma", "no-such-lemma"])

    def test_failed_verdict_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing(**kw):
            return LemmaCheckReport("gauss-count", 10, 10, 0.15, 99.0, 1.0, {})

        monkeypatch.setattr(diagnostics, "gaussian_row_count_check", failing)
        code = main(["lemma-check", "--lemma", "gauss-count", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "gauss-count: fail" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_csv(self, small_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(small_config), "--axis", "n",
             "--values", "64,128", "--seeds", "5", "--format", "csv",
             "--out-dir", str(out)]
        )
        assert code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["axis"] == "n"

    @pytest.mark.parametrize("status,code", [("diverged", 3), ("no-selection", 2)])
    def test_failed_cell_exit_code(self, small_config, tmp_path, monkeypatch, capsys, status, code):
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: SimpleNamespace(status=status))
        assert main(["sweep", "--config", str(small_config), "--axis", "n",
                     "--values", "64,128", "--out-dir", str(tmp_path)]) == code
        assert f"status {status}" in capsys.readouterr().err

    def test_bad_values_rejected(self, small_config, tmp_path):
        code = main(
            ["sweep", "--config", str(small_config), "--axis", "n",
             "--values", "64", "--seeds", "5", "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_consistency_config_without_xi_is_usage_error(self, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**harness.derive_consistency(16, 0.8).to_flat_dict(), "xi": None}))
        code = main(["sweep", "--config", str(path), "--axis", "n", "--values", "16,32",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "xi" in err and "Traceback" not in err
        assert runs == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", ["0,64", "-64,64", "64,0"])
    def test_width_below_one_is_usage_error(self, small_config, tmp_path, monkeypatch, capsys, values):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        code = main(["sweep", "--config", str(small_config), "--axis", "m", f"--values={values}",
                     "--seeds", "5", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: m must be an integer >= 1")
        assert runs == []


def test_readme_cli_lines_parse():
    """Every ``shallowcal`` line in README's CLI block parses, and together
    they show every subcommand; nothing is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("shallowcal ")]
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
    commands = {"train", "sweep", "consistency", "interp-lb", "lemma-check", "bound"}
    assert {argv[1] for argv in lines} == commands
