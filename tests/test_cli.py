import csv
import json
from types import SimpleNamespace

import pytest

from shallowcal import diagnostics, harness, interpolation
from shallowcal.cli import build_parser, main
from shallowcal.diagnostics import LemmaCheckReport
from shallowcal.distributions import sample as draw_sample
from shallowcal.harness import derive_regime


@pytest.fixture
def small_config(tmp_path):
    cfg = derive_regime("clairvoyant", 0.5, seed=2, overrides={"m": 128, "n": 64})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_flat_dict()))
    return path


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
            lambda cfg: {**cfg, "ref_config": [1]},  # reference model not an object
            lambda cfg: {**cfg, "ref_config": {"kind": "constant"}},  # no "vector"
            lambda cfg: {**cfg, "ref_config": {"kind": "zero"}},  # no "dim"
            lambda cfg: {**cfg, "ref_config": {"kind": "linear-teacher", "theta": [float("nan")]}},
            lambda cfg: {**cfg, "ref_config": {**cfg["ref_config"], "mc_features": "1000"}},
            lambda cfg: {**cfg, "ref_config": {**cfg["ref_config"], "mc_features": 1000.5}},
        ],
        ids=["not-object", "unknown-key", "missing-key", "nonnumeric-float", "nonnumeric-int",
             "dist-params-not-object", "unknown-dist-param", "ref-config-not-object",
             "ref-config-no-vector", "ref-config-no-dim", "ref-config-nan-theta",
             "ref-config-string-mc-features", "ref-config-float-mc-features"],
    )
    def test_malformed_config_is_error(self, small_config, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(small_config.read_text()))))
        code = main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("params", ["[1]", '{"bogus": 1}'], ids=["not-object", "unknown-param"])
    def test_malformed_dist_params_are_usage_errors(self, tmp_path, capsys, params):
        code = main(["train", "--dist-params", params, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

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

    def test_large_rho_run_exits_diverged(self, tmp_path, capsys):
        # The sampled reference at rho = 1e8 used to fail its norm check by
        # cancellation and end in a traceback; the run diverges at iterate 0.
        cfg = derive_regime("easy", 0.5, seed=2, overrides={"m": 16, "n": 8, "rho": 1e8})
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
        [["train", "--bogus"], ["lemma-check", "--lemma", "no-such"], ["train", "--format", "csv"]],
        ids=["unknown-flag", "unknown-lemma", "format-not-read"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

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


class TestConsistencyCommand:
    @pytest.mark.parametrize(
        "flags,expect", [([], True), (["--augment-bias"], True), (["--no-augment-bias"], False)]
    )
    def test_augment_bias_switch(self, flags, expect):
        args = build_parser().parse_args(["consistency", "--n-grid", "64", *flags])
        assert args.augment_bias is expect

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

    @pytest.mark.parametrize(
        "flags",
        [["--dist", "logistic-1d", "--p", "0.6"],
         ["--dist-params", '{"lo": 0.0, "hi": 1.0, "p": 0.6}', "--p", "0.6"]],
        ids=["other-dist", "p-given-twice"],
    )
    def test_misplaced_p_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main(["interp-lb", "--n-grid", "50", "--trials", "2", "--out-dir", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_p_in_dist_params_is_used(self, tmp_path):
        def table(*flags):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            assert main(["interp-lb", "--n-grid", "50,100", "--trials", "3", "--out-dir", str(out),
                         *flags]) == 0
            return (out / "interp_lb.csv").read_text()

        in_params = table("--dist-params", '{"lo": 0.0, "hi": 1.0, "p": 0.6}')
        assert in_params == table("--p", "0.6")
        assert in_params != table()

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

    @pytest.mark.parametrize("lemma,m", [("gauss-count", "0"), ("risk-ratio", "0"), ("risk-ratio", "-3")])
    def test_nonpositive_width_is_usage_error(self, tmp_path, capsys, lemma, m):
        code = main(["lemma-check", "--lemma", lemma, "--m", m, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "--m must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("values", ["0,64", "-64,64", "64,0"])
    def test_width_below_one_is_usage_error(self, small_config, tmp_path, monkeypatch, capsys, values):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        code = main(["sweep", "--config", str(small_config), "--axis", "m", f"--values={values}",
                     "--seeds", "5", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: sweep widths must be at least 1")
        assert runs == []
