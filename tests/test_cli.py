import csv
import json

import pytest

from shallowcal.cli import build_parser, main
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

    def test_bad_values_rejected(self, small_config, tmp_path):
        code = main(
            ["sweep", "--config", str(small_config), "--axis", "n",
             "--values", "64", "--seeds", "5", "--out-dir", str(tmp_path)]
        )
        assert code == 1
