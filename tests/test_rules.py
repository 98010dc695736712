"""``metrics.RULES`` is the one table of single-value setting rules: every
entry point refuses a value of the wrong type with the ValueError of its
rule, no other module writes a rule's phrase into an error of its own, and
README's table of settings names every rule."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from shallowcal.cli import main
from shallowcal.diagnostics import gaussian_row_count_check
from shallowcal.distributions import logistic_1d, make_distribution, sample, sphere_cap_teacher
from shallowcal.harness import compute_bound_terms, derive_consistency, derive_regime
from shallowcal.interpolation import excess_risk_comparison
from shallowcal.metrics import RULES, check
from shallowcal.network import init_network
from shallowcal.reference import InfiniteWidthModel, model_from_config
from shallowcal.trainer import TrainConfig, gd_step

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shallowcal"

CFG = derive_regime("clairvoyant", 0.5, overrides={"m": 16, "n": 8})
TASK = make_distribution("constant-1d", lo=0.0, hi=1.0)
X, Y = np.array([[0.5], [-0.5]]), np.array([1.0, -1.0])

# Entries that take an integer: a string, None, a bool and a float are refused.
INTEGER_ENTRIES = {
    "RegimeConfig.m": lambda v: dataclasses.replace(CFG, m=v),
    "RegimeConfig.seed": lambda v: dataclasses.replace(CFG, seed=v),
    "derive_regime.overrides": lambda v: derive_regime("clairvoyant", 0.5, overrides={"m": v}),
    "derive_consistency.n": lambda v: derive_consistency(v, 0.5),
    "TrainConfig.t_max": lambda v: TrainConfig(eta=1.0, t_max=v),
    "excess_risk_comparison.trials": lambda v: excess_risk_comparison(TASK, [50], trials=v),
    "excess_risk_comparison.n": lambda v: excess_risk_comparison(TASK, [v], trials=1),
    "gaussian_row_count_check.m": lambda v: gaussian_row_count_check(m=v, tau=0.1, trials=1),
    "InfiniteWidthModel.mc_seed": lambda v: InfiniteWidthModel([1.0], mc_seed=v),
    "InfiniteWidthModel.mc_features": lambda v: InfiniteWidthModel([1.0], mc_features=v),
    "model_from_config.dim": lambda v: model_from_config({"kind": "zero", "dim": v}),
    "init_network.m": lambda v: init_network(v, 2, 1.0, 0),
    "sphere_cap_teacher.d": lambda v: sphere_cap_teacher(d=v),
    "sample.n": lambda v: sample(TASK, v, 0),
}
# Entries that take a number: a string, None and a bool are refused.
NUMBER_ENTRIES = {
    "RegimeConfig.rho": lambda v: dataclasses.replace(CFG, rho=v),
    "RegimeConfig.r_gd": lambda v: dataclasses.replace(CFG, r_gd=v),
    "TrainConfig.eta": lambda v: TrainConfig(eta=v, t_max=1),
    "TrainConfig.r_gd": lambda v: TrainConfig(eta=1.0, t_max=1, r_gd=v),
    "gd_step.eta": lambda v: gd_step(init_network(4, 1, 1.0, 0), X, Y, v),
    "derive_regime.eps": lambda v: derive_regime("easy", v),
    "derive_consistency.xi": lambda v: derive_consistency(64, v),
    "compute_bound_terms.delta": lambda v: compute_bound_terms(CFG, 0.1, delta=v),
    "compute_bound_terms.ref_risk": lambda v: compute_bound_terms(CFG, v),
    "gaussian_row_count_check.tau": lambda v: gaussian_row_count_check(m=4, tau=v, trials=1),
    "init_network.rho": lambda v: init_network(4, 2, v, 0),
    "logistic_1d.c": lambda v: logistic_1d(c=v),
}
CASES = [(name, value) for name in INTEGER_ENTRIES for value in ("3", None, True, 3.5)] + [
    (name, value) for name in NUMBER_ENTRIES for value in ("0.1", None, True)
]


@pytest.mark.parametrize("entry,value", CASES, ids=[f"{n}={v!r}" for n, v in CASES])
def test_a_value_of_the_wrong_type_is_a_value_error(entry, value):
    call = INTEGER_ENTRIES.get(entry) or NUMBER_ENTRIES[entry]
    with pytest.raises(ValueError, match=" must be "):
        call(value)


@pytest.mark.parametrize("flag,text", [("--m", "2.5"), ("--m", "true"), ("--seed", "1.5"),
                                       ("--seed", "None"), ("--trials", "x"), ("--delta", "y")])
def test_a_flag_of_the_wrong_type_is_a_usage_error(tmp_path, flag, text):
    out = tmp_path / "out"
    argv = ["lemma-check", "--lemma", "gauss-count", flag, text, "--out-dir", str(out)]
    assert main(argv) == 1
    assert not out.exists()


def test_check_returns_the_value_or_names_the_setting():
    assert check("m", np.int64(3), "count") == 3
    with pytest.raises(ValueError, match=r"^--m must be an integer >= 1, got 0$"):
        check("--m", 0, "count")


# A rule's phrase in an error raised outside ``metrics.py`` is a second copy
# of the rule.  "finite" alone is left out: the array checks of the kernel
# and the trainer, which are not single-value rules, say "must be finite".
PHRASES = {"must be an integer >=", "must be finite and positive", "must lie in (0, 1)"} | {
    f"must be {phrase}" for _, phrase in RULES.values() if phrase != "finite"
}


def rule_copies(source: str):
    """Each ``raise ValueError(...)`` in a source text whose message holds a
    rule phrase, as "phrase at line N"."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
            continue
        texts = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant)
                 and isinstance(c.value, str)]
        phrases = [phrase for phrase in sorted(PHRASES) if any(phrase in text for text in texts)]
        if phrases:
            yield f"{phrases[0]} at line {node.lineno}"


def test_no_rule_phrase_is_raised_outside_the_table():
    planted = ('raise ValueError(f"{name} must be an integer >= 1, got {v!r}")\n'
               'raise ValueError("tau must lie in (0, 1)")\nraise ValueError("k must be odd")\n')
    assert list(rule_copies(planted)) == ["must be an integer >= at line 1",
                                          "must lie in (0, 1) at line 2"]
    found = {path.name: list(rule_copies(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: copies for name, copies in found.items() if copies and name != "metrics.py"} == {}


def test_readme_table_names_every_rule():
    readme = (ROOT / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| ")]
    rules = {row.rsplit("|", 2)[1].strip() for row in rows}
    assert {phrase for _, phrase in RULES.values()} <= rules
