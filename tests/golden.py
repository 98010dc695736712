"""Golden outputs: the cases ``golden.json`` holds bit for bit, and the
helper that rewrites it.

    PYTHONPATH=src python tests/golden.py

recomputes every value on the checkout's code and rewrites the file.  A
change that rewrites it lists in CHANGES.md the values that moved, by how
much, and why.  Floats are stored as ``float.hex``.
"""

import json
from pathlib import Path

from shallowcal.distributions import make_distribution
from shallowcal.interpolation import excess_risk_comparison

PATH = Path(__file__).with_name("golden.json")

# ``excess_risk_comparison`` rows, one trial per n: the piecewise-constant
# tasks, whose walk skips the quadrature nodes between cuts, and a smooth
# task, whose walk evaluates p at every node.
COMPARISON_CASES = {
    "constant-1d[0,1]": ("constant-1d", {"p": 0.75, "lo": 0.0, "hi": 1.0}),
    "constant-1d[-1,1]": ("constant-1d", {"p": 0.25}),
    "step-1d": ("step-1d", {}),
    "logistic-1d": ("logistic-1d", {"c": -3.0}),
}
COMPARISON_GRID = (1_000, 10_000, 100_000)
COMPARISON_SEED = 1

# The ``interp-lb`` benchmark's configuration (``perfbench/workloads.py``):
# ``constant-1d`` with p = 0.75 on [0, 1] up to n = 10^6, one trial, at two
# fixed root seeds.
INTERP_LB_CASE = ("constant-1d", {"p": 0.75, "lo": 0.0, "hi": 1.0})
INTERP_LB_GRID = (10_000, 100_000, 1_000_000)
INTERP_LB_SEEDS = (1, 2)


def _hex_rows(case, grid, seed) -> list[dict]:
    name, params = case
    rows, _ = excess_risk_comparison(make_distribution(name, **params), grid, trials=1, seed=seed)
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


def comparison_rows(case: str) -> list[dict]:
    """The case's rows, every float as ``float.hex``."""
    return _hex_rows(COMPARISON_CASES[case], COMPARISON_GRID, COMPARISON_SEED)


def interp_lb_rows(seed: int) -> list[dict]:
    """The ``interp-lb`` configuration's rows at root seed ``seed``, every
    float as ``float.hex``."""
    return _hex_rows(INTERP_LB_CASE, INTERP_LB_GRID, seed)


def moved(want: list[dict], got: list[dict]) -> list[str]:
    """Each field of ``got`` that differs from ``want``, named by its row,
    with both values and their difference."""
    if len(want) != len(got):
        return [f"{len(got)} rows, golden has {len(want)}"]
    out = []
    for w, g in zip(want, got):
        for key in w.keys() | g.keys():
            if w.get(key) != g.get(key):
                a, b = w.get(key), g.get(key)
                diff = ""
                if isinstance(a, str) and isinstance(b, str):
                    diff = f" ({float.fromhex(b) - float.fromhex(a):+.3g})"
                out.append(f"n={w['n']} rule={w['rule']} {key}: {a} -> {b}{diff}")
    return out


def main() -> None:
    golden = {
        "excess_risk_comparison": {case: comparison_rows(case) for case in COMPARISON_CASES},
        "interp_lb": {str(seed): interp_lb_rows(seed) for seed in INTERP_LB_SEEDS},
    }
    PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
