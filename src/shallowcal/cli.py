"""Command-line front end, and the package's one reader and writer of files.

Subcommands: train, sweep, consistency, interp-lb, lemma-check, bound.
Exit codes: 0 on success, 1 on a usage error, 2 on a monitor violation, an
empty selection or a failed lemma check, 3 on optimizer divergence.  Every
run prints the root seed it derives all randomness from.

The library returns plain records; this module formats them and writes
every output file through ``_write_json`` (non-finite floats as the strings
of ``harness.json_safe``) and ``_write_csv``, printing each path it wrote.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, harness, interpolation
from .distributions import make_distribution
from .metrics import frobenius_norm
from .network import freeze_features
from .trainer import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MONITOR = 2
EXIT_DIVERGED = 3


def _load_config(path: str) -> harness.RegimeConfig:
    with open(path) as fh:
        return harness.RegimeConfig.from_flat_dict(json.load(fh))


def _write_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(harness.json_safe(obj), fh, indent=2)
    print(f"wrote {path}")


def _write_csv(rows, fieldnames, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {path}")


def _write_result(result: dict, fmt: str, out: Path, stem: str) -> None:
    """``<stem>.json``, or with csv the rows in ``<stem>.csv`` and the rest
    in ``<stem>_summary.json``."""
    if fmt == "csv":
        rows = result.pop("rows")
        _write_csv(rows, list(rows[0].keys()), out / f"{stem}.csv")
        _write_json(result, out / f"{stem}_summary.json")
    else:
        _write_json(result, out / f"{stem}.json")


def _dist_params(args) -> dict:
    params = json.loads(args.dist_params) if args.dist_params else {}
    if not isinstance(params, dict):
        raise ValueError(f"--dist-params must be a JSON object, got {args.dist_params}")
    return params


def _report_exit(report) -> int:
    if report.status == "diverged":
        return EXIT_DIVERGED
    monitors = report.monitors
    regret_ok = all(monitors["regret_ok"].values())
    if report.status != "ok" or not monitors["smoothness_ok"] or not regret_ok:
        return EXIT_MONITOR
    return EXIT_OK


def cmd_train(args) -> int:
    if args.config:
        for flag in ("regime", "eps", "dist", "dist_params", "augment_bias"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} cannot be combined with --config")
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    else:
        cfg = harness.derive_regime(
            args.regime or "easy",
            1 / 80 if args.eps is None else args.eps,
            dist_name=args.dist or "logistic-1d",
            dist_params=_dist_params(args),
            augment_bias=bool(args.augment_bias),
            seed=args.seed if args.seed is not None else 0,
        )
    report = harness.run_experiment(cfg)
    print(f"root seed: {report.root_seed}")
    out = Path(args.out_dir)
    _write_json(report.to_dict(), out / "report.json")
    traj = report.trajectory
    cols = ["emp_risk", "dist_init", "grad_norm", "smooth_resid"]  # to 17 significant digits
    rows = [{"iter": r.index, **{c: f"{getattr(r, c):.17g}" for c in cols},
             "selected": int(r.index == traj.selected_index)} for r in traj.records]
    _write_csv(rows, ["iter", *cols, "selected"], out / "trajectory.csv")
    meta = {"rho": traj.rho, "n_examples": traj.n_examples, "status": traj.status,
            "selected_index": traj.selected_index, "monitors": report.monitors}
    _write_json({**dataclasses.asdict(traj.config), **meta}, out / "trajectory_meta.json")
    print(f"status: {report.status}")
    return _report_exit(report)


def cmd_sweep(args) -> int:
    base = _load_config(args.config)
    values = [float(v) if args.axis == "eps" else int(v) for v in args.values.split(",")]
    result = harness.sweep(base, args.axis, values, seeds=args.seeds, root_seed=args.seed)
    print(f"root seed: {args.seed}")
    _write_result(result, args.format, Path(args.out_dir), "sweep")
    return EXIT_OK


def cmd_consistency(args) -> int:
    n_grid = [int(v) for v in args.n_grid.split(",")]
    base = harness.derive_consistency(
        n_grid[0],
        args.xi,
        dist_name=args.dist,
        dist_params=_dist_params(args),
        augment_bias=args.augment_bias,
    )
    result = harness.sweep(base, "n", n_grid, seeds=args.seeds, root_seed=args.seed)
    print(f"root seed: {args.seed}")
    _write_result(result, args.format, Path(args.out_dir), "consistency")
    return EXIT_OK


def cmd_interp_lb(args) -> int:
    dist = make_distribution(args.dist, **_dist_params(args))
    n_grid = [int(v) for v in args.n_grid.split(",")]
    rows, summary = interpolation.excess_risk_comparison(
        dist, n_grid, trials=args.trials, seed=args.seed
    )
    print(f"root seed: {args.seed}")
    out = Path(args.out_dir)
    _write_csv(rows, ["n", "trial", "rule", "excess_z", "covered_mass"], out / "interp_lb.csv")
    _write_json(summary, out / "interp_lb_summary.json")
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    if args.m <= 0:
        raise ValueError(f"--m must be positive, got {args.m}")
    if not 0 < args.delta < 1:
        raise ValueError(f"--delta must lie in (0, 1), got {args.delta}")
    if args.lemma == "gauss-count":
        tau = 0.1 if args.tau is None else args.tau
        trials = 2000 if args.trials is None else args.trials
        if trials < 1:
            raise ValueError(f"--trials must be at least 1, got {trials}")
        report = diagnostics.gaussian_row_count_check(
            m=args.m, tau=tau, trials=trials, delta=args.delta, seed=args.seed
        )
    else:
        for flag in ("tau", "trials"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies to gauss-count only, not {args.lemma}")
        report = _canned_lemma_run(args)
    result = report.to_dict()
    _write_json(result, Path(args.out_dir) / f"lemma_{args.lemma}.json")
    print(f"lemma {args.lemma}: {result['verdict']}")
    return EXIT_OK if report.verdict else EXIT_MONITOR


def _canned_lemma_run(args) -> diagnostics.LemmaReport:
    """Small pinned training context shared by the run-based checks: the
    clairvoyant logistic-1d (c = 2) run at width --m (uncapped) with
    n = 512 and t = 10."""
    run = harness.derive_regime(
        "clairvoyant",
        0.5,
        dist_name="logistic-1d",
        dist_params={"c": 2.0},
        seed=args.seed,
        cap=math.inf,
        overrides={"m": args.m, "n": 512, "eps_gd": 1 / 80},
    )
    dist, X, y, net, _ = harness.prepare_run(run)
    cfg = run.train_config()
    if args.lemma == "risk-ratio":
        return diagnostics.risk_ratio_check(net, X, y, cfg, net.init_weights, delta=args.delta)
    if args.lemma == "gen-gap":
        ff = freeze_features(net, at_init=True)
        rng = np.random.default_rng(harness.derived_seed(args.seed, 3))
        delta_dir = rng.standard_normal(net.weights.shape)
        delta_dir /= frobenius_norm(delta_dir)
        V = net.init_weights + delta_dir
        return diagnostics.generalization_gap(ff, V, X, y, dist, delta=args.delta)
    train(net, X, y, cfg, monitors=True)
    if args.lemma == "flip-count":
        return diagnostics.activation_flip_count(net.init_weights, net.weights, X, delta=args.delta)
    return diagnostics.sphere_linearization_gap(net, net.weights, delta=args.delta)


def cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    terms = harness.compute_bound_terms(
        cfg,
        ref_risk=args.ref_risk,
        emp_ref_risk=args.emp_ref_risk,
        kbin=args.kbin,
        delta=args.delta,
    )
    out = Path(args.out_dir)
    _write_json(terms.to_dict(), out / "bound.json")
    flag = "vacuous" if terms.vacuous else "non-vacuous"
    print(f"total bound {terms.total:.6g} ({flag})")
    return EXIT_OK


def _seed(text: str) -> int:  # the --seed type
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {seed}")
    return seed


def _add_common(p):
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shallowcal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training experiment")
    p.add_argument("--config", help="flat JSON config file; takes none of the flags below")
    p.add_argument("--regime", choices=["easy", "clairvoyant", "worstcase"], help="default easy")
    p.add_argument("--eps", type=float, help="default 1/80")
    p.add_argument("--dist", help="default logistic-1d")
    p.add_argument("--dist-params", help="JSON dict of distribution params")
    p.add_argument("--augment-bias", action="store_true", default=None)
    p.add_argument("--seed", type=_seed, help="default 0, or the --config file's seed")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="sweep one axis of a base config")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=["n", "m", "eps"], required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("consistency", help="consistency schedule sweep over n")
    p.add_argument("--n-grid", required=True)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--dist", default="step-smooth-1d")
    p.add_argument("--dist-params", default=None)
    p.add_argument("--augment-bias", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("interp-lb", help="local interpolation inconsistency table")
    p.add_argument("--dist", default="constant-1d")
    p.add_argument("--dist-params", default='{"lo": 0.0, "hi": 1.0}')
    p.add_argument("--n-grid", default="100,1000,10000")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_interp_lb)

    p = sub.add_parser("lemma-check", help="Monte Carlo checks of the bound suite")
    p.add_argument(
        "--lemma",
        required=True,
        choices=["gauss-count", "flip-count", "sphere-gap", "risk-ratio", "gen-gap"],
    )
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--tau", type=float, default=None, help="gauss-count only (default 0.1)")
    p.add_argument("--trials", type=int, default=None, help="gauss-count only (default 2000)")
    p.add_argument("--delta", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("bound", help="evaluate the error decomposition for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--ref-risk", type=float, required=True)
    p.add_argument("--emp-ref-risk", type=float, default=None)
    p.add_argument("--kbin", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is EXIT_MONITOR here.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except harness.CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if exc.status == "diverged" else EXIT_MONITOR


if __name__ == "__main__":
    sys.exit(main())
