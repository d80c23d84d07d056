"""Command-line front end.

Subcommands: ``boundary`` (solve and export the installation threshold),
``value`` (query the value function at a state), ``classify`` (regime of the
line of means), ``simulate`` (Monte Carlo verification report), and
``sensitivity`` (comparative-statics sweep of the boundary).

Every command is deterministic given (config, seed).  Exit codes:
0 success, 2 configuration problem (invalid parameters, unreadable input,
unwritable output), 3 verification failure, 4 any other solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import boundary as bd
from . import model
from .errors import (ConfigurationError, DomainError, NumericalError,
                     SolarInvestError, ValidationError)
from .fundamental import FundamentalSolution
from .simulate import (OptimalReflection, dominance_report, simulate_path,
                       verification_states)
from .value import ValueFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFICATION = 3
EXIT_NUMERICAL = 4

_TIE_TOL = 1e-9

# parameters eligible for sweeps, with the boundary-shift direction the sweep
# reports; kappa's effect is non-monotone and is always reported as "crossing"
SWEEP_DIRECTIONS = {
    "sigma": "increasing",
    "beta": "increasing",
    "c": "increasing",
    "y_bar": "increasing",
    "mu": "decreasing",
    "rho": "decreasing",
    "kappa": "crossing",
}


def _load_params(args) -> model.ModelParams:
    if args.config:
        return model.params_from_json(args.config)
    return model.table_preset()


def _solve(params, n_steps):
    fs = FundamentalSolution(params)
    fb = bd.integrate_boundary(params, fs, n_steps=n_steps)
    return fs, fb


def _regime_payload(params, fs, fb) -> dict:
    ys = bd.y_star(params, fs)
    return {
        "regime": bd.classify_regime(params, fb, fs).value,
        "y_star": ys,
        "f0": fb.x0,
        "mu": params.mu,
        "tie": bool(abs(params.y_bar - ys) <= _TIE_TOL * max(1.0, params.y_bar)),
    }


def _finite_or_null(obj):
    """The payload with every non-finite float replaced by None, so the
    output is standard JSON (no NaN or Infinity tokens)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _dump_json(payload, path=None):
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def cmd_boundary(args) -> int:
    params = _load_params(args)
    fs, fb = _solve(params, args.steps)
    vf = ValueFunction(params, fs, fb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bd.export_grid_csv(fb, out / "boundary_grid.csv")
    _dump_json(vf.summary_dict(), out / "value_function.json")
    payload = _regime_payload(params, fs, fb)
    payload.update({"x_tilde": fb.x_tilde, "x0": fb.x0, "x_bar": fb.x_bar,
                    "artifacts": [str(out / "boundary_grid.csv"),
                                  str(out / "value_function.json")]})
    _dump_json(payload)
    return EXIT_OK


def cmd_classify(args) -> int:
    params = _load_params(args)
    fs, fb = _solve(params, args.steps)
    _dump_json(_regime_payload(params, fs, fb))
    return EXIT_OK


def cmd_value(args) -> int:
    params = _load_params(args)
    x, y = args.x, args.y
    if not np.isfinite(x):
        raise ConfigurationError(f"--x must be finite, got {x}")
    try:
        model.check_capacity(params, y)
    except DomainError as exc:
        raise ConfigurationError(f"--y: {exc}") from None
    fs, fb = _solve(params, args.steps)
    vf = ValueFunction(params, fs, fb)
    w_x, w_xx, w_y = vf.partials(x, y)
    payload = {
        "x": x, "y": y,
        "region": fb.region(x, y).value,
        "w": vf.w(x, y),
        "w_x": w_x, "w_xx": w_xx, "w_y": w_y,
    }
    if y < params.y_bar:
        pde, grad = vf.hjb_residual(x, y)
        payload["pde_term"] = pde
        payload["gradient_term"] = grad
    for name, v in payload.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise NumericalError(f"value at (x={x}, y={y}): {name} = {v}, not finite")
    _dump_json(payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _load_params(args)
    if args.trace_paths < 0:
        raise ConfigurationError(f"--trace-paths must be >= 0, got {args.trace_paths}")
    fs, fb = _solve(params, args.steps)
    vf = ValueFunction(params, fs, fb)
    states = verification_states(fb)
    report = dominance_report(params, fb, vf, states, n_paths=args.paths,
                              dt=args.dt, horizon=args.horizon, seed=args.seed)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(report, out / "simulation_report.json")
        policy = OptimalReflection(params, fb)
        x0, y0 = states[0]
        horizon = report["settings"]["horizon"]
        for i in range(args.trace_paths):
            rec = simulate_path(params, policy, x0, y0, dt=args.dt,
                                horizon=horizon, seed=args.seed, path_index=i)
            with open(out / f"path_{i:04d}.csv", "w", newline="") as fh:
                fh.write("t,X,Y,cum_cost\n")
                for t, xv, yv, cc in zip(rec.t, rec.x, rec.y, rec.cum_cost):
                    fh.write(f"{t:.12g},{xv:.12g},{yv:.12g},{cc:.12g}\n")
    _dump_json(report)
    if not report["all_passed"]:
        failing = next(c for c in report["checks"] if not c["passed"])
        print(f"verification failed: {failing['name']} "
              f"(gap {failing['gap']:.6g}, tolerance {failing['tolerance']:.6g})",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def sweep_boundaries(params, name, values, n_steps):
    """Solve the boundary for each parameter value; aborts naming the value
    whose solve failed."""
    solved = []
    for v in values:
        try:
            p = model.params_from_dict({**model.params_to_dict(params), name: v})
            fs, fb = _solve(p, n_steps)
        except SolarInvestError as exc:
            exc.args = (f"sweep {name}={v}: {exc}",)
            raise
        solved.append((v, fb))
    return solved


def sweep_verdict(name, solved) -> dict:
    """Direction of the pointwise-in-y shift of F across consecutive values."""
    y_lo = min(fb.params.y_bar for _, fb in solved)
    y_common = np.linspace(0.0, y_lo, 201)
    curves = [fb.f_values(y_common) for _, fb in solved]
    ups, downs = 0, 0
    for lo, hi in zip(curves, curves[1:]):
        diff = hi - lo
        if np.all(diff > 0):
            ups += 1
        elif np.all(diff < 0):
            downs += 1
    n = len(curves) - 1
    if name == "kappa" or (ups and downs) or ups + downs < n:
        observed = "crossing"
    else:
        observed = "increasing" if ups == n else "decreasing"
    return {
        "param": name,
        "observed": observed,
        "expected": SWEEP_DIRECTIONS[name],
        "consistent": observed == SWEEP_DIRECTIONS[name],
    }


def cmd_sensitivity(args) -> int:
    params = _load_params(args)
    name = args.param
    if name not in SWEEP_DIRECTIONS:
        raise ConfigurationError(
            f"--param must be one of {sorted(SWEEP_DIRECTIONS)}, got {name!r}")
    try:
        # ascending and distinct, so the verdict reads the same for any order
        values = sorted({float(v) for v in args.values.split(",") if v.strip()})
    except ValueError:
        raise ConfigurationError(f"--values must be comma-separated numbers, got {args.values!r}")
    if len(values) < 2:
        raise ConfigurationError(
            f"--values needs at least two distinct numbers, got {args.values!r}")
    solved = sweep_boundaries(params, name, values, args.steps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"sensitivity_{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("param_value,y,F\n")
        for v, fb in solved:
            for y, f_val in zip(fb.ys, fb.f_grid):
                fh.write(f"{v:.12g},{y:.12g},{f_val:.12g}\n")
    verdict = sweep_verdict(name, solved)
    verdict["csv"] = str(csv_path)
    _dump_json(verdict)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarinvest",
        description="Optimal solar-capacity installation under price impact: "
                    "boundary solver, value queries, and Monte Carlo checks.")
    parser.add_argument("--config", help="JSON parameter file (default: built-in preset)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for simulation")
    parser.add_argument("--out", default="out", help="output directory for artifacts")
    parser.add_argument("--steps", type=int, default=2000,
                        help="boundary ODE grid steps (default 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("boundary", help="solve the free boundary, export CSV/JSON")
    sub.add_parser("classify", help="report the line-of-means regime")

    p_value = sub.add_parser("value", help="evaluate the value function at a state")
    p_value.add_argument("--x", type=float, required=True)
    p_value.add_argument("--y", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification report")
    p_sim.add_argument("--paths", type=int, default=10000)
    p_sim.add_argument("--dt", type=float, default=0.01)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--trace-paths", type=int, default=0,
                       help="write t,X,Y,cum_cost traces for the first k paths")

    p_sens = sub.add_parser("sensitivity", help="boundary sweep over one parameter")
    p_sens.add_argument("--param", required=True)
    p_sens.add_argument("--values", required=True,
                        help="comma-separated parameter values")
    return parser


_COMMANDS = {
    "boundary": cmd_boundary,
    "classify": cmd_classify,
    "value": cmd_value,
    "simulate": cmd_simulate,
    "sensitivity": cmd_sensitivity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.steps < bd.MIN_STEPS:
            raise ConfigurationError(f"--steps must be >= {bd.MIN_STEPS}, got {args.steps}")
        if args.steps > bd.max_steps():
            raise ConfigurationError(
                f"--steps must be <= {bd.max_steps()}, the finest grid that fits in "
                f"physical memory, got {args.steps}")
        return _COMMANDS[args.command](args)
    except (ValidationError, ConfigurationError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolarInvestError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
