"""Command-line front end.

Subcommands: ``boundary`` (solve and export the installation threshold),
``value`` (query the value function at a state), ``classify`` (regime of the
line of means), ``simulate`` (Monte Carlo verification report), and
``sensitivity`` (comparative-statics sweep of the boundary).

Each subparser binds its handler through ``set_defaults``.  ``main`` checks
``--steps``, loads the parameters once (``--config`` or the built-in
preset) and calls the handler with them.  Every CSV artefact
(``boundary_grid.csv``, ``path_NNNN.csv``, ``sensitivity_<param>.csv``) is
written by one function, each value at 12 significant digits; the library
itself writes no files.

Every command is deterministic given (config, seed).  Exit codes:
0 success, 2 configuration problem (invalid parameters, unreadable input,
unwritable output), 3 verification failure, 4 any other solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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

# the parameters a sweep accepts, with the boundary-shift direction the sweep
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


def _write_csv(path, header, rows):
    """Write ``header`` and one line per row, each value at 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def cmd_boundary(args, params) -> int:
    fs, fb = _solve(params, args.steps)
    vf = ValueFunction(params, fs, fb)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "boundary_grid.csv", "y,F_tilde,F", zip(fb.ys, fb.f_tilde, fb.f_grid))
    _dump_json(vf.summary_dict(), out / "value_function.json")
    payload = _regime_payload(params, fs, fb)
    payload.update({"x_tilde": fb.x_tilde, "x0": fb.x0, "x_bar": fb.x_bar,
                    "artifacts": [str(out / "boundary_grid.csv"),
                                  str(out / "value_function.json")]})
    _dump_json(payload)
    return EXIT_OK


def cmd_classify(args, params) -> int:
    fs, fb = _solve(params, args.steps)
    _dump_json(_regime_payload(params, fs, fb))
    return EXIT_OK


def cmd_value(args, params) -> int:
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


def cmd_simulate(args, params) -> int:
    if not 0 <= args.trace_paths <= args.paths:
        raise ConfigurationError(
            f"--trace-paths must be in [0, --paths={args.paths}], got {args.trace_paths}")
    fs, fb = _solve(params, args.steps)
    vf = ValueFunction(params, fs, fb)
    states = verification_states(fb)
    report = dominance_report(params, fb, vf, states, n_paths=args.paths,
                              dt=args.dt, horizon=args.horizon, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(report, out / "simulation_report.json")
    policy = OptimalReflection(params, fb)
    x0, y0 = states[0]
    horizon = report["settings"]["horizon"]
    for i in range(args.trace_paths):
        rec = simulate_path(params, policy, x0, y0, dt=args.dt,
                            horizon=horizon, seed=args.seed, path_index=i)
        _write_csv(out / f"path_{i:04d}.csv", "t,X,Y,cum_cost",
                   zip(rec.t, rec.x, rec.y, rec.cum_cost))
    _dump_json(report)
    if not report["all_passed"]:
        failing = next(c for c in report["checks"] if not c["passed"])
        print(f"verification failed: {failing['name']} "
              f"(gap {failing['gap']:.6g}, tolerance {failing['tolerance']:.6g})",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _check_swept(name) -> None:
    if name not in SWEEP_DIRECTIONS:
        raise ValidationError(name, f"not a swept parameter, one of {sorted(SWEEP_DIRECTIONS)}")


def sweep_boundaries(params, name, values, n_steps):
    """Solve the boundary for each parameter value; aborts naming the value
    whose solve failed.  A name outside ``SWEEP_DIRECTIONS`` raises
    :class:`ValidationError`."""
    _check_swept(name)
    solved = []
    for v in values:
        try:
            fs, fb = _solve(dataclasses.replace(params, **{name: v}), n_steps)
        except SolarInvestError as exc:
            exc.args = (f"sweep {name}={v}: {exc}",)
            raise
        solved.append((v, fb))
    return solved


def sweep_verdict(name, solved) -> dict:
    """Direction of the pointwise-in-y shift of F across consecutive values:
    increasing (decreasing) when every shift is positive (negative) at every
    y, crossing otherwise and always for kappa.  A name outside
    ``SWEEP_DIRECTIONS`` raises :class:`ValidationError`, fewer than two
    solved curves :class:`ConfigurationError`."""
    _check_swept(name)
    if len(solved) < 2:
        raise ConfigurationError(f"sweep {name}: needs two or more curves, got {len(solved)}")
    y_lo = min(fb.params.y_bar for _, fb in solved)
    y_common = np.linspace(0.0, y_lo, 201)
    curves = [fb.f_values(y_common) for _, fb in solved]
    shifts = [hi - lo for lo, hi in zip(curves, curves[1:])]
    if name != "kappa" and all(np.all(d > 0) for d in shifts):
        observed = "increasing"
    elif name != "kappa" and all(np.all(d < 0) for d in shifts):
        observed = "decreasing"
    else:
        observed = "crossing"
    return {
        "param": name,
        "observed": observed,
        "expected": SWEEP_DIRECTIONS[name],
        "consistent": observed == SWEEP_DIRECTIONS[name],
    }


def cmd_sensitivity(args, params) -> int:
    name = args.param
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
    _write_csv(csv_path, "param_value,y,F",
               ((v, y, f_val) for v, fb in solved for y, f_val in zip(fb.ys, fb.f_grid)))
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

    sub.add_parser("boundary", help="solve the free boundary, export CSV/JSON").set_defaults(
        handler=cmd_boundary)
    sub.add_parser("classify", help="report the line-of-means regime").set_defaults(
        handler=cmd_classify)

    p_value = sub.add_parser("value", help="evaluate the value function at a state")
    p_value.set_defaults(handler=cmd_value)
    p_value.add_argument("--x", type=float, required=True)
    p_value.add_argument("--y", type=float, required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification report")
    p_sim.set_defaults(handler=cmd_simulate)
    p_sim.add_argument("--paths", type=int, default=10000)
    p_sim.add_argument("--dt", type=float, default=0.01)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--trace-paths", type=int, default=0,
                       help="write t,X,Y,cum_cost traces for the first k paths")

    p_sens = sub.add_parser("sensitivity", help="boundary sweep over one parameter")
    p_sens.set_defaults(handler=cmd_sensitivity)
    p_sens.add_argument("--param", required=True)
    p_sens.add_argument("--values", required=True,
                        help="comma-separated parameter values")
    return parser


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
        params = model.params_from_json(args.config) if args.config else model.table_preset()
        return args.handler(args, params)
    except (ValidationError, ConfigurationError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolarInvestError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
