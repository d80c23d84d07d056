"""Property: any parameter set in the fuzz box solves or fails typed.

A draw either yields a boundary and value function whose grids are finite,
or raises a :class:`SolarInvestError` (which the CLI maps to exit 2 or 4);
it never escapes as an untyped exception or a NaN.  The same holds for the
mu=1.4 preset with any one field set to 1e-300, 1e-8, 1e8 or 1e300, and
for every public scalar argument given a value that is not a usable real
number (a str, a bool, NaN, an integer beyond float64, ...).  The
command line, run on the fuzz box, returns 0, 2 or 4 and never raises.  An
admitted set is also right where it is checked: A > 0 below y_bar, and w, its
partials and the HJB residual finite and in criterion 4's pattern on a state
scan that reaches far into the waiting region and up to y_bar.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solarinvest import (FixedThreshold, FundamentalSolution, NeverInstall, SolarInvestError,
                         ValueFunction, estimate_value, integrate_boundary, params_from_dict,
                         r_partials, r_value, simulate_path, table_preset)
from solarinvest.cli import main

from conftest import FUZZ_BOX, fuzz_draw
from oracles import hjb_residual_two_pass, partials_two_lookup


def check_solves_finite_or_raises_typed(make_params):
    try:
        params = make_params()
        fs = FundamentalSolution(params)
        fb = integrate_boundary(params, fs, n_steps=200)
        vf = ValueFunction(params, fs, fb)
    except SolarInvestError:
        return
    assert np.isfinite(fb.f_tilde).all()
    assert np.isfinite(vf.a_grid).all()


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({name: st.floats(lo, hi)
                              for name, (lo, hi) in FUZZ_BOX.items()}))
def test_solves_finite_or_raises_typed(data):
    check_solves_finite_or_raises_typed(lambda: params_from_dict(data))


# every field of the mu=1.4 preset set, one at a time, to magnitudes from
# 1e-300 to 1e300; mu also to negative ones
EXTREMES = [(name, v) for name in FUZZ_BOX for v in (1e-300, 1e-8, 1e8, 1e300)]
EXTREMES += [("mu", -1e8), ("mu", -1e300)]


@pytest.mark.parametrize("name,value", EXTREMES)
def test_extreme_field_solves_finite_or_raises_typed(name, value):
    check_solves_finite_or_raises_typed(lambda: replace(table_preset(1.4), **{name: value}))


# values a scalar argument may be handed that are not usable real numbers
NON_NUMBERS = {"str": "1", "Decimal": Decimal("1.2"), "bool": True, "int_beyond_float64": 10**400,
               "nan": math.nan, "inf": math.inf, "array": np.array([1.0]), "None": None,
               "complex": 1 + 0j}
# the price of R and its partials, and a fixed threshold, may be NaN or infinite
ANSWERED = {(entry, name) for entry in ("r_value x", "r_partials x", "FixedThreshold")
            for name in ("nan", "inf")}


def test_scalar_arguments_refused_typed(base):
    # each public scalar argument, the others valid: the state (1, 1) and
    # two paths of two Monte Carlo steps
    params, fs, fb, vf = base
    never = NeverInstall()
    entries = {
        "f y": fb.f, "f_inverse x": fb.f_inverse,
        "region x": lambda v: fb.region(v, 1.0), "region y": lambda v: fb.region(1.0, v),
        "lump_target x": lambda v: fb.lump_target(v, 1.0),
        "lump_target y": lambda v: fb.lump_target(1.0, v),
        "a y": vf.a, "w x": lambda v: vf.w(v, 1.0), "w y": lambda v: vf.w(1.0, v),
        "partials x": lambda v: vf.partials(v, 1.0), "partials y": lambda v: vf.partials(1.0, v),
        "hjb_residual x": lambda v: vf.hjb_residual(v, 1.0),
        "hjb_residual y": lambda v: vf.hjb_residual(1.0, v),
        "psi x": fs.psi, "log_psi_ratios x": fs.log_psi_ratios,
        "r_value x": lambda v: r_value(params, v, 1.0),
        "r_value y": lambda v: r_value(params, 1.0, v),
        "r_partials x": lambda v: r_partials(params, v, 1.0),
        "r_partials y": lambda v: r_partials(params, 1.0, v),
        "integrate_boundary n_steps": lambda v: integrate_boundary(params, fs, n_steps=v),
        "FixedThreshold": FixedThreshold,
        "estimate_value n_paths": lambda v: estimate_value(params, never, 1.0, 1.0, v, 0.5, 1.0),
        "estimate_value dt": lambda v: estimate_value(params, never, 1.0, 1.0, 2, v, 1.0),
        "estimate_value seed": lambda v: estimate_value(params, never, 1.0, 1.0, 2, 0.5, 1.0,
                                                        seed=v),
        "simulate_path path_index": lambda v: simulate_path(params, never, 1.0, 1.0, 0.5, 1.0,
                                                            0, path_index=v),
    }
    escaped, answered = [], set()
    for entry, call in entries.items():
        for name, value in NON_NUMBERS.items():
            try:
                call(value)
            except SolarInvestError:
                continue
            except Exception as exc:
                escaped.append((entry, name, f"{type(exc).__name__}: {exc}"))
                continue
            answered.add((entry, name))
    assert not escaped
    assert answered == ANSWERED


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({name: st.floats(lo, hi)
                              for name, (lo, hi) in FUZZ_BOX.items()}))
def test_cli_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "params.json"
        cfg.write_text(json.dumps(data))
        base = ["--config", str(cfg), "--steps", "200"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            classify = main(base + ["classify"])
            value = main(base + ["value", "--x", "0.5", "--y", "0.1"])
    assert classify in (0, 2, 4)
    assert value in (0, 2, 4)


def admitted_fuzz_sets(count=12, steps=2000, pinned=(24,)):
    """{index: vf} for the first ``count`` seed-0 fuzz draws that solve at
    ``steps``, plus the ``pinned`` draws, which must solve."""
    def solve(index):
        params = params_from_dict(fuzz_draw(index))
        fs = FundamentalSolution(params)
        return ValueFunction(params, fs, integrate_boundary(params, fs, n_steps=steps))

    out, index = {}, 0
    while len(out) < count:
        try:
            out[index] = solve(index)
        except SolarInvestError:
            pass
        index += 1
    for index in pinned:
        if index not in out:
            out[index] = solve(index)
    return out


def test_admitted_sets_are_right_on_a_state_scan():
    # 12 x 12 states: y over [0, y_bar), x from F(0) - 3 sd to x_bar + 3 sd
    # with sd the stationary deviation; the VI tolerances are the benchmark
    # query check's
    bad = []
    for index, vf in admitted_fuzz_sets().items():
        p, fb = vf.params, vf.fb
        if not (vf.a_grid[:-1] > 0.0).all():
            bad.append((index, "A <= 0 on the grid"))
        sd = p.sigma / math.sqrt(2.0 * p.kappa)
        for y in np.linspace(0.0, p.y_bar, 12, endpoint=False):
            y = float(y)
            if not vf.a(y) > 0.0:
                bad.append((index, y, "A <= 0"))
            for x in np.linspace(fb.x0 - 3.0 * sd, fb.x_bar + 3.0 * sd, 12):
                x = float(x)
                w = vf.w(x, y)
                partials = vf.partials(x, y)
                pde, grad = vf.hjb_residual(x, y)
                if not all(map(math.isfinite, (w, *partials, pde, grad))):
                    bad.append((index, x, y, "not finite"))
                    continue
                scale = 1.0 + abs(w)
                if not (pde <= 1e-6 * scale and grad <= 1e-8
                        and (abs(pde) <= 1e-6 * scale or abs(grad) <= 1e-8)):
                    bad.append((index, x, y, "variational inequality", pde, grad))
                if (pde, grad) != hjb_residual_two_pass(vf, x, y):
                    bad.append((index, x, y, "one-pass residual differs from two-pass"))
                if partials != partials_two_lookup(vf, x, y):
                    bad.append((index, x, y, "partials differ from the two-lookup route"))
    assert not bad
