"""Property: any parameter set in the fuzz box solves or fails typed.

A draw either yields a boundary and value function whose grids are finite,
or raises a :class:`SolarInvestError` (which the CLI maps to exit 2 or 4);
it never escapes as an untyped exception or a NaN.  The same holds for the
mu=1.4 preset with any one field set to 1e-300, 1e-8, 1e8 or 1e300.  The
command line, run on the fuzz box, returns 0, 2 or 4 and never raises.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solarinvest import (FundamentalSolution, SolarInvestError, ValueFunction,
                         integrate_boundary, params_from_dict, table_preset)
from solarinvest.cli import main

from conftest import FUZZ_BOX


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
