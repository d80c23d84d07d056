"""Property: any parameter set in the fuzz box solves or fails typed.

A draw either yields a boundary and value function whose grids are finite,
or raises a :class:`SolarInvestError` (which the CLI maps to exit 2 or 4);
it never escapes as an untyped exception or a NaN.  The command line, run on
the same box, returns 0, 2 or 4 and never raises.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solarinvest import (FundamentalSolution, SolarInvestError, ValueFunction,
                         integrate_boundary, params_from_dict)
from solarinvest.cli import main

# the parameter box of the benchmark's fuzz workload (perfbench/workloads.py,
# FUZZ_BOX); copied, not imported, so the tests do not depend on the benchmark
FUZZ_BOX = {
    "kappa": (0.05, 2.0),
    "rho": (0.01, 0.2),
    "mu": (-1.0, 3.0),
    "sigma": (0.1, 1.5),
    "c": (0.0, 2.0),
    "beta": (0.02, 0.5),
    "y_bar": (0.5, 10.0),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({name: st.floats(lo, hi)
                              for name, (lo, hi) in FUZZ_BOX.items()}))
def test_solves_finite_or_raises_typed(data):
    try:
        params = params_from_dict(data)
        fs = FundamentalSolution(params)
        fb = integrate_boundary(params, fs, n_steps=200)
        vf = ValueFunction(params, fs, fb)
    except SolarInvestError:
        return
    assert np.isfinite(fb.f_tilde).all()
    assert np.isfinite(vf.a_grid).all()


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
