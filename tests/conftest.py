import functools

import numpy as np
import pytest

from solarinvest import (FundamentalSolution, ValueFunction, integrate_boundary,
                         table_preset)
from solarinvest import fundamental

MUS = (0.2, 1.4, 2.25)


@pytest.fixture(scope="session")
def solved():
    """(params, fs, fb, vf) per long-run mean; solved once for the session."""
    out = {}
    for mu in MUS:
        params = table_preset(mu)
        fs = FundamentalSolution(params)
        fb = integrate_boundary(params, fs, n_steps=2000)
        vf = ValueFunction(params, fs, fb)
        out[mu] = (params, fs, fb, vf)
    return out


@pytest.fixture(scope="session")
def base(solved):
    """The mu = 1.4 case (boundary intersects the line of means)."""
    return solved[1.4]


@pytest.fixture
def fresh_cells(monkeypatch):
    """A function that swaps an empty panel-cell cache of ``maxsize``
    cells (default ``fundamental._CELL_CAP``) in for ``fundamental._cell``
    and returns the list of the (s0, j) that the new cache builds, in
    order; each call starts another.  The old cache comes back after the test."""
    build = fundamental._cell.__wrapped__

    def swap(maxsize=fundamental._CELL_CAP):
        built = []

        def recorded(s0, j):
            built.append((s0, j))
            return build(s0, j)

        monkeypatch.setattr(fundamental, "_cell", functools.lru_cache(maxsize)(recorded))
        return built

    return swap


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture(scope="session")
def y_grid():
    return np.linspace(0.0, 5.0, 21)


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


def fuzz_draw(index):
    """The index-th parameter dict the fuzz workload draws at seed 0: one
    uniform per field, in box order."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        data = {k: float(lo + (hi - lo) * rng.random()) for k, (lo, hi) in FUZZ_BOX.items()}
    return data


# criterion 7's parameter sweeps around the mu = 0.2 preset, solved at 800 steps
CRITERION_7_SWEEPS = {
    "sigma": [0.5, 0.6, 0.7, 0.8],
    "mu": [0.2, 0.3, 0.4, 0.5],
    "beta": [0.15, 0.175, 0.2, 0.225],
    "kappa": [0.1, 0.15, 0.2, 0.25],
    "c": [0.3, 0.8, 1.3, 1.8],
    "rho": [0.035, 0.04, 0.045, 0.05],
    "y_bar": [0.5, 1.0, 2.0, 5.0],
}
