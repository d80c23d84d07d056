import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from solarinvest import (ConfigurationError, DomainError, FundamentalSolution, ModelParams,
                         OptimalReflection, ValidationError, ValueFunction, classify_regime,
                         dominance_report, integrate_boundary, ode_rhs, params_from_dict,
                         params_from_json, r_partials, r_value, solve_x_tilde, table_preset,
                         y_star)

from conftest import central_diff, rel_err

TABLE = dict(kappa=0.10, mu=0.20, sigma=0.50, rho=0.05, c=0.30, beta=0.15, y_bar=5.0)


class TestValidation:
    def test_table_preset_accepted(self):
        p = params_from_dict(TABLE)
        assert p.kappa == 0.10 and p.y_bar == 5.0 and p.alpha == 1.0

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValidationError) as exc:
            params_from_dict({**TABLE, "sigma": 0.0})
        assert exc.value.field == "sigma"

    @pytest.mark.parametrize("field", ["kappa", "rho", "beta", "y_bar"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValidationError) as exc:
            params_from_dict({**TABLE, field: -0.1})
        assert exc.value.field == field

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError) as exc:
            params_from_dict({**TABLE, "c": -1.0})
        assert exc.value.field == "c"

    def test_alpha_normalization(self):
        p = params_from_dict({**TABLE, "alpha": 2.0, "c": 0.6})
        assert p.c == pytest.approx(0.3)
        assert p.alpha == 1.0

    def test_missing_alpha_defaults_to_one(self):
        p = params_from_dict(TABLE)
        assert p.alpha == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            params_from_dict({**TABLE, "gamma": 1.0})

    def test_unknown_keys_of_mixed_types_rejected(self):
        # sorting a str and an int key used to escape as TypeError
        with pytest.raises(ValidationError, match="unknown parameter") as exc:
            params_from_dict({**TABLE, 1: 2.0, "zz": 3.0})
        assert exc.value.field == 1

    def test_missing_key_rejected(self):
        data = dict(TABLE)
        del data["beta"]
        with pytest.raises(ValidationError) as exc:
            params_from_dict(data)
        assert exc.value.field == "beta"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            ModelParams(**{**TABLE, "mu": math.nan})

    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["plus", "minus"])
    def test_integer_beyond_float_range_rejected(self, value, tmp_path):
        # float() raises OverflowError on it, and JSON reads such a literal as an int
        with pytest.raises(ValidationError, match="must be finite") as exc:
            params_from_dict({**TABLE, "kappa": value})
        assert exc.value.field == "kappa"
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**TABLE, "kappa": "big"}).replace('"big"', str(value)))
        with pytest.raises(ValidationError, match="kappa: must be finite"):
            params_from_json(path)

    def test_overflowing_effective_cost_rejected(self):
        with pytest.raises(ValidationError, match=r"c/alpha = 10000000000.0/1e-300") as exc:
            params_from_dict({**TABLE, "c": 1e10, "alpha": 1e-300})
        assert exc.value.field == "c"

    @pytest.mark.parametrize("value", [True, False, "0.05", None, [0.05]])
    def test_non_numeric_rejected_naming_field(self, value):
        with pytest.raises(ValidationError) as exc:
            params_from_dict({**TABLE, "rho": value})
        assert exc.value.field == "rho"

    def test_numpy_scalars_accepted_as_floats(self):
        p = params_from_dict({**TABLE, "kappa": np.float64(0.1), "y_bar": np.int64(5)})
        assert type(p.kappa) is float and type(p.y_bar) is float and p.y_bar == 5.0

    def test_direct_construction_checked_and_normalised(self):
        # a set built directly folds alpha as params_from_dict does, and
        # solves with the effective cost c/alpha = 0.15
        data = {**TABLE, "mu": 1.4, "alpha": 2.0}
        p = ModelParams(**data)
        assert p == params_from_dict(data)
        assert (p.c, p.alpha) == (0.15, 1.0)
        fb = integrate_boundary(p, FundamentalSolution(p), n_steps=2000)
        assert fb.x_tilde == 2.352738238595615

    @pytest.mark.parametrize("field,value", [("c", -1.0), ("c", True), ("kappa", "0.1"),
                                             ("mu", math.inf)])
    def test_direct_construction_refused_naming_field(self, field, value):
        with pytest.raises(ValidationError) as exc:
            ModelParams(**{**TABLE, field: value})
        assert exc.value.field == field

    def test_replace_is_checked_and_keeps_the_folded_cost(self):
        p = params_from_dict({**TABLE, "alpha": 2.0})
        assert replace(p, mu=1.4) == params_from_dict({**TABLE, "mu": 1.4, "alpha": 2.0})
        with pytest.raises(ValidationError) as exc:
            replace(p, sigma=-0.5)
        assert exc.value.field == "sigma"

    def test_first_offending_field_in_declaration_order(self):
        with pytest.raises(ValidationError) as exc:
            ModelParams(**{**TABLE, "c": -1.0, "beta": 0.0, "kappa": math.nan})
        assert exc.value.field == "kappa"
        with pytest.raises(ValidationError) as exc:
            ModelParams(**{**TABLE, "c": -1.0, "beta": 0.0})
        assert exc.value.field == "c"

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(TABLE))
        p = params_from_json(path)
        assert asdict(p) == asdict(params_from_dict(TABLE))

    @pytest.mark.parametrize("data", [None, [1.0, 2.0], "kappa", 3.0])
    def test_non_object_rejected_at_root(self, data, tmp_path):
        # one check serves a direct call and a file that holds no JSON object
        with pytest.raises(ValidationError) as exc:
            params_from_dict(data)
        assert exc.value.field == "<root>"
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            params_from_json(path)
        assert exc.value.field == "<root>"


@pytest.fixture(scope="module")
def params():
    return table_preset(0.2)


class TestNoInstallPayoff:
    def test_zero_capacity_zero_value(self, params):
        for x in (-3.0, 0.0, 7.5):
            assert r_value(params, x, 0.0) == 0.0

    def test_frozen_plugin_value(self, params):
        # derived by hand: 2/0.15 + 0.2*0.1*2/0.0075 - 0.1*0.15*4/0.0075 = 32/3
        assert abs(r_value(params, 1.0, 2.0) - 10.666666666666666) < 1e-9

    def test_out_of_range_capacity(self, params):
        with pytest.raises(DomainError):
            r_value(params, 1.0, params.y_bar + 0.5)
        with pytest.raises(DomainError):
            r_value(params, 1.0, -0.1)

    def test_solves_inhomogeneous_generator_equation(self, params):
        # R has zero second derivative in x, so the residual is drift-only
        p = params
        for x in (-1.0, 0.3, 2.0):
            for y in (0.5, 2.5, 5.0):
                r_y, _, r_x = r_partials(p, x, y)
                res = (p.kappa * ((p.mu - p.beta * y) - x) * r_x
                       - p.rho * r_value(p, x, y) + x * y)
                assert abs(res) < 1e-9 * (1.0 + abs(r_value(p, x, y)))

    def test_linear_in_price(self, params):
        y = 2.0
        vals = [r_value(params, x, y) for x in (0.0, 1.0, 2.0)]
        assert abs((vals[2] - vals[1]) - (vals[1] - vals[0])) < 1e-12

    def test_concave_quadratic_in_capacity(self, params):
        p = params
        x = 1.0
        second = (r_value(p, x, 2.0) - 2 * r_value(p, x, 1.5) + r_value(p, x, 1.0)) / 0.25
        expected = -2.0 * p.kappa * p.beta / (p.rho * (p.rho + p.kappa))
        assert rel_err(second, expected) < 1e-9


class TestPartials:
    def test_cross_partial_frozen(self, params):
        # 1/(rho + kappa) = 1/0.15
        _, r_xy, _ = r_partials(params, 1.0, 2.0)
        assert abs(r_xy - 6.666666666666667) < 1e-12

    def test_capacity_partial_at_zero(self, params):
        p = params
        r_y, _, _ = r_partials(p, 1.3, 0.0)
        expected = 1.3 / (p.rho + p.kappa) + p.mu * p.kappa / (p.rho * (p.rho + p.kappa))
        assert rel_err(r_y, expected) < 1e-12

    def test_partials_match_finite_differences(self, params):
        p = params
        for x in np.linspace(-2.0, 3.0, 10):
            for y in np.linspace(0.2, 4.8, 10):
                r_y, r_xy, r_x = r_partials(p, float(x), float(y))
                fd_y = central_diff(lambda t: r_value(p, float(x), t), float(y), 1e-6)
                fd_x = central_diff(lambda t: r_value(p, t, float(y)), float(x), 1e-6)
                assert rel_err(r_y, fd_y) < 1e-6
                assert rel_err(r_x, fd_x) < 1e-6 or abs(r_x - fd_x) < 1e-9
                fd_xy = central_diff(
                    lambda t: r_partials(p, t, float(y))[0], float(x), 1e-6)
                assert rel_err(r_xy, fd_xy) < 1e-6

    def test_out_of_range_capacity(self, params):
        # r_partials used to answer beyond y_bar, where r_value refuses
        for y in (params.y_bar + 0.5, -0.1):
            with pytest.raises(DomainError, match="outside"):
                r_partials(params, 1.0, y)



# each takes the (params, fs, fb, vf) of one solve and reads the slots it names
SOLVE_CALLS = {
    "solve_x_tilde": lambda p, fs, fb, vf: solve_x_tilde(p, fs),
    "integrate_boundary": lambda p, fs, fb, vf: integrate_boundary(p, fs, 400),
    "ode_rhs": lambda p, fs, fb, vf: ode_rhs(p, fs, p.y_bar, fb.x_tilde),
    "y_star": lambda p, fs, fb, vf: y_star(p, fs),
    "classify_regime": lambda p, fs, fb, vf: classify_regime(p, fb, fs),
    "ValueFunction": lambda p, fs, fb, vf: ValueFunction(p, fs, fb),
    "OptimalReflection": lambda p, fs, fb, vf: OptimalReflection(p, fb),
    "dominance_report": lambda p, fs, fb, vf: dominance_report(
        p, fb, vf, [(fb.x0, 0.0)], n_paths=2, dt=0.5, horizon=1.0),
}


class TestSameParams:
    @pytest.mark.parametrize("call,slot", [
        ("solve_x_tilde", 1), ("integrate_boundary", 1), ("ode_rhs", 1), ("y_star", 1),
        ("classify_regime", 1), ("classify_regime", 2), ("ValueFunction", 1),
        ("ValueFunction", 2), ("OptimalReflection", 2), ("dominance_report", 2),
        ("dominance_report", 3)])
    def test_mixed_parameter_sets_refused(self, solved, call, slot):
        # the mu = 0.2 solve with one object of the mu = 1.4 solve in its
        # place is refused, naming that object and both sets; an equal but
        # separate mu = 0.2 parameter set is accepted
        params, *built = solved[0.2]
        other = solved[1.4][slot]
        mixed = [params, *built]
        mixed[slot] = other
        with pytest.raises(ConfigurationError) as exc:
            SOLVE_CALLS[call](*mixed)
        assert str(exc.value) == (f"{type(other).__name__} was built for "
                                  f"{other.params}, not for {params}")
        equal = table_preset(0.2)
        assert equal == params and equal is not params
        SOLVE_CALLS[call](equal, *built)
