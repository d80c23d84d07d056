import json
import math

import numpy as np
import pytest

from solarinvest import (DomainError, ModelParams, ValidationError, params_from_dict,
                         params_from_json, params_to_dict, r_partials, r_value,
                         table_preset, validate)

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

    def test_missing_key_rejected(self):
        data = dict(TABLE)
        del data["beta"]
        with pytest.raises(ValidationError) as exc:
            params_from_dict(data)
        assert exc.value.field == "beta"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            validate(ModelParams(**{**TABLE, "mu": math.nan}))

    @pytest.mark.parametrize("value", [True, False, "0.05", None, [0.05]])
    def test_non_numeric_rejected_naming_field(self, value):
        with pytest.raises(ValidationError) as exc:
            params_from_dict({**TABLE, "rho": value})
        assert exc.value.field == "rho"

    def test_numpy_scalars_accepted_as_floats(self):
        p = params_from_dict({**TABLE, "kappa": np.float64(0.1), "y_bar": np.int64(5)})
        assert type(p.kappa) is float and type(p.y_bar) is float and p.y_bar == 5.0

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(TABLE))
        p = params_from_json(path)
        assert params_to_dict(p) == params_to_dict(params_from_dict(TABLE))


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

