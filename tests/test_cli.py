import json

import pytest

from solarinvest.cli import main

MU14 = {"kappa": 0.1, "mu": 1.4, "sigma": 0.5, "rho": 0.05, "c": 0.3,
        "beta": 0.15, "y_bar": 5.0}


def write_config(tmp_path, data, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def last_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestBoundaryCommand:
    def test_default_preset_regime(self, tmp_path, capsys):
        code = main(["--steps", "400", "--out", str(tmp_path / "run"), "boundary"])
        assert code == 0
        payload = last_json(capsys)
        assert payload["regime"] == "NoIntersection"
        assert (tmp_path / "run" / "boundary_grid.csv").exists()
        assert (tmp_path / "run" / "value_function.json").exists()

    def test_outputs_byte_identical_across_reruns(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            assert main(["--steps", "300", "--out", str(tmp_path / name), "boundary"]) == 0
            capsys.readouterr()
            outs.append((
                (tmp_path / name / "boundary_grid.csv").read_bytes(),
                (tmp_path / name / "value_function.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_invalid_params_exit_code_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MU14, "sigma": 0.0})
        code = main(["--config", cfg, "--steps", "300", "--out", str(tmp_path), "boundary"])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    def test_boolean_param_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MU14, "rho": True})
        code = main(["--config", cfg, "--steps", "300", "--out", str(tmp_path), "boundary"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"), "classify"])
        assert code == 2

    def test_directory_as_config_is_a_configuration_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "classify"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_utf8_config_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_bytes(b'{"mu": "\xff\xfe"}')
        assert main(["--config", str(cfg), "classify"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_existing_file_as_out_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["--steps", "200", "--out", str(out), "boundary"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestClassifyCommand:
    @pytest.mark.parametrize("mu,regime", [
        (0.2, "NoIntersection"),
        (1.4, "IntersectsBoundary"),
        (2.25, "IntersectsUpperBound"),
    ])
    def test_regimes(self, tmp_path, capsys, mu, regime):
        cfg = write_config(tmp_path, {**MU14, "mu": mu})
        assert main(["--config", cfg, "--steps", "400", "classify"]) == 0
        payload = last_json(capsys)
        assert payload["regime"] == regime
        assert payload["tie"] is False
        assert {"y_star", "f0", "mu"} <= set(payload)

    @pytest.mark.parametrize("steps", ["50", "0"])
    def test_too_few_steps_is_a_configuration_error(self, capsys, steps):
        assert main(["--steps", steps, "classify"]) == 2
        assert "--steps" in capsys.readouterr().err


class TestValueCommand:
    def test_waiting_state_query(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MU14)
        assert main(["--config", cfg, "--steps", "400", "value",
                     "--x", "0.8", "--y", "1.0"]) == 0
        payload = last_json(capsys)
        assert payload["region"] == "W"
        assert abs(payload["pde_term"]) < 1e-9 * (1.0 + abs(payload["w"]))
        assert payload["gradient_term"] < 0.0

    def test_capacity_state_has_no_residuals(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MU14)
        assert main(["--config", cfg, "--steps", "400", "value",
                     "--x", "0.8", "--y", "5.0"]) == 0
        payload = last_json(capsys)
        assert "pde_term" not in payload

    @pytest.mark.parametrize("x,y,flag", [("1.0", "9", "--y"), ("1.0", "-0.5", "--y"),
                                          ("nan", "1.0", "--x"), ("1.0", "nan", "--y")])
    def test_state_outside_domain_is_a_configuration_error(self, capsys, x, y, flag):
        assert main(["value", "--x", x, "--y", y]) == 2
        assert flag in capsys.readouterr().err


class TestSimulateCommand:
    def test_small_run_passes_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MU14)
        code = main(["--config", cfg, "--steps", "400", "--seed", "7",
                     "--out", str(tmp_path / "sim"), "simulate",
                     "--paths", "400", "--dt", "0.02"])
        payload = last_json(capsys)
        assert code == 0, payload["checks"]
        assert payload["all_passed"] is True
        report = json.loads((tmp_path / "sim" / "simulation_report.json").read_text())
        assert report == payload

    def test_seed_changes_estimates_not_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MU14)
        estimates = []
        for seed in ("7", "8"):
            code = main(["--config", cfg, "--steps", "400", "--seed", seed,
                         "--out", str(tmp_path / f"s{seed}"), "simulate",
                         "--paths", "400", "--dt", "0.02"])
            payload = last_json(capsys)
            assert code == 0
            estimates.append(payload["states"][0]["optimal"]["estimate"])
        assert estimates[0] != estimates[1]

    def test_zero_paths_usage_error(self, capsys):
        assert main(["simulate", "--paths", "0"]) == 2

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        code = main(["--steps", "300", "--seed", "-1", "--out", str(tmp_path),
                     "simulate", "--paths", "4"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_infinite_horizon_usage_error(self, tmp_path, capsys):
        code = main(["--steps", "300", "--out", str(tmp_path), "simulate",
                     "--paths", "4", "--horizon", "inf"])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_path_traces_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MU14)
        code = main(["--config", cfg, "--steps", "300", "--seed", "7",
                     "--out", str(tmp_path / "tr"), "simulate",
                     "--paths", "16", "--dt", "0.05", "--horizon", "10",
                     "--trace-paths", "2"])
        assert code in (0, 3)  # statistical checks are not the point here
        for i in range(2):
            lines = (tmp_path / "tr" / f"path_{i:04d}.csv").read_text().splitlines()
            assert lines[0] == "t,X,Y,cum_cost"
            assert len(lines) == 202

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # discount far below the supported ratio to the reversion speed makes
        # the fundamental-solution quadrature refuse, surfacing exit code 4
        cfg = write_config(tmp_path, {**MU14, "rho": 0.001})
        code = main(["--config", cfg, "--steps", "300", "classify"])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err


class TestSensitivityCommand:
    def test_sigma_sweep_increasing(self, tmp_path, capsys):
        code = main(["--steps", "300", "--out", str(tmp_path), "sensitivity",
                     "--param", "sigma", "--values", "0.5,0.6"])
        assert code == 0
        payload = last_json(capsys)
        assert payload["observed"] == "increasing"
        assert payload["consistent"] is True
        lines = (tmp_path / "sensitivity_sigma.csv").read_text().splitlines()
        assert lines[0] == "param_value,y,F"
        assert len(lines) == 1 + 2 * 301

    def test_kappa_sweep_reports_crossing(self, tmp_path, capsys):
        code = main(["--steps", "300", "--out", str(tmp_path), "sensitivity",
                     "--param", "kappa", "--values", "0.1,0.2"])
        assert code == 0
        payload = last_json(capsys)
        assert payload["observed"] == "crossing"

    def test_unknown_param_rejected(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "sensitivity",
                     "--param", "nope", "--values", "1,2"]) == 2

    def test_bad_values_rejected(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "sensitivity",
                     "--param", "sigma", "--values", "a,b"]) == 2
