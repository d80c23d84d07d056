import json
from pathlib import Path

import pytest

from solarinvest import (ConfigurationError, SolarInvestError, ValidationError, cli,
                         table_preset)
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

    def test_integer_beyond_float_range_is_a_configuration_error(self, tmp_path, capsys):
        # a JSON integer literal float64 cannot hold: float() raised OverflowError
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**MU14, "kappa": "big"}).replace('"big"', "1" + "0" * 400))
        assert main(["--config", str(path), "classify"]) == 2
        assert "kappa: must be finite" in capsys.readouterr().err

    def test_overflowing_effective_cost_is_a_configuration_error(self, tmp_path, capsys):
        # c/alpha = inf reached the anchor solve, which exited 4
        cfg = write_config(tmp_path, {**MU14, "c": 1e10, "alpha": 1e-300})
        assert main(["--config", cfg, "classify"]) == 2
        assert "c/alpha" in capsys.readouterr().err

    def test_grid_beyond_physical_memory_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--steps", "100000000000", "--out", str(out), "boundary"]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("x,y", [("1e308", "1.0"), ("1e307", "0.5")])
    def test_overflowed_value_is_a_numerical_failure(self, capsys, x, y):
        # R(x, y) overflows float64: no payload with "w": null, exit 4
        assert main(["--steps", "200", "value", "--x", x, "--y", y]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "w = inf, not finite" in captured.err

    def test_state_far_below_the_mean(self, capsys):
        # psi'''/psi rounds negative near x = -1e6; the value layer reads
        # psi up to psi'' and answers
        assert main(["--steps", "200", "value", "--x=-1e6", "--y", "1.0"]) == 0
        payload = last_json(capsys)
        assert payload["region"] == "W"
        assert payload["gradient_term"] < 0.0

    def test_cell_outside_float64_is_a_numerical_failure(self, capsys):
        # x is finite, but its panel cell index z / width overflows float64
        assert main(["--steps", "200", "value", "--x=-1.5e308", "--y", "1.0"]) == 4
        assert "numerical failure" in capsys.readouterr().err


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

    def test_report_is_standard_json(self, tmp_path, capsys):
        # never_install's mean_first_install_time is NaN in the report; it
        # must come out as null, not as a NaN token strict parsers reject
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code = main(["--steps", "200", "--out", str(tmp_path / "si"), "simulate",
                     "--paths", "200", "--dt", "0.05"])
        assert code == 0
        text = (tmp_path / "si" / "simulation_report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert json.loads(capsys.readouterr().out, parse_constant=reject) == report
        for state in report["states"]:
            assert state["never_install"]["mean_first_install_time"] is None

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
        # one path leaves the paired standard errors undefined (NaN)
        assert main(["--steps", "200", "simulate", "--paths", "1", "--dt", "0.1"]) == 2
        assert "n_paths" in capsys.readouterr().err

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        code = main(["--steps", "300", "--seed", "-1", "--out", str(tmp_path),
                     "simulate", "--paths", "4"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_paths_beyond_physical_memory_usage_error(self, capsys):
        # refused before anything is allocated: the result arrays alone take 2.16 PB
        assert main(["--steps", "200", "simulate", "--paths", "10000000000000",
                     "--dt", "0.1", "--horizon", "1.0"]) == 2
        assert "physical memory" in capsys.readouterr().err

    def test_infinite_horizon_usage_error(self, tmp_path, capsys):
        code = main(["--steps", "300", "--out", str(tmp_path), "simulate",
                     "--paths", "4", "--horizon", "inf"])
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--dt", "5e-324"), ("--horizon", "1e308")])
    def test_non_finite_step_count_usage_error(self, capsys, flag, value):
        code = main(["--steps", "200", "simulate", "--paths", "10", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert "horizon" in err and "dt" in err and "= inf" in err

    def test_step_count_beyond_stream_usage_error(self, capsys):
        # about 1e301 finite steps: refused before a single one is stepped
        code = main(["--steps", "200", "simulate", "--paths", "10", "--dt", "1e-300"])
        assert code == 2
        assert "2**64" in capsys.readouterr().err

    @pytest.mark.parametrize("traces", ["-1", "3"])
    def test_trace_count_outside_paths_usage_error(self, tmp_path, capsys, monkeypatch,
                                                   traces):
        # a trace of a path the report never simulates is refused before the
        # solve, and nothing is written
        def unreachable(*args):
            raise AssertionError("solved before the arguments were checked")

        monkeypatch.setattr(cli, "_solve", unreachable)
        code = main(["--steps", "200", "--out", str(tmp_path / "tr"), "simulate",
                     "--paths", "2", "--trace-paths", traces])
        assert code == 2
        assert "--trace-paths must be in [0, --paths=2]" in capsys.readouterr().err
        assert not (tmp_path / "tr").exists()

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

    def test_empty_out_writes_into_working_directory(self, tmp_path, capsys, monkeypatch):
        # "" is the working directory, as for boundary and sensitivity; the
        # report and traces used to be skipped without a message
        monkeypatch.chdir(tmp_path)
        code = main(["--steps", "200", "--out", "", "simulate", "--paths", "20",
                     "--dt", "0.5", "--trace-paths", "1"])
        assert code in (0, 3)  # statistical checks are not the point here
        report = json.loads((tmp_path / "simulation_report.json").read_text())
        assert report == last_json(capsys)
        assert (tmp_path / "path_0000.csv").read_text().startswith("t,X,Y,cum_cost\n")

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

    def test_field_outside_sweep_table_rejected(self, tmp_path, capsys):
        # alpha is a field, but no sweep direction is known for it
        assert main(["--out", str(tmp_path), "sensitivity",
                     "--param", "alpha", "--values", "1,2"]) == 2
        assert "alpha: not a swept parameter" in capsys.readouterr().err
        assert not (tmp_path / "sensitivity_alpha.csv").exists()

    def test_bad_values_rejected(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "sensitivity",
                     "--param", "sigma", "--values", "a,b"]) == 2

    def test_verdict_does_not_depend_on_value_order(self, tmp_path, capsys):
        runs = []
        for values in ("0.5,0.6,0.7", "0.7,0.6,0.5"):
            assert main(["--steps", "200", "--out", str(tmp_path / values), "sensitivity",
                         "--param", "sigma", "--values", values]) == 0
            payload = last_json(capsys)
            csv = Path(payload.pop("csv")).read_text()
            runs.append((payload, csv))
        assert runs[0] == runs[1]
        assert runs[0][0]["observed"] == "increasing" and runs[0][0]["consistent"]

    @pytest.mark.parametrize("values", ["0.5", "0.5,0.5"])
    def test_fewer_than_two_distinct_values_rejected(self, tmp_path, capsys, values):
        assert main(["--steps", "200", "--out", str(tmp_path), "sensitivity",
                     "--param", "sigma", "--values", values]) == 2
        assert "two distinct" in capsys.readouterr().err

    def test_verdict_refuses_fewer_than_two_curves(self):
        # one curve used to read "increasing" and consistent; none raised ValueError
        solved = cli.sweep_boundaries(table_preset(0.2), "sigma", [0.5], 200)
        for curves in (solved, []):
            with pytest.raises(ConfigurationError, match="two or more curves"):
                cli.sweep_verdict("sigma", curves)

    def test_sweep_of_unknown_field_names_it(self):
        with pytest.raises(ValidationError) as exc:
            cli.sweep_boundaries(table_preset(0.2), "nope", [1.0], 200)
        assert exc.value.field == "nope"

    def test_sweep_of_field_outside_sweep_table_names_it(self):
        # sweep_verdict used to raise KeyError for alpha after the sweep had run
        solved = cli.sweep_boundaries(table_preset(0.2), "sigma", [0.5, 0.6], 200)
        for call in (lambda: cli.sweep_boundaries(table_preset(0.2), "alpha", [1.0, 2.0], 200),
                     lambda: cli.sweep_verdict("alpha", solved)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert exc.value.field == "alpha"

    def test_failed_solve_names_swept_value(self):
        with pytest.raises(SolarInvestError, match=r"^sweep rho=0\.001: "):
            cli.sweep_boundaries(table_preset(0.2), "rho", [0.05, 0.001], 200)
