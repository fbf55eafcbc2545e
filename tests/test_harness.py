"""Harness: config validation, sweeps, CSV schema/determinism, validation suite."""

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qslkit
from qslkit import harness
from qslkit.cli import main as cli_main
from qslkit.generators import Dephasing
from qslkit.harness import (
    FIG1_THETAS,
    ScenarioConfig,
    auto_targets,
    evaluate_targets,
    fig1,
    fig2,
    fig3,
    format_cell,
    ghz_scaling,
    run_scenario,
    run_to_files,
    validate,
)


class TestScenarioConfig:
    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown config keys: colour, speed"):
            ScenarioConfig.from_dict({"model": "dephasing", "markov": True, "colour": 1, "speed": 2})

    def test_model_required(self):
        with pytest.raises(ValueError, match="model"):
            ScenarioConfig.from_dict({"theta": 0.1})

    def test_invalid_fields_named(self):
        with pytest.raises(ValueError, match="invalid field 'tau_max'"):
            ScenarioConfig.from_dict({"model": "dephasing", "markov": True, "tau_max": -1.0})
        with pytest.raises(ValueError, match="invalid field 'grid_points'"):
            ScenarioConfig.from_dict({"model": "dephasing", "markov": True, "grid_points": 10})
        with pytest.raises(ValueError, match="invalid field 'model'"):
            ScenarioConfig.from_dict({"model": "teleportation"})

    def test_memory_rate_required_without_markov_flag(self):
        with pytest.raises(ValueError, match="invalid field 'gamma'"):
            ScenarioConfig.from_dict({"model": "dissipation"})

    def test_dissipation_horizon_past_memory_divergence_rejected(self):
        with pytest.raises(ValueError, match=r"invalid field 'tau_max'.*t\* = 4\.8368"):
            ScenarioConfig.from_dict({"model": "dissipation", "gamma": 0.5, "tau_max": 6})
        # no divergence for the memoryless branch, for gamma >= 2 Gamma, or for dephasing
        ScenarioConfig.from_dict({"model": "dissipation", "markov": True, "tau_max": 6})
        ScenarioConfig.from_dict({"model": "dissipation", "gamma": 2.5, "tau_max": 6})
        ScenarioConfig.from_dict({"model": "dephasing", "gamma": 0.5, "tau_max": 6})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("markov", "false"),
            ("markov", 0),
            ("grid_points", 2001.5),
            ("grid_points", "2001"),
            ("grid_points", True),
            ("q_grid", 20.0),
            ("n", None),
            ("tau_max", math.inf),
            ("tau_max", math.nan),
            ("tau_max", "3.0"),
            ("theta", False),
            ("gamma", -math.inf),
            ("Gamma", 10**400),
        ],
    )
    def test_strict_field_types(self, field, value):
        raw = {"model": "dephasing", "gamma": 1.0, field: value}
        with pytest.raises(ValueError, match=f"invalid field '{field}'"):
            ScenarioConfig.from_dict(raw)

    def test_seed_is_not_a_config_field(self):
        with pytest.raises(ValueError, match="unknown config keys: seed"):
            ScenarioConfig.from_dict({"model": "dephasing", "markov": True, "seed": 0})

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(
            ["model", "theta", "Gamma", "gamma", "markov", "tau_max", "grid_points", "q_grid", "n",
             "theta0", "theta_rate", "alpha0", "alpha_rate"]
        ),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
            max_leaves=3,
        ),
    )
    def test_parsing_accepts_typed_values_or_names_the_field(self, field, value):
        try:
            cfg = ScenarioConfig.from_dict({"model": "dephasing", "gamma": 1.0, field: value})
        except ValueError as err:
            assert f"'{field}'" in str(err)
            return
        assert isinstance(cfg.markov, bool)
        for name in ("grid_points", "q_grid", "n"):
            assert isinstance(getattr(cfg, name), int) and not isinstance(getattr(cfg, name), bool)
        for name in ("theta", "Gamma", "gamma", "tau_max", "theta0", "theta_rate", "alpha0", "alpha_rate"):
            number = getattr(cfg, name)
            assert not isinstance(number, bool) and math.isfinite(number)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "dephasing", "theta": 0.3, "markov": True}))
        cfg = ScenarioConfig.from_json(str(path))
        assert cfg.model == "dephasing" and cfg.markov


class TestRunScenario:
    def test_dephasing_slack_vanishes_at_all_targets(self):
        cfg = ScenarioConfig(
            model="dephasing", theta=math.pi / 8.0, markov=True, tau_max=3.0, grid_points=2001
        )
        result = run_scenario(cfg)
        assert len(result.reports) == cfg.q_grid
        for rep in result.reports:
            assert rep.reached
            assert abs(rep.slack) < 1e-4 * max(1.0, rep.tau_exact)

    def test_unitary_saturation(self):
        cfg = ScenarioConfig(
            model="unitary2l", theta_rate=0.5, alpha0=0.0, tau_max=1.0, grid_points=2001
        )
        result = run_scenario(cfg)
        top = result.reports[-1]
        assert top.tau_q_numeric == pytest.approx(top.tau_exact, rel=1e-4)

    def test_dissipation_memory_ordering(self):
        taus = {}
        for gamma in (0.1, 2.0):
            cfg = ScenarioConfig(
                model="dissipation", theta=math.pi / 4.0, gamma=gamma, tau_max=2.0, grid_points=1001
            )
            result = run_scenario(cfg)
            taus[gamma] = result.reports[5].tau_q_numeric  # shared index, same relative target
        assert taus[0.1] > taus[2.0]

    def test_ghz_model_runs_in_effective_subspace(self):
        cfg = ScenarioConfig(
            model="ghz", theta=math.pi / 8.0, markov=True, n=3, tau_max=0.5, grid_points=501
        )
        result = run_scenario(cfg)
        assert result.trajectory.states[0].shape == (2, 2)
        assert all(rep.reached for rep in result.reports)

    def test_unreached_targets_marked_not_fabricated(self):
        cfg = ScenarioConfig(
            model="dephasing", theta=math.pi / 8.0, markov=True, tau_max=0.5, grid_points=501
        )
        result = run_scenario(cfg)
        reports = evaluate_targets(
            result.trajectory, [0.99], "dephasing", {}, lambda q, t: None
        )
        assert not reports[0].reached
        assert reports[0].tau_exact is None and reports[0].tau_q_numeric is None


    def test_tau_b_norms_computed_once_per_trajectory(self):
        class CountingDephasing(Dephasing):
            calls = 0

            def apply(self, rho, t):
                CountingDephasing.calls += 1
                return super().apply(rho, t)

        cfg = ScenarioConfig(model="dephasing", theta=math.pi / 5.0, gamma=0.5, tau_max=2.0, grid_points=401)
        gen, rho0, grid, closed = harness.build_scenario(cfg)
        traj = harness.propagate(CountingDephasing(gen.memory), rho0, grid)
        CountingDephasing.calls = 0
        reports = evaluate_targets(traj, auto_targets(float(traj.q_samples.max()), 20), "dephasing", {}, closed)
        assert sum(rep.tau_b_avg is not None for rep in reports) == 20
        assert CountingDephasing.calls == len(grid)


class TestCsvEmission:
    def test_format_cell_full_precision(self):
        assert format_cell(1.0) == "1.0000000000000000e+00"
        assert format_cell(None) == "NA"
        assert format_cell(3) == "3"
        assert format_cell(math.inf) == "inf"

    def test_fig1_schema_and_values(self, tmp_path):
        path = tmp_path / "fig1.csv"
        rows = fig1(str(path), grid_points=1001, tau_max=2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,gamma_ratio,q_target,tau_exact,tau_q_numeric,tau_q_closed,tau_b"
        assert len(lines) == 1 + len(rows) == 1 + 3 * 20
        assert len(set(float(r[0]) for r in rows)) == len(FIG1_THETAS)

    def test_fig1_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fig1(str(a), grid_points=501, tau_max=2.0)
        fig1(str(b), grid_points=501, tau_max=2.0)
        assert a.read_bytes() == b.read_bytes()

    def test_fig2_rows_ordered_in_memory_rate(self, tmp_path):
        path = tmp_path / "fig2.csv"
        rows = fig2(str(path), grid_points=2001, tau_max=4.0)
        by_ratio = {}
        for r in rows:
            by_ratio.setdefault(r[1], []).append(r[4])
        ratios = sorted(by_ratio)
        assert len(rows) == 4 * 20
        for k in range(20):
            col = [by_ratio[g][k] for g in ratios]
            assert all(a > b for a, b in zip(col, col[1:]))

    def test_fig3_no_closed_form_column(self, tmp_path):
        path = tmp_path / "fig3.csv"
        rows = fig3(str(path), grid_points=1001, tau_max=2.0)
        assert len(rows) == 4 * 20
        assert all(r[5] is None for r in rows)
        body = path.read_text().splitlines()[1:]
        assert all(line.split(",")[5] == "NA" for line in body)

    def test_fig3_validates_every_ratio_before_propagating(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "propagate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="invalid field 'tau_max'"):
            fig3(str(tmp_path / "fig3.csv"), tau_max=5.0)
        assert calls == []
        assert not (tmp_path / "fig3.csv").exists()

    def test_figures_complete_quickly(self, tmp_path):
        start = time.monotonic()
        fig1(str(tmp_path / "f1.csv"))
        fig2(str(tmp_path / "f2.csv"))
        fig3(str(tmp_path / "f3.csv"))
        assert time.monotonic() - start < 60.0

    def test_run_to_files_emits_report(self, tmp_path):
        cfg = ScenarioConfig(
            model="dissipation", theta=math.pi / 4.0, gamma=2.0, tau_max=1.0, grid_points=501
        )
        out, rep = tmp_path / "run.csv", tmp_path / "run.json"
        run_to_files(cfg, str(out), report_path=str(rep))
        header = out.read_text().splitlines()[0]
        assert header == "model,theta,gamma_ratio,q_target,tau_exact,tau_q_numeric,tau_q_closed,tau_b,tau_b_avg"
        payload = json.loads(rep.read_text())
        assert payload["config"]["model"] == "dissipation"
        assert payload["diagnostics"]["memory_horizon"] is None
        assert isinstance(payload["diagnostics"]["p_end"], float)
        assert len(payload["reports"]) == cfg.q_grid

    def test_report_carries_memory_horizon(self, tmp_path):
        cfg = ScenarioConfig(
            model="dissipation", theta=math.pi / 4.0, gamma=0.5, tau_max=1.0, grid_points=501
        )
        rep = tmp_path / "run.json"
        run_to_files(cfg, str(tmp_path / "run.csv"), report_path=str(rep))
        diagnostics = json.loads(rep.read_text())["diagnostics"]
        assert 4.83 < diagnostics["memory_horizon"] < 4.8368


class TestGhzScaling:
    def test_off_diagonal_column_is_exact(self, tmp_path):
        beta = 1e-6
        report = ghz_scaling(math.pi / 8.0, beta, 5, str(tmp_path / "ghz.csv"))
        for row in report.rows:
            n = row[0]
            assert row[1] == math.exp(-(n * n) * beta)

    def test_sqrt_q_ratio_near_square_law(self):
        report = ghz_scaling(math.pi / 8.0, 1e-6, 5)
        row3 = report.rows[2]
        assert row3[3] == pytest.approx(9.0, rel=1e-2)

    def test_fitted_slopes(self):
        report = ghz_scaling(math.pi / 8.0, 1e-6, 5)
        assert report.slope_sqrt_q == pytest.approx(2.0, abs=0.02)
        assert report.slope_q == pytest.approx(4.0, abs=0.04)
        assert report.slope_tau_q == pytest.approx(-2.0, abs=0.05)

    def test_single_qubit_row_matches_dephasing(self):
        theta, beta = math.pi / 8.0, 1e-6
        report = ghz_scaling(theta, beta, 3)
        from qslkit.bounds import quantumness_dephasing

        assert report.rows[0][2] == pytest.approx(quantumness_dephasing(theta, beta), abs=1e-18)

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            ghz_scaling(math.pi / 8.0, 1e-3, 5)  # exponent too large
        with pytest.raises(ValueError):
            ghz_scaling(math.pi / 8.0, 1e-6, 13)  # too many qubits


class TestValidate:
    def test_small_run_passes(self):
        report = validate(seed=3, cases=3)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failed checks: {failed}"

    def test_single_case_smoke(self):
        report = validate(seed=0, cases=1)
        assert any(c.name == "qsl_validity" for c in report.checks)

    def test_mutation_canary_present_and_passing(self):
        report = validate(seed=0, cases=1)
        canary = next(c for c in report.checks if c.name == "mutation_canary")
        assert canary.passed

    def test_invalid_cases_rejected(self):
        with pytest.raises(ValueError):
            validate(seed=0, cases=0)


class TestCli:
    def test_fig1_and_validate_commands(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli_main(["fig1", "--out", str(out), "--grid-points", "501", "--tau-max", "2.0"]) == 0
        assert out.exists()
        assert cli_main(["validate", "--seed", "1", "--cases", "1"]) == 0

    def test_run_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"model": "dephasing", "theta": 0.39, "markov": True, "tau_max": 1.0, "grid_points": 501})
        )
        out = tmp_path / "run.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("model,")

    def test_unknown_config_key_fails_loudly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dephasing", "markov": True, "turbo": 9}))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "qslkit: error: unknown config keys: turbo\n"

    def test_fig3_past_memory_divergence_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert cli_main(["fig3", "--tau-max", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslkit: error: ") and err.count("\n") == 1
        assert "'tau_max'" in err
        assert float(re.search(r"t\* = ([0-9.]+)", err).group(1)) == pytest.approx(4.837, abs=1e-3)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["fig1", "--grid-points", "0"], "grid_points"),
            (["fig2", "--tau-max", "0"], "tau_max"),
            (["run", "--grid-points", "0"], "grid_points"),
            (["run", "--tau-max", "0"], "tau_max"),
        ],
    )
    def test_zero_overrides_rejected(self, tmp_path, capsys, argv, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dephasing", "markov": True, "grid_points": 201}))
        if argv[0] == "run":
            argv = argv + ["--config", str(cfg_path)]
        assert cli_main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        assert f"invalid field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_config_file_is_one_error_line(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslkit: error: ") and "absent.json" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["ghz", "--grid-points", "5", "--tau-max", "-3"],
            ["validate", "--cases", "1", "--grid-points", "3", "--out", "x.csv"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qslkit") and "unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    def test_ghz_command(self, tmp_path):
        out = tmp_path / "ghz.csv"
        assert cli_main(["ghz", "--out", str(out), "--n-max", "4"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,offdiagonal_factor,q,sqrt_q_ratio,tau_q_fixed_target"
        assert len(lines) == 5

    def test_console_entry_point(self, tmp_path):
        # the child imports the same qslkit tree as this test
        src = os.path.dirname(os.path.dirname(qslkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "qslkit.cli", "fig1", "--out", str(tmp_path / "f.csv"),
             "--grid-points", "501", "--tau-max", "1.0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr


class TestAutoTargets:
    def test_spans_three_decades_up_to_cap(self):
        targets = auto_targets(0.4, 20)
        assert len(targets) == 20
        assert targets[-1] == pytest.approx(0.38, abs=1e-12)
        assert targets[0] == pytest.approx(0.38e-3, abs=1e-12)

    def test_degenerate_trajectory_has_no_targets(self):
        assert len(auto_targets(0.0, 20)) == 0
