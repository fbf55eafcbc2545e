"""Harness: config validation, sweeps, CSV schema/determinism, validation suite."""

import builtins
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qslkit
from qslkit import bounds, generators, harness
from qslkit.bounds import BoundReport
from qslkit.cli import main as cli_main
from qslkit.generators import Dephasing
from qslkit.harness import (
    FIG1_HEADER,
    FIG1_THETAS,
    RUN_HEADER,
    SWEEP_HEADER,
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
from qslkit.matcore import from_pure
from qslkit.memory import MemoryFunctions
from qslkit.witness import pure_state_quantumness, quantumness, random_density_matrix, random_pure_state


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

    @pytest.mark.parametrize("model", ["dephasing", "dissipation", "ghz"])
    def test_memory_ratio_with_markov_flag_rejected(self, model):
        # the memoryless model would run and drop gamma
        with pytest.raises(ValueError, match=r"invalid field 'gamma': must be unset when 'markov' is true, got 3\.0"):
            ScenarioConfig.from_dict({"model": model, "markov": True, "gamma": 3.0})

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "dissipation", "gamma": 2.0, "n": 4},
            {"model": "dephasing", "markov": True, "n": 2},
            {"model": "unitary2l", "n": 3},
            {"model": "stirap", "n": 2},
        ],
    )
    def test_qubit_count_off_ghz_rejected(self, raw):
        # only ghz reads n; any other model would run with it ignored
        with pytest.raises(ValueError, match=rf"invalid field 'n': must be 1 unless 'model' is 'ghz', got {raw['n']}"):
            ScenarioConfig.from_dict(raw)
        ScenarioConfig.from_dict({**raw, "n": 1})
        ScenarioConfig.from_dict({**raw, "model": "ghz", "gamma": 2.0, "markov": False})

    @pytest.mark.parametrize(
        "build", [ScenarioConfig.from_dict, lambda raw: ScenarioConfig(**raw)], ids=["from_dict", "direct"]
    )
    @pytest.mark.parametrize(
        "raw,field,must",
        [
            ({"model": "unitary2l", "gamma": 3.0}, "gamma", "unset"),
            ({"model": "unitary2l", "Gamma": 5.0}, "Gamma", "1.0"),
            ({"model": "dephasing", "markov": True, "theta_rate": 9.0}, "theta_rate", "0.5"),
            ({"model": "dephasing", "gamma": 1.0, "theta0": 2.0}, "theta0", "0.0"),
            ({"model": "stirap", "theta": 1.2}, "theta", repr(math.pi / 8.0)),
            ({"model": "stirap", "alpha0": 1.0}, "alpha0", "0.0"),
        ],
    )
    def test_field_its_model_does_not_read_rejected(self, build, raw, field, must):
        # each would run with the field dropped; a value equal to the default changes nothing
        message = rf"invalid field '{field}': must be {re.escape(must)} unless 'model' is "
        with pytest.raises(ValueError, match=message):
            build(raw)
        build({**raw, field: None if must == "unset" else float(must)})

    def test_config_is_frozen_and_replace_checks_again(self):
        cfg = ScenarioConfig.from_dict({"model": "dephasing", "markov": True})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.grid_points = 10
        assert dataclasses.replace(cfg, grid_points=501).grid_points == 501
        with pytest.raises(ValueError, match="invalid field 'grid_points'"):
            dataclasses.replace(cfg, grid_points=10)

    def test_fuzz_and_figure_configs_load(self, monkeypatch):
        configs = [harness._random_scenario(seed, j) for seed in range(3) for j in range(200)]
        monkeypatch.setattr(harness, "_sweep", lambda out, header, batch, shared_targets=False: configs.extend(batch))
        for name in ("fig1", "fig2", "fig3"):
            getattr(harness, name)("unused.csv")
        assert len(configs) == 600 + 3 + 4 + 4
        for cfg in configs:
            assert ScenarioConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    def test_readme_json_blocks_load(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
            blocks = re.findall(r"^```json\n(.*?)^```", fh.read(), flags=re.M | re.S)
        assert blocks
        for block in blocks:
            ScenarioConfig.from_dict(json.loads(block))

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

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ({"model": "unitary2l"}, None),
            ({"model": "stirap", "markov": True}, None),  # no bath: the flag does not apply either
            ({"model": "dephasing", "gamma": 0.5}, 0.5),
            ({"model": "dissipation", "markov": True}, math.inf),
            ({"model": "ghz", "gamma": 2}, 2.0),
        ],
    )
    def test_gamma_ratio_of_every_model(self, raw, expected):
        ratio = ScenarioConfig.from_dict(raw).gamma_ratio
        assert ratio == expected and type(ratio) is type(expected)

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
        reports = evaluate_targets(result.trajectory, [0.99], cfg)
        assert not reports[0].reached
        assert reports[0].tau_exact is None and reports[0].tau_q_numeric is None


    def test_tau_b_norms_computed_once_per_trajectory(self):
        class CountingDephasing(Dephasing):
            tables = []  # number of times in each coefficient table built
            actions = 0

            def coefficients(self, times):
                CountingDephasing.tables.append(len(times))
                return super().coefficients(times)

            def action(self, rho, f):
                CountingDephasing.actions += 1
                return super().action(rho, f)

        cfg = ScenarioConfig(model="dephasing", theta=math.pi / 5.0, gamma=0.5, tau_max=2.0, grid_points=401)
        gen, rho0, grid = harness.build_scenario(cfg)
        traj = harness.propagate(CountingDephasing(gen.memory), rho0, grid)
        CountingDephasing.tables, CountingDephasing.actions = [], 0
        reports = evaluate_targets(traj, auto_targets(float(traj.q_samples.max()), 20), cfg)
        assert sum(rep.tau_b_avg is not None for rep in reports) == 20
        # no table after propagation: the trajectory keeps its grid-time rows,
        # and one stacked action serves all 20 targets
        assert CountingDephasing.tables == []
        assert CountingDephasing.actions == 1


class TestCsvEmission:
    @pytest.mark.parametrize("header", [FIG1_HEADER, SWEEP_HEADER, RUN_HEADER], ids=["fig1", "sweep", "run"])
    def test_every_column_names_a_report_field(self, header):
        fields = {f.name for f in dataclasses.fields(BoundReport)}
        assert set(header) <= fields

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
        monkeypatch.setattr(harness, "propagate_many", lambda *args: calls.append(args))
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


def _old_write(path, text):
    """The truncating write the outputs used before the in-place writer: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_RUN_CFG = {"model": "dissipation", "theta": math.pi / 4.0, "gamma": 2.0, "tau_max": 1.0, "grid_points": 501}


class TestOutputWriter:
    @pytest.mark.parametrize("before,after", [("x" * 500, "short\n"), ("short\n", "y" * 500)], ids=["shrink", "grow"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, before, after):
        path = tmp_path / "out.csv"
        path.write_text(before)
        harness._write_text(str(path), after)
        assert path.read_bytes() == after.encode()

    def test_write_through_symlink_updates_target_and_keeps_link(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old contents, longer than the new\n")
        link.symlink_to(target)
        harness._write_text(str(link), "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        inode = path.stat().st_ino
        harness._write_text(str(path), "new\n")
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_new_file_mode_matches_open_for_writing(self, tmp_path):
        _old_write(tmp_path / "reference.csv", "x\n")
        harness._write_text(str(tmp_path / "new.csv"), "x\n")
        mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference.csv").stat().st_mode)

    def test_fig1_to_dev_null(self):
        assert cli_main(["fig1", "--out", os.devnull, "--grid-points", "501", "--tau-max", "1.0"]) == 0

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_fig1_into_a_pipe(self, tmp_path):
        argv = ["fig1", "--grid-points", "501", "--tau-max", "1.0", "--out"]
        assert cli_main(argv + [str(tmp_path / "fig1.csv")]) == 0
        read_end, write_end = os.pipe()  # a 10 kB CSV fits the pipe buffer, so no reader is needed
        try:
            assert cli_main(argv + [f"/dev/fd/{write_end}"]) == 0
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read() == (tmp_path / "fig1.csv").read_bytes()

    def test_outputs_match_the_truncating_write(self, tmp_path):
        out, rep = tmp_path / "fig1.csv", tmp_path / "run.json"
        for path in (out, rep):
            path.write_text("stale bytes, longer than any output\n" * 2000)
        rows = fig1(str(out), grid_points=501, tau_max=2.0)
        lines = [",".join(FIG1_HEADER)] + [",".join(format_cell(c) for c in row) for row in rows]
        _old_write(tmp_path / "fig1-ref.csv", "\n".join(lines) + "\n")
        assert out.read_bytes() == (tmp_path / "fig1-ref.csv").read_bytes()

        cfg = ScenarioConfig.from_dict(_RUN_CFG)
        result = run_to_files(cfg, str(tmp_path / "run.csv"), report_path=str(rep))
        payload = {
            "config": dataclasses.asdict(cfg),
            "diagnostics": result.diagnostics,
            "reports": [{key: getattr(r, key) for key in harness._REPORT_KEYS} for r in result.reports],
        }
        with open(tmp_path / "run-ref.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        assert rep.read_bytes() == (tmp_path / "run-ref.json").read_bytes()

    def test_no_output_is_opened_truncating(self, tmp_path, monkeypatch):
        outputs = {str(tmp_path / name) for name in ("fig1.csv", "run.csv", "run.json")}
        for path in outputs:
            _old_write(path, "stale\n")
        opened = []
        real_os_open, real_open = os.open, builtins.open

        def spy_os_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), "os.open", flags))
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append((os.fspath(file), "open", mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        fig1(str(tmp_path / "fig1.csv"), grid_points=501, tau_max=1.0)
        run_to_files(
            ScenarioConfig.from_dict(_RUN_CFG), str(tmp_path / "run.csv"), report_path=str(tmp_path / "run.json")
        )
        monkeypatch.undo()
        ours = [entry for entry in opened if entry[0] in outputs]
        assert {path for path, _, _ in ours} == outputs
        for path, how, flags_or_mode in ours:
            if how == "os.open":
                assert not flags_or_mode & os.O_TRUNC, path
            else:
                assert "w" not in flags_or_mode, path

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(harness.MODELS),
        theta=st.floats(0.05, 1.5),
        gamma=st.one_of(st.none(), st.floats(0.3, 5.0)),
        tau_max=st.floats(0.2, 3.0),
        grid_points=st.integers(101, 301),
        q_grid=st.integers(1, 8),
        rate=st.floats(0.3, 1.0),
    )
    def test_run_report_is_strict_json(self, model, theta, gamma, tau_max, grid_points, q_grid, rate):
        raw = {"model": model, "tau_max": tau_max, "grid_points": grid_points, "q_grid": q_grid}
        if model in harness.OPEN_MODELS:
            raw.update(theta=theta, gamma=gamma, markov=gamma is None, n=2 if model == "ghz" else 1)
        else:
            raw.update(theta0=theta, theta_rate=rate, alpha_rate=rate)
        cfg = ScenarioConfig.from_dict(raw)
        with tempfile.TemporaryDirectory() as tmp:
            rep = os.path.join(tmp, "run.json")
            run_to_files(cfg, os.path.join(tmp, "run.csv"), report_path=rep)
            with open(rep, "r", encoding="utf-8") as fh:
                payload = json.loads(fh.read(), parse_constant=_reject_constant)
        assert len(payload["reports"]) == payload["diagnostics"]["targets"]


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

    @pytest.mark.parametrize("beta", [1e-160, 1e-200])  # a subnormal n = 1 witness, and one that is 0
    def test_underflowing_witness_rejected_by_name(self, tmp_path, beta):
        out = tmp_path / "ghz.csv"
        with pytest.raises(ValueError, match=rf"^invalid argument 'beta': the n = 1 witness .* underflows, got {beta}$"):
            ghz_scaling(math.pi / 8.0, beta, 5, str(out))
        assert not out.exists()

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

    def test_mutation_canary_witness_range_route(self, monkeypatch):
        # with the positivity abort out of the way the sign-flipped run is caught by the witness leaving [0, 1]
        monkeypatch.setattr(generators, "POSITIVITY_ABORT", 1e9)
        (canary,) = harness._check_mutation_canary()
        assert canary.passed and canary.detail == "witness range violated (max q = 40487.233)"

    def test_invalid_cases_rejected(self):
        with pytest.raises(ValueError):
            validate(seed=0, cases=0)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"seed": -1, "cases": 1}, "seed"),
            ({"seed": 1.5, "cases": 1}, "seed"),
            ({"seed": True, "cases": 1}, "seed"),
            ({"seed": 0, "cases": 2.5}, "cases"),
            ({"seed": 0, "cases": True}, "cases"),
        ],
        ids=["seed-negative", "seed-float", "seed-bool", "cases-float", "cases-bool"],
    )
    def test_bad_seed_or_cases_rejected_by_name(self, kwargs, name):
        with pytest.raises(ValueError, match=f"invalid argument '{name}': must be an integer >= "):
            validate(**kwargs)

    def test_fuzz_makes_no_tau_b_calls(self, monkeypatch):
        # the fuzz checks the speed limit only; the fidelity bound belongs to the figures and runs
        passes, tau_b_calls = [], []
        real_pass, real_tau_b = bounds.evaluate_crossings, bounds._tau_b

        def recording_pass(traj, targets, fidelity=False):
            times = real_pass(traj, targets, fidelity)
            passes.append((traj, fidelity, times))
            return times

        monkeypatch.setattr(harness, "evaluate_crossings", recording_pass)
        monkeypatch.setattr(bounds, "_tau_b", lambda *args: tau_b_calls.append(args) or real_tau_b(*args))
        assert validate(seed=0, cases=3).passed
        assert len(passes) == 3 and any(t.crossing.reached for _, _, times in passes for t in times)
        for traj, fidelity, times in passes:
            assert fidelity is False
            assert all(t.tau_b is None and t.tau_b_avg is None for t in times)
            assert "lrho0_norms" not in vars(traj)  # the cached norms were never computed
        assert tau_b_calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_batches_keep_every_case_grid(self, seed, monkeypatch):
        batches = []

        def record(gens, rho0s, grid):
            batches.append((gens, grid))
            return [SimpleNamespace(grid=grid, generator=gen) for gen in gens]

        monkeypatch.setattr(harness, "propagate_many", record)
        cases = list(harness._fuzz_cases(seed, 30))
        assert len(cases) == 30
        for j, (cfg, traj) in enumerate(cases):
            expected_cfg = harness._random_scenario(seed, j)
            assert cfg == expected_cfg
            expected_gen, _rho0, expected_grid = harness.build_scenario(expected_cfg)
            assert traj.grid.shape == expected_grid.shape
            assert np.array_equal(traj.grid, expected_grid)
            assert type(traj.generator) is type(expected_gen)
        assert sum(len(gens) for gens, _ in batches) == 30
        for gens, grid in batches:
            assert len({type(g) for g in gens}) == 1
            assert grid.ndim == 1
        assert max(len(gens) for gens, _ in batches) > 1


#: ``validate(seed=0, cases=12)``: (name, passed, repr(worst), detail) per
#: check.  The witness entries are those of the pairs drawn per dimension and
#: the oracle entry that of one config per closed-form branch; the others are
#: as the tree computed them before the dynamics probes and memory tables were
#: stacked.  A speed-up must leave every field alone.
GOLDEN_VALIDATE_0_12 = [
    ("witness_range", True, "-1.6397573722182202e-06", "q in [1.390e-04, 0.999998] over 600 pairs"),
    ("witness_symmetry", True, "0.0", "max |q(a,b) - q(b,a)|"),
    ("witness_pure_formula", True, "1.887379141862766e-15", "max |q - 4c(1-c)|"),
    ("witness_zero_iff_commuting", True, "0.0", "q < 1e-12 iff commutator norm < 1e-7"),
    ("qsl_validity", True, "np.float64(-1.228827463561899e-05)", "min(crossing - tau_q) over 240 reached cells"),
    ("trace_preservation", True, "1.7763568394002505e-15", "max |Tr rho - 1|"),
    ("hermiticity", True, "5.498696599114741e-17", "max entrywise |rho - rho^dag|"),
    ("positivity", True, "-1.0547118733938987e-15", "min eigenvalue over states"),
    ("dephasing_population_conservation", True, "0.0", "max diagonal drift"),
    ("unitary_purity", True, "3.9968028886505635e-15", "max |Tr rho^2 - 1|"),
    ("rate_inequality", True, "np.float64(9.999996386511611e-10)", "min(2 sqrt(2Q) speed + 1e-9 - |dQ/dt|)"),
    ("rate_finite_difference", True, "np.float64(5.33685680283863e-10)", "max |dQ/dt - centered difference|"),
    ("oracle_equivalence", True, "1.301736496372996e-13", "max entrywise |closed - propagated|"),
    ("mutation_canary", True, "1.0", "positivity abort at t = 0.003"),
]


def test_validate_report_is_golden():
    report = validate(seed=0, cases=12)
    assert [(c.name, c.passed, repr(c.worst), c.detail) for c in report.checks] == GOLDEN_VALIDATE_0_12


#: The closed-form branches of ``MemoryFunctions``, each as a test on a memory.
MEMORY_BRANCHES = {
    "markov": lambda m: m.markov,
    "finite-memory": lambda m: not m.markov,
    "trigonometric": lambda m: not m.markov and m._trig,
    "critical": lambda m: not m.markov and not m._trig and m._r == 0.0,
    "hyperbolic": lambda m: not m.markov and not m._trig and m._r > 0.0,
}


class TestOracle:
    def test_dissipation_cases_reach_every_branch(self):
        memories = [harness.build_scenario(cfg)[0].memory for cfg in harness._ORACLE_CASES if cfg.model == "dissipation"]
        intended = ["markov", "trigonometric", "critical", "hyperbolic"] * 2  # per angle
        assert [MEMORY_BRANCHES[name](m) for name, m in zip(intended, memories)] == [True] * 8

    @pytest.mark.parametrize(
        "read,branch",
        [
            ("xi", "markov"),
            ("xi", "trigonometric"),
            ("xi", "critical"),
            ("xi", "hyperbolic"),
            ("beta", "markov"),
            ("beta", "finite-memory"),
        ],
    )
    def test_relative_fault_of_1e_6_in_one_branch_fails(self, read, branch, monkeypatch):
        real = getattr(MemoryFunctions, read)

        def faulty(self, t):
            value = real(self, t)
            return value * (1.0 + 1e-6) if MEMORY_BRANCHES[branch](self) else value

        monkeypatch.setattr(MemoryFunctions, read, faulty)
        (check,) = harness._check_oracle_equivalence()
        assert not check.passed, check


def witness_properties_per_pair(seed, cases):
    """Reference for ``harness._check_witness_properties``: the same draws, every pair checked on its own."""
    n_pairs = min(10_000, max(50, 50 * cases))
    q_min, q_max_seen = math.inf, -math.inf
    worst_sym = 0.0
    worst_pure = 0.0
    zero_iff_ok = True
    worst_commuting_q = 0.0
    for dim in (2, 3, 4):
        mine = range(dim - 2, n_pairs, 3)  # pair i has dimension (2, 3, 4)[i % 3], is pure for even i
        n_pure, n_commuting = sum(1 for i in mine if i % 2 == 0), sum(1 for i in mine if i % 10 == 0)
        rng = np.random.default_rng([seed, 1, dim])
        pairs = [
            (random_density_matrix(dim, rng), random_density_matrix(dim, rng), None) for _ in range(len(mine) - n_pure)
        ]
        for _ in range(n_pure):
            va, vb = random_pure_state(dim, rng), random_pure_state(dim, rng)
            # np.abs and np.square, as on arrays: the builtin abs of a complex and a float's ** 2 (pow) can round apart
            pairs.append((from_pure(va), from_pure(vb), np.square(np.abs(np.vdot(va, vb)))))
        for a, b, overlap in pairs:
            q_ab = quantumness(a, b)
            q_ba = quantumness(b, a)
            if overlap is not None:
                worst_pure = max(worst_pure, abs(q_ab - pure_state_quantumness(overlap)))
            q_min = min(q_min, q_ab)
            q_max_seen = max(q_max_seen, q_ab)
            worst_sym = max(worst_sym, abs(q_ab - q_ba))
            if (q_ab < 1e-12) != (float(np.linalg.norm(a @ b - b @ a)) < 1e-7):
                zero_iff_ok = False
        for _ in range(n_commuting):
            w = np.abs(rng.standard_normal(dim)) + 0.1
            w2 = np.abs(rng.standard_normal(dim)) + 0.1
            da = np.diag(w / w.sum()).astype(complex)
            db = np.diag(w2 / w2.sum()).astype(complex)
            qc = quantumness(da, db)
            worst_commuting_q = max(worst_commuting_q, qc)
            if (qc < 1e-12) != (float(np.linalg.norm(da @ db - db @ da)) < 1e-7):
                zero_iff_ok = False
    range_ok = q_min >= 0.0 and q_max_seen <= 1.0 + 1e-9
    return [
        ("witness_range", range_ok, max(0.0 - q_min, q_max_seen - 1.0), f"q in [{q_min:.3e}, {q_max_seen:.6f}] over {n_pairs} pairs"),
        ("witness_symmetry", worst_sym <= 1e-12, worst_sym, "max |q(a,b) - q(b,a)|"),
        ("witness_pure_formula", worst_pure <= 1e-10, worst_pure, "max |q - 4c(1-c)|"),
        ("witness_zero_iff_commuting", zero_iff_ok, worst_commuting_q, "q < 1e-12 iff commutator norm < 1e-7"),
    ]


@pytest.mark.parametrize("cases", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_witness_stacks_match_per_pair_checks(seed, cases):
    stacked = [(c.name, c.passed, c.worst, c.detail) for c in harness._check_witness_properties(seed, cases)]
    expected = witness_properties_per_pair(seed, cases)
    assert stacked == expected
    assert [type(c[2]) for c in stacked] == [type(c[2]) for c in expected]


class TestBatching:
    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        sizes = []
        real = harness.propagate_many

        def counting(gens, rho0s, grid):
            sizes.append(len(gens))
            return real(gens, rho0s, grid)

        monkeypatch.setattr(harness, "propagate_many", counting)
        return sizes

    def test_figures_step_their_scenarios_together(self, tmp_path, batch_sizes):
        fig1(str(tmp_path / "f1.csv"), grid_points=501, tau_max=2.0)
        assert batch_sizes == [3]
        fig2(str(tmp_path / "f2.csv"), grid_points=501, tau_max=2.0)
        fig3(str(tmp_path / "f3.csv"))
        assert batch_sizes == [3, 4, 4]

    def test_sweep_grids_that_differ_are_separate_batches(self, tmp_path, batch_sizes):
        # 100 points over 3.0 are too coarse for ratio 2: its grid is refined, the others are not
        rows = fig3(str(tmp_path / "f3.csv"), grid_points=100, tau_max=3.0)
        assert sorted(batch_sizes) == [1, 3]
        assert len(rows) == 4 * 20

    def test_oracle_block_is_one_batch_per_family(self, batch_sizes):
        (check,) = harness._check_oracle_equivalence()
        assert check.passed
        assert batch_sizes == [4, 8]

    def test_one_scenario_matches_its_run_inside_a_batch(self, batch_sizes):
        dephasing = ScenarioConfig(model="dephasing", theta=math.pi / 5.0, gamma=0.5, tau_max=2.0, grid_points=401)
        dissipation = ScenarioConfig(model="dissipation", theta=math.pi / 4.0, gamma=1.0, tau_max=2.0, grid_points=401)
        configs = [
            dephasing,
            ScenarioConfig(model="dissipation", theta=math.pi / 6.0, gamma=0.5, tau_max=2.0, grid_points=401),
            ScenarioConfig(model="dephasing", theta=math.pi / 8.0, markov=True, tau_max=2.0, grid_points=401),
            dissipation,
        ]
        batched = harness._run_scenarios(configs)
        assert batch_sizes == [2, 2]
        for cfg, in_batch in ((dephasing, batched[0]), (dissipation, batched[3])):
            alone = run_scenario(cfg)
            assert len(alone.reports) == 20
            assert [dataclasses.astuple(r) for r in alone.reports] == [dataclasses.astuple(r) for r in in_batch.reports]
            assert alone.diagnostics == in_batch.diagnostics
            assert np.array_equal(alone.trajectory.states, in_batch.trajectory.states)


class TestCli:
    @pytest.mark.parametrize(
        "command,header",
        [
            ("fig1", FIG1_HEADER),
            ("fig2", SWEEP_HEADER),
            ("fig3", SWEEP_HEADER),
            ("ghz", harness.GHZ_HEADER),
            ("run", RUN_HEADER),
        ],
    )
    def test_help_lists_the_csv_columns(self, command, header, capsys):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(rf"[Cc]olumns: {re.escape(', '.join(header))}\.", help_text)

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
            (["ghz", "--theta", "nan"], "theta"),
            (["ghz", "--theta", "inf"], "theta"),
            (["ghz", "--q-fix", "nan"], "q_fix"),
            (["ghz", "--q-fix", "0"], "q_fix"),
            (["ghz", "--beta", "nan"], "beta"),
            (["ghz", "--beta", "1e-200"], "beta"),  # the n = 1 witness underflows to 0
        ],
    )
    def test_zero_overrides_rejected(self, tmp_path, capsys, argv, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dephasing", "markov": True, "grid_points": 201}))
        if argv[0] == "run":
            argv = argv + ["--config", str(cfg_path)]
        assert cli_main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        # ghz_scaling names its arguments, as bounds and validate do; the figures and run name config fields
        kind = "argument" if argv[0] == "ghz" else "field"
        err = capsys.readouterr().err
        assert err.startswith(f"qslkit: error: invalid {kind} '{field}'") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_overflowing_speed_is_one_error_line(self, tmp_path):
        # the squared speed overflows; a subprocess, so that a RuntimeWarning would show on its stderr
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dissipation", "Gamma": 1e200, "tau_max": 1e-200, "markov": True}))
        out = tmp_path / "o.csv"
        src = os.path.dirname(os.path.dirname(qslkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "qslkit.cli", "run", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "qslkit: error: generation speed ||[rho0, L rho_t]|| is inf at t = 0: "
            "the generator's rates overflow double precision\n"
        )
        assert not out.exists()

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

    def test_missing_report_directory_fails_before_propagating(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "propagate_many", lambda *args: calls.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dephasing", "markov": True, "grid_points": 201}))
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
        assert cli_main(argv + ["--report", str(tmp_path / "missing" / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qslkit: error: ") and err.count("\n") == 1 and "'report_path'" in err
        assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["fig1", "ghz"])
    def test_missing_out_directory_fails_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        calls = []
        monkeypatch.setattr(harness, "propagate_many", lambda *args: calls.append(args))
        assert cli_main([command, "--out", str(tmp_path / "missing" / "f.csv")]) == 2
        assert "invalid argument 'out_path': no directory" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_out_naming_a_directory_fails_before_propagating(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "propagate_many", lambda *args: calls.append(args))
        assert cli_main(["fig2", "--out", str(tmp_path)]) == 2
        assert "invalid argument 'out_path'" in capsys.readouterr().err
        assert calls == []

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--cases", "3"],  # buffered lines, written at the flush
            pytest.param(
                ["fig1", "--grid-points", "301", "--tau-max", "1.0", "--out", "/dev/stdout"],
                marks=pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout"),
            ),
        ],
        ids=["validate", "fig1"],
    )
    def test_closed_stdout_pipe_exits_quietly(self, argv):
        src = os.path.dirname(os.path.dirname(qslkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qslkit.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()  # the reader leaves before the first write, as `qslkit ... | true` can
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", ["fig1", "run", "ghz"])
    def test_out_on_stdout_carries_only_the_output(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dephasing", "theta": 0.39, "markov": True, "grid_points": 301}))
        argv = {
            "fig1": ["fig1", "--grid-points", "301", "--tau-max", "1.0"],
            "run": ["run", "--config", str(cfg_path)],
            "ghz": ["ghz", "--n-max", "4"],
        }[command]
        src = os.path.dirname(os.path.dirname(qslkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "qslkit.cli", *argv, "--out", "/dev/stdout"], capture_output=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert cli_main(argv + ["--out", str(tmp_path / "file.csv")]) == 0
        assert result.stdout == (tmp_path / "file.csv").read_bytes()  # a pipe: the status went to stderr
        assert result.stderr.startswith(b"wrote /dev/stdout (")

    def test_file_out_prints_status_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert cli_main(["fig1", "--out", str(out), "--grid-points", "301", "--tau-max", "1.0"]) == 0
        assert capsys.readouterr() == (f"wrote {out} (60 rows)\n", "")
        assert cli_main(["ghz", "--out", str(out), "--n-max", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"wrote {out} (4 rows)\n{{") and captured.err == ""


class TestAutoTargets:
    def test_spans_three_decades_up_to_cap(self):
        targets = auto_targets(0.4, 20)
        assert len(targets) == 20
        assert targets[-1] == pytest.approx(0.38, abs=1e-12)
        assert targets[0] == pytest.approx(0.38e-3, abs=1e-12)

    def test_degenerate_trajectory_has_no_targets(self):
        assert len(auto_targets(0.0, 20)) == 0
