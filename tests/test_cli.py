import json
import subprocess
import sys
import threading

import numpy as np
import pytest

import gdro.lattice
from gdro.cli import (EXIT_ASSERT, EXIT_OK, EXIT_STABILITY, EXIT_VALIDATION,
                      ConfigError, _perturb_lower, load_config, main, parse_config,
                      write_field_csv, write_report_csv, write_residual_csv)
from gdro.convergence import stability_probe
from gdro.gcore import Grid
from gdro.scheme import LadderRow, SolutionField

INLINE_HEAT = {
    "horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
    "sigma_low": 1.0, "sigma_high": 1.0, "phi": "x*x",
}

UNCERTAIN_SINE = {
    "horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
    "sigma_low": 0.5, "sigma_high": 1.0, "phi": "0.1*sin(x)", "h": "-1", "h_prime": "1",
}


def _write(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _solve(tmp_path, payload, *extra):
    return main(["solve", "--config", _write(tmp_path, payload),
                 "--out", str(tmp_path / "out"), *extra])


class TestLoadConfig:
    def test_catalog_name(self, tmp_path):
        cfg = load_config(_write(tmp_path, {
            "problem": "gheat-convex", "grid": {"n_t": 10, "n_x": 21}}))
        assert cfg.problem_name == "gheat-convex"
        assert cfg.grid.n_t == 10 and cfg.method == "both"

    def test_inline_problem(self, tmp_path):
        cfg = load_config(_write(tmp_path, {
            "problem": dict(INLINE_HEAT, f="0.5*z"),
            "grid": {"n_t": 10, "n_x": 21}, "method": "lattice"}))
        assert cfg.problem_name is None and cfg.method == "lattice"

    def test_missing_grid_pointer(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, {"problem": "gheat-convex"}))
        assert err.value.pointer == "/grid"

    def test_unknown_catalog_name_lists_valid(self, tmp_path):
        with pytest.raises(ConfigError, match="gheat-convex"):
            load_config(_write(tmp_path, {
                "problem": "no-such-problem", "grid": {"n_t": 4, "n_x": 5}}))

    def test_method_enumeration(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, {
                "problem": "gheat-convex", "grid": {"n_t": 4, "n_x": 5},
                "method": "spectral"}))
        assert "pde, lattice, both" in str(err.value)
        assert err.value.pointer == "/method"

    def test_unknown_key_pointer(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config({"problem": "gheat-convex", "grid": {"n_t": 4, "n_x": 5},
                          "turbo": True})
        assert err.value.pointer == "/turbo"

    def test_bad_expression_pointer(self, tmp_path):
        with pytest.raises(ConfigError, match="bad expression"):
            parse_config({"problem": dict(INLINE_HEAT, phi="x +* 2"),
                          "grid": {"n_t": 4, "n_x": 5}})

    def test_penalties_and_ladders(self, tmp_path):
        cfg = parse_config({
            "problem": "double-obstacle-sine", "grid": {"n_t": 10, "n_x": 21},
            "penalties": {"n_upper": 8, "m_lower": "projection", "kappa_f": 2},
            "ladders": {"n_list": [2, 4]}, "emit": ["field"]})
        assert cfg.penalties.project_lower and cfg.penalties.n_upper == 8.0
        assert cfg.penalties.kappa_f == 2.0
        assert cfg.ladders == {"n_list": [2.0, 4.0]}
        assert cfg.emit == ("field",)

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize("change, pointer, message", [
        ({"problem": dict(INLINE_HEAT, horizon="1")}, "/problem/horizon", "expected a number"),
        ({"grid": {"n_t": 4.5, "n_x": 5}}, "/grid/n_t", "expected an integer"),
        ({"problem": 7}, "/problem", "expected a catalog name or an object"),
        ({"problem": dict(INLINE_HEAT, kappa=1)}, "/problem/kappa", "unknown problem key"),
        ({"problem": dict(INLINE_HEAT, phi=1)}, "/problem/phi", "expected an expression string"),
        ({"problem": dict(INLINE_HEAT, sigma_low=2.0)}, "/problem",
         "need 0 < sigma_low <= sigma_high, got (2.0, 1.0)"),
        ({"grid": [4, 5]}, "/grid", "expected an object"),
        ({"grid": {"n_t": 0, "n_x": 5}}, "/grid", "need n_t >= 1 and n_x >= 3"),
        ({"penalties": 8}, "/penalties", "expected an object"),
        ({"penalties": {"n_lower": 8}}, "/penalties/n_lower", "unknown penalties key"),
        ({"penalties": {"n_upper": -1}}, "/penalties", "n_upper must be >= 0"),
        ({"ladders": [4, 8]}, "/ladders", "expected an object"),
        ({"ladders": {"k_list": [4]}}, "/ladders/k_list", "unknown ladders key"),
        ({"ladders": {"n_list": 4}}, "/ladders/n_list", "expected an array"),
        ({"emit": ["plot"]}, "/emit", "expected a subset of {field, report, residual}"),
        ({"output_dir": 5}, "/output_dir", "expected a string"),
    ])
    def test_rejection_pointer_and_message(self, change, pointer, message):
        with pytest.raises(ConfigError) as err:
            parse_config({"problem": dict(INLINE_HEAT), "grid": {"n_t": 4, "n_x": 5},
                          **change})
        assert err.value.pointer == pointer
        assert str(err.value) == "%s at %s" % (message, pointer)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"problem": ')
        with pytest.raises(ConfigError, match="^invalid JSON: .* at /$") as err:
            load_config(str(path))
        assert err.value.pointer == ""


class TestRun:
    def test_success_and_outputs(self, tmp_path):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT), "grid": {"n_t": 40, "n_x": 41},
            "method": "both", "emit": ["field", "report", "residual"]})
        assert rc == EXIT_OK
        out = tmp_path / "out"
        assert (out / "field_lattice.csv").exists()
        assert (out / "field_pde.csv").exists()
        assert (out / "residual.csv").exists()
        assert (out / "summary.json").exists()

        lines = (out / "field_lattice.csv").read_text().splitlines()
        assert lines[0] == "t,x,u,z,a_plus,a_minus,k_defect,sigma_choice"
        # 17 significant digits: doubles round-trip through the text exactly
        summary = json.loads((out / "summary.json").read_text())
        anchor = summary["anchor_values"]["lattice"]
        row = next(l for l in lines[1:] if l.startswith("0,"))
        cells = row.split(",")
        assert float(cells[0]) == 0.0
        mid = next(l for l in lines if l.split(",")[0] == "0" and
                   abs(float(l.split(",")[1])) < 1e-12)
        assert float(mid.split(",")[2]) == anchor

    def test_validation_exit(self, tmp_path, capsys):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT, h="1", h_prime="0", phi="0.5"),
            "grid": {"n_t": 10, "n_x": 11}})
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "obstacle-crossing" in err and "x_index=0" in err

    def test_driver_lipschitz_warning(self, tmp_path, capsys):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT, f="10*y"), "grid": {"n_t": 10, "n_x": 11},
            "method": "pde", "emit": []})
        assert rc == EXIT_OK
        assert ('warn msg="sampled driver Lipschitz constant 10 exceeds configured '
                'kappa_f 5"\n' in capsys.readouterr().err)

    def test_stability_exit(self, tmp_path, capsys):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT), "grid": {"n_t": 10, "n_x": 11},
            "penalties": {"n_upper": 1e6}, "method": "lattice"})
        assert rc == EXIT_STABILITY
        assert "CFL" in capsys.readouterr().err

    def test_assert_failure_exit(self, tmp_path):
        # weak penalties cannot pin the coinciding-obstacle band: budget fails
        rc = _solve(tmp_path, {
            "problem": "coinciding-obstacles", "grid": {"n_t": 50, "n_x": 41},
            "penalties": {"n_upper": 1.0, "m_lower": 1.0,
                          "penalty_mode": "nodewise-implicit"},
            "method": "lattice"}, "--assert")
        assert rc == EXIT_ASSERT

    def test_assert_pass(self, tmp_path):
        rc = _solve(tmp_path, {
            "problem": "coinciding-obstacles", "grid": {"n_t": 50, "n_x": 41},
            "emit": ["field", "residual"], "method": "both"}, "--assert")
        assert rc == EXIT_OK

    def test_method_override(self, tmp_path):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT), "grid": {"n_t": 10, "n_x": 11},
            "method": "both"}, "--method", "lattice")
        assert rc == EXIT_OK
        assert not (tmp_path / "out" / "field_pde.csv").exists()

    def test_pde_run_sweeps_no_lattice(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gdro.lattice, "_run_sweep",
                            lambda *args: pytest.fail("a lattice sweep ran"))
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT), "grid": {"n_t": 10, "n_x": 11},
            "method": "pde", "emit": ["field", "report"]})
        assert rc == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["field_pde.csv", "summary.json"]

    def test_rerun_is_byte_identical(self, tmp_path):
        payload = {"problem": "gheat-convex", "grid": {"n_t": 30, "n_x": 31},
                   "method": "both", "emit": ["field", "report", "residual"]}
        cfg = _write(tmp_path, payload)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", "3"])
        for name in ("field_lattice.csv", "field_pde.csv", "summary.json", "residual.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    def test_substep_stability_between_reported_times(self, tmp_path, capsys):
        # sigma is 1 at every reported time t = k/20 but reaches 4 in between,
        # so substeps sized on the reported slices alone would blow up
        rc = _solve(tmp_path, {
            "problem": {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
                        "sigma_low": 0.5, "sigma_high": 1.0,
                        "sigma": "1 + 3*pos(sin(62.83185307179586*t))",
                        "phi": "0.1*sin(3*x)"},
            "grid": {"n_t": 20, "n_x": 121}, "method": "pde", "emit": []}, "--assert")
        assert rc == EXIT_STABILITY
        err = capsys.readouterr().err
        assert "stability status=rejected" in err and "between reported times" in err
        assert "at t=0.947619048 x=-3: dt_sub*rate = 2.00636 > 1" in err

    def test_drift_weight_rejection_names_its_node(self, tmp_path):
        # b grows like t^2, so the upwind drift weight |mu|/dx passes 0.5 at
        # the first step; the first such node is the widened lattice's edge
        cfg = _write(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, b="40*t*t*(1 + 0.1*x)"),
            "grid": {"n_t": 20, "n_x": 61}, "method": "lattice"})
        proc = subprocess.run(
            [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == EXIT_STABILITY
        assert ('stability status=rejected detail="drift displacement per step exceeds '
                '0.5 cells at t=0.95 x=-61: |mu|/dx = 92.055 > 0.5; refine the time grid"'
                in proc.stderr)
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["sigma", "b"])
    def test_non_finite_coefficient_exit(self, tmp_path, capsys, name):
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT, **{name: "exp(1000*x)"}),
            "grid": {"n_t": 10, "n_x": 11}})
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        # exp(1000*x) overflows past x = 0.71; the first such node is x_7 = 1.2
        assert "kind=non-finite-coefficient t_index=0 x_index=7" in err
        assert 'detail="%s=inf"' % name in err
        assert "Warning" not in err

    @pytest.mark.parametrize("override", [
        {"sigma": "sqrt(x + 2.9)"},   # undefined on the reporting grid
        {"f": "log(1 + y)"},          # undefined at a sampled driver value
        {"sigma": "sqrt(x + 3.2)"},   # undefined only in the lattice's ghost cells
    ], ids=["reporting-grid", "driver", "ghost-cells"])
    def test_domain_error_exit(self, tmp_path, override):
        cfg = _write(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, **override),
            "grid": {"n_t": 20, "n_x": 41}, "method": "lattice"})
        proc = subprocess.run(
            [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == EXIT_VALIDATION
        assert "validate status=fail kind=domain-error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_field_rejected(self, tmp_path, capsys):
        # h is finite on the reporting grid but 0*inf = nan in the lattice's
        # ghost cells beyond x = -3.05; the nan spreads into the reported window
        rc = _solve(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, h="-1 + 0*exp(800*(-x - 3.05))"),
            "grid": {"n_t": 20, "n_x": 41}, "method": "both",
            "emit": ["field", "report", "residual"]})
        assert rc == EXIT_STABILITY
        err = capsys.readouterr().err
        assert "stability status=rejected kind=non-finite-field method=lattice" in err
        assert "t_index=15 x_index=0 t=0.75 x=-3" in err
        assert not (tmp_path / "out").exists()

    def test_zero_intensity_against_wrong_side_infinite_obstacle(self, tmp_path, capsys):
        # h' = -inf in the lattice's ghost cells beyond x = -3.05; at n = 0
        # the upper solve computes 0*inf = nan there, which reaches the window
        rc = _solve(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, h_prime="1 - exp(800*(-x - 3.05))"),
            "grid": {"n_t": 20, "n_x": 41}, "method": "lattice",
            "penalties": {"n_upper": 0, "m_lower": "projection",
                          "penalty_mode": "nodewise-implicit"}})
        assert rc == EXIT_STABILITY
        assert ("stability status=rejected kind=non-finite-field method=lattice "
                "t_index=15 x_index=0" in capsys.readouterr().err)

    def test_non_finite_field_prints_no_warning(self, tmp_path):
        # the 0*inf that makes the nan would otherwise print a RuntimeWarning
        cfg = _write(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, h="-1 + 0*exp(800*(-x - 3.05))"),
            "grid": {"n_t": 20, "n_x": 41}, "method": "both"})
        proc = subprocess.run(
            [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == EXIT_STABILITY
        assert "kind=non-finite-field" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch):
        started = []
        original = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or original(self))
        rc = _solve(tmp_path, {
            "problem": "gheat-convex", "grid": {"n_t": 10, "n_x": 21},
            "method": "both", "emit": ["residual"]}, "--threads", "8")
        assert rc == EXIT_OK
        assert started == []

    def test_unsorted_ladder_rejected(self, tmp_path, capsys):
        rc = _solve(tmp_path, {
            "problem": "american-put-analog", "grid": {"n_t": 10, "n_x": 21},
            "ladders": {"m_list": [100, 10]}})
        assert rc == EXIT_VALIDATION
        assert "/ladders/m_list" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["both", "pde"])
def test_no_sweep_computed_twice(tmp_path, monkeypatch, method):
    """No two lattice sweeps of one run share (spec, grid, penalties): the
    stability probes reuse the run's lattice solve, and their gaps are
    those of stability_probe."""
    calls = []
    run_sweep = gdro.lattice._run_sweep

    def recording(spec, grid, penalties):
        calls.append((spec, grid, penalties))
        return run_sweep(spec, grid, penalties)

    monkeypatch.setattr(gdro.lattice, "_run_sweep", recording)
    epsilons = [0.1, 0.01]
    cfg_path = _write(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
        "method": method, "emit": ["report"],
        "ladders": {"n_list": [4, 8], "m_list": [10, 100], "epsilon_list": epsilons}})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert calls and len(set(calls)) == len(calls)

    monkeypatch.undo()
    cfg = load_config(cfg_path)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["stability_gaps"] == [
        stability_probe(cfg.spec, _perturb_lower(cfg.spec, eps), cfg.grid, cfg.penalties)[0]
        for eps in epsilons]


@pytest.mark.parametrize("penalties, ladders", [
    ({"n_upper": 64, "m_lower": 10}, {"m_list": [10, 64]}),
    ({"n_upper": 64, "m_lower": 10},
     {"n_list": [4, 64], "m_list": [10, 100], "epsilon_list": [0.1, 0.0]}),
    ({"n_upper": 8, "m_lower": "projection"},
     {"n_list": [4, 8], "m_list": [10], "epsilon_list": [0.1]}),
], ids=["m_lower-in-m_list", "main-in-double-ladder", "projection-n_upper-in-n_list"])
def test_each_cell_swept_once(tmp_path, monkeypatch, penalties, ladders):
    """The main (n_upper, m_lower) cell is swept once, also when a ladder
    holds it; an eps of 0 is the main cell too."""
    cells = []
    run_sweep = gdro.lattice._run_sweep

    def recording(spec, grid, batch):
        cells.extend((spec, grid, cell) for cell in batch)
        return run_sweep(spec, grid, batch)

    monkeypatch.setattr(gdro.lattice, "_run_sweep", recording)
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
        "method": "lattice", "emit": ["report"], "penalties": penalties,
        "ladders": ladders})
    assert rc == EXIT_OK
    assert cells and len(set(cells)) == len(cells)


@pytest.mark.parametrize("h, ladders, record", [
    ("-1 + 0*exp(800*(-x - 3.05))",
     {"n_list": [4, 8], "m_list": [10, 100], "epsilon_list": [0.1]},
     "n=4 m=inf t_index=16 x_index=0 t=0.80000000000000004 x=-3"),
    ("-0.4 + 0.1*sin(x + t)", {"epsilon_list": [0.1, float("inf")]},
     "eps=inf t_index=19 x_index=0 t=0.95000000000000007 x=-3"),
], ids=["reflected-rung", "probe"])
def test_non_finite_ladder_or_probe_rejected(tmp_path, h, ladders, record):
    # the reflected rungs project onto an h that is nan in the ghost cells;
    # the penalized cells and the PDE stay finite
    cfg = _write(tmp_path, {
        "problem": {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0, "sigma_low": 0.5,
                    "sigma_high": 1.0, "f": "2*sin(x) - 0.3*y", "phi": "0.1*sin(x)",
                    "h": h, "h_prime": "0.4 + 0.1*sin(x - t)"},
        "grid": {"n_t": 20, "n_x": 33}, "method": "pde",
        "penalties": {"n_upper": 64, "m_lower": 64, "penalty_mode": "nodewise-implicit"},
        "ladders": ladders})
    proc = subprocess.run(
        [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg,
         "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == EXIT_STABILITY
    assert "stability status=rejected kind=non-finite-field " + record in proc.stderr
    assert not (tmp_path / "out").exists()


#: the varcoef problem of tools/catalog_digests.py: every coefficient varies in t and x
VARCOEF = {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0, "sigma_low": 0.5, "sigma_high": 1.0,
           "b": "0.1*sin(x + t + 0.5)", "l": "0.04*cos(x - 2*t + 1)",
           "sigma": "1 + 0.2*sin(0.5*x + t + 2)",
           "f": "sin(x + 3)*cos(t + 0.3) - 0.3*y + 0.1*z*cos(x + t)",
           "phi": "0.08*sin(x + 1.5)", "h": "-0.4 + 0.08*sin(x + t + 2.5)",
           "h_prime": "0.4 + 0.08*sin(x - t + 4)"}


def test_zero_rung_left_out_of_rate_fit(tmp_path):
    # log 0 has no place in the log-log fit; the n = 0 rung stays in the report
    cfg = _write(tmp_path, {
        "problem": VARCOEF, "grid": {"n_t": 40, "n_x": 41}, "method": "both",
        "penalties": {"n_upper": 0, "m_lower": 0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [0, 4, 16], "m_list": [0, 10], "epsilon_list": [0.1]}})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg, "--out", str(out),
         "--assert"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = np.genfromtxt(out / "report.csv", delimiter=",", names=True)
    rungs = report[np.isinf(report["m"])]
    assert list(rungs["n"]) == [0.0, 4.0, 16.0]
    fit = np.polyfit(np.log(rungs["n"][1:]), np.log(rungs["sup_upper_violation"][1:]), 1)[0]
    assert json.loads((out / "summary.json").read_text())["rate_slope"] == float(fit)


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": dict(INLINE_HEAT),
                               "grid": {"n_t": 10, "n_x": 11},
                               "method": "lattice"}))
    proc = subprocess.run(
        [sys.executable, "-m", "gdro.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate status=ok" in proc.stderr


#: doubles whose 17-digit text is easy to get wrong
AWKWARD = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 2.0 ** 53 + 2.0]


def _per_value_csv(header, rows):
    """A CSV as the old writers made it: one "%.17g" call per value."""
    return (",".join(header) + "\n"
            + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)).encode()


def test_writers_match_per_value_reference(tmp_path):
    # t = 0, 0.15, 0.3 and x = -0.1 + 0.1 j are not round in binary
    grid = Grid(n_t=2, n_x=5, t_max=0.3, x_min=-0.1, x_max=0.3)
    shape = (3, 5)
    values = [np.roll(np.resize(AWKWARD, shape[0] * shape[1]), k).reshape(shape)
              for k in range(5)]
    fld = SolutionField(grid, *values,
                        sigma_choice=np.array([[0, 1, 1, 0, 1]] * 3, dtype=np.int8))
    columns = (fld.u, fld.z, fld.a_plus, fld.a_minus, fld.k_defect, fld.sigma_choice)
    t, x = grid.t, grid.x

    write_field_csv(tmp_path / "field.csv", fld, grid)
    assert (tmp_path / "field.csv").read_bytes() == _per_value_csv(
        ("t", "x", "u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"),
        [(t[i], x[j]) + tuple(c[i, j] for c in columns)
         for i in range(3) for j in range(5)])

    # one slice all nan, one with no nan, one mixed
    r_grid = np.array([[np.nan] * 5, [0.1, -0.0, 5e-324, 1e308, np.inf],
                       [np.nan, 0.1, np.nan, -1.0 / 3.0, np.nan]])
    write_residual_csv(tmp_path / "residual.csv", r_grid, grid)
    assert (tmp_path / "residual.csv").read_bytes() == _per_value_csv(
        ("t", "x", "r"), [(t[i], x[j], r_grid[i, j]) for i in range(3)
                          for j in range(5) if not np.isnan(r_grid[i, j])])

    rows = [LadderRow(n=10.0, m=np.inf, sup_upper_violation=0.1, asc_plus=-0.0,
                      asc_minus=5e-324, cross_gap=1e308, mono_gap_n=-1.0 / 3.0),
            LadderRow(n=100.0, m=1e4, error="stability")]
    header = ("n", "m", "sup_upper_violation", "sup_lower_violation", "mono_violation",
              "asc_plus", "asc_minus", "cross_gap", "rate_slope")
    for slope in (None, -0.1):
        write_report_csv(tmp_path / "report.csv", rows, slope)
        assert (tmp_path / "report.csv").read_bytes() == _per_value_csv(header, [
            (r.n, r.m, r.sup_upper_violation, r.sup_lower_violation, r.mono_violation,
             r.asc_plus, r.asc_minus, r.cross_gap, np.nan if slope is None else slope)
            for r in rows])


@pytest.mark.parametrize("key, values", [("n_list", [4, 4]), ("m_list", [10, 10])])
def test_repeated_ladder_value_rejected(tmp_path, capsys, key, values):
    # a repeated rung would be swept and reported twice and fitted as one n
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
        "ladders": dict({"n_list": [4, 8], "m_list": [10, 100]}, **{key: values})})
    assert rc == EXIT_VALIDATION
    assert ("expected a strictly ascending list at /ladders/%s" % key
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("n_upper", float("nan")), ("m_lower", float("nan")), ("kappa_f", float("nan")),
    ("n_upper", float("inf")), ("kappa_f", float("-inf"))])
def test_non_finite_penalty_rejected(tmp_path, capsys, key, value):
    # json reads NaN and Infinity literals; no solve may run on them
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
        "penalties": {key: value}})
    assert rc == EXIT_VALIDATION
    assert "expected a finite number at /penalties/%s" % key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
