import gc
import itertools
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdro.cli
import gdro.gcore
import gdro.lattice
import gdro.pde
from gdro.cli import (EXIT_ASSERT, EXIT_OK, EXIT_STABILITY, EXIT_VALIDATION,
                      ConfigError, load_config, main, parse_config,
                      write_field_csv, write_report_csv, write_residual_csv)
from gdro.catalog import CATALOG, build_spec
from gdro.convergence import stability_probe
from gdro.gcore import Grid
from gdro.scheme import LadderRow, SolutionField
from helpers import perturb_lower

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
        assert cfg.spec.name == "gheat-convex"
        assert cfg.grid.n_t == 10 and cfg.method == "both"

    def test_inline_problem(self, tmp_path):
        cfg = load_config(_write(tmp_path, {
            "problem": dict(INLINE_HEAT, f="0.5*z"),
            "grid": {"n_t": 10, "n_x": 21}, "method": "lattice"}))
        assert cfg.spec.name == "inline" and cfg.entry is None and cfg.method == "lattice"

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
        ({"grid": {"n_t": 4, "n_x": 5, "nx": 9}}, "/grid/nx", "unknown grid key"),
        ({"problem": dict(INLINE_HEAT, horizon=5e-324)}, "/grid",
         "need dt = t_max/n_t > 0, got 0.0"),
        ({"problem": dict(INLINE_HEAT, x_min=1e16, x_max=1.0000000000000004e16),
          "grid": {"n_t": 40, "n_x": 11}}, "/grid", "need finite, strictly increasing x nodes"),
        ({"problem": dict(INLINE_HEAT, sigma_low=1e-300, sigma_high=1e300)}, "/problem",
         "need a finite sigma_high**2, got sigma_high=1e+300"),
        ({"problem": dict(INLINE_HEAT, x_min=-1e308, x_max=1e308)}, "/problem",
         "need a finite x_max - x_min"),
        ({"problem": dict(INLINE_HEAT, name=["a", 1])}, "/problem/name", "expected a string"),
        ({"grid": {"n_t": 10 ** 30, "n_x": 11}}, "/grid",
         "need (n_t + 1)*n_x <= 8388608 nodes, got 11000000000000000000000000000011"),
        ({"problem": "gheat-convex", "grid": {"n_t": 10, "n_x": 10 ** 11}}, "/grid",
         "need (n_t + 1)*n_x <= 8388608 nodes, got 1100000000000"),
        ({"problem": dict(INLINE_HEAT, phi="sin(" * 197 + "x" + ")" * 197)}, "/problem",
         "bad expression: expression nests deeper than 100 levels (offset 396)"),
        # 25 nodes a cell count as 512: each cell costs kilobytes at any grid
        ({"ladders": {"n_list": list(range(400)), "m_list": list(range(400))}}, "/ladders",
         "the run's 160801 lattice cells need 82330112 cell-nodes (cap 67108864)"),
        # dx**2 underflows to 0.0 or overflows, which the PDE's substep count divides by
        ({"problem": dict(INLINE_HEAT, x_min=0.0, x_max=1e-300), "grid": {"n_t": 1, "n_x": 3}},
         "/grid", "need 0 < dx*dx < inf, got dx = 5e-301"),
        ({"problem": dict(INLINE_HEAT, x_min=-8e307, x_max=8e307),
          "grid": {"n_t": 10, "n_x": 3}}, "/grid", "need 0 < dx*dx < inf, got dx = 8e+307"),
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

    def test_peak_between_reported_times_is_not_read(self, tmp_path, capsys):
        # sigma is 1 at every reported time t = k/20 but reaches 4 in between;
        # both solvers read the coefficients at reported times only, so both
        # substep and step on sigma = 1 and run stably
        rc = _solve(tmp_path, {
            "problem": {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
                        "sigma_low": 0.5, "sigma_high": 1.0,
                        "sigma": "1 + 3*pos(sin(62.83185307179586*t))",
                        "phi": "0.1*sin(3*x)"},
            "grid": {"n_t": 20, "n_x": 121}, "method": "both", "emit": ["field"]}, "--assert")
        assert rc == EXIT_OK
        assert "assert-suite status=ok" in capsys.readouterr().err
        for name in ("field_lattice.csv", "field_pde.csv"):
            table = np.genfromtxt(tmp_path / "out" / name, delimiter=",", skip_header=1)
            assert table.shape == (21 * 121, 8) and np.isfinite(table).all()

    def test_pde_work_cap(self, tmp_path, capsys, monkeypatch):
        # 100 steps of 6,401 substeps on 4,001 nodes: each within its own
        # cap, but 2.56e9 node-substeps, minutes of work above pde.MAX_PDE_WORK;
        # the run is rejected before the solve allocates a field
        monkeypatch.setattr(gdro.pde.SolutionField, "empty", classmethod(
            lambda cls, grid: pytest.fail("a PDE field was allocated")))
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT, sigma_low=1.2, sigma_high=1.2),
            "grid": {"n_t": 100, "n_x": 4001}, "method": "pde", "emit": []})
        assert rc == EXIT_STABILITY
        assert ('stability status=rejected detail="the PDE solve needs n_t*nsub*n_x = '
                '2561040100 node-substeps (cap 2147483648) at 6401 substeps per step; '
                'coarsen the grid"' in capsys.readouterr().err)

    def test_pde_work_cap_rejects_before_the_lattice_and_the_fork(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the same run under --method both, above the fork gate: the PDE's
        # caps are checked before the lattice batch is swept, here or in a
        # forked child, whose sweep the rejection would throw away
        forks, sweeps = [], []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
        monkeypatch.setattr(gdro.lattice, "_run_sweep", lambda *args: sweeps.append(args))
        grid = {"n_t": 100, "n_x": 4001}
        assert (grid["n_t"] + 1) * grid["n_x"] >= gdro.cli._FORK_NODES
        rc = _solve(tmp_path, {
            "problem": dict(INLINE_HEAT, sigma_low=1.2, sigma_high=1.2),
            "grid": grid, "method": "both", "emit": []})
        assert rc == EXIT_STABILITY and forks == [] and sweeps == []
        assert ('stability status=rejected detail="the PDE solve needs n_t*nsub*n_x = '
                '2561040100 node-substeps (cap 2147483648) at 6401 substeps per step; '
                'coarsen the grid"' in capsys.readouterr().err)

    def test_kernel_coefficients_evaluated_on_the_grid_once(self, tmp_path, monkeypatch):
        # validation's tables of sigma, b and l feed the run plan, which sizes
        # the PDE's substeps, the lattice's margin and the cone, mask and
        # summary; the solvers' z fields take sigma from their block tables
        calls = []
        call = gdro.gcore.Coefficients.__call__

        def counted(coeffs, name, t=None):
            if isinstance(t, np.ndarray) and len(t) == grid["n_t"] + 1:
                calls.append(name)
            return call(coeffs, name, t)

        monkeypatch.setattr(gdro.gcore.Coefficients, "__call__", counted)
        grid = {"n_t": 20, "n_x": 33}
        rc = _solve(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, sigma="1 + 0.2*sin(x + t)",
                            b="0.1*cos(x - t)", l="0.05*sin(x*t)"),
            "grid": grid, "method": "both", "emit": ["field", "report", "residual"],
            "ladders": {"n_list": [4, 8], "m_list": [10], "epsilon_list": [0.1]}})
        assert rc == EXIT_OK
        assert sorted(c for c in calls if c in ("sigma", "b", "l")) == ["b", "l", "sigma"]

    def test_drift_weight_rejection_names_its_node(self, tmp_path):
        # b grows like t^2, so the upwind drift weight |mu|/dx passes 0.5 at
        # the first step; the first such node is the widened lattice's edge.
        # An eps-probe equal to the main cell makes a batch of one cell that
        # reads reductions
        for ladders in ({}, {"epsilon_list": [0.0]}):
            cfg = _write(tmp_path, {
                "problem": dict(UNCERTAIN_SINE, b="40*t*t*(1 + 0.1*x)"),
                "grid": {"n_t": 20, "n_x": 61}, "method": "lattice", "ladders": ladders})
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

    @pytest.mark.parametrize("out, error", [
        ("taken", "[Errno 17] File exists"), ("taken/x", "[Errno 20] Not a directory")])
    def test_unmakeable_output_directory_exits_2(self, tmp_path, out, error):
        # the solves run, then the directory cannot be made under a regular file
        (tmp_path / "taken").write_text("")
        cfg = _write(tmp_path, {"problem": "gheat-convex", "grid": {"n_t": 10, "n_x": 21}})
        proc = subprocess.run(
            [sys.executable, "-m", "gdro.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / out)], capture_output=True, text=True)
        assert proc.returncode == EXIT_VALIDATION
        assert 'output status=error detail="%s: ' % error in proc.stderr
        assert "Traceback" not in proc.stderr

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


#: x domain ends from the smallest subnormal to near the largest double
_X_ENDS = sorted({0.0, *(s * v for v in (5e-324, 1e-300, 1e-160, 1e-10, 1.0, 1e154, 1e300,
                                         8.9e307) for s in (1.0, -1.0))})


def test_grid_extremes_exit_cleanly(tmp_path):
    """Every x domain with ends from _X_ENDS, at three grid and method
    shapes, exits 0, 2, 3 or 4 without raising, and an exit 0 leaves finite
    fields."""
    shapes = [(1, 3, "both"), (5, 9, "pde"), (3, 5, "lattice")]
    runs = list(itertools.product(shapes, itertools.combinations(_X_ENDS, 2)))
    codes = []
    for k, ((n_t, n_x, method), (x_min, x_max)) in enumerate(runs):
        out = tmp_path / str(k)
        codes.append(main(["solve", "--config", _write(tmp_path, {
            "problem": dict(UNCERTAIN_SINE, x_min=x_min, x_max=x_max),
            "grid": {"n_t": n_t, "n_x": n_x}, "method": method,
            "emit": ["field", "report", "residual"]}), "--out", str(out), "--assert"]))
        assert codes[-1] in (EXIT_OK, EXIT_VALIDATION, EXIT_STABILITY, EXIT_ASSERT), (k, runs[k])
        if codes[-1] == EXIT_OK:
            for path in out.glob("field_*.csv"):
                table = np.genfromtxt(path, delimiter=",", skip_header=1)
                assert np.isfinite(table).all(), (runs[k], path.name)
    assert len(codes) == 408 and EXIT_OK in codes


_LADDER_ENTRIES = st.lists(st.sampled_from([-1.0, 0.0, 4.0, 16.0, 64.0]), max_size=3,
                           unique=True).map(sorted)


@settings(max_examples=600, deadline=None)
@example(n_t=8, n_x=3, method="pde", emit=[], domain=(0.5, 3.0), drift=("l", 1.0),
         penalties={}, ladders={"epsilon_list": [0.0]})
@given(n_t=st.integers(1, 12), n_x=st.integers(3, 15),
       method=st.sampled_from(["lattice", "pde", "both"]),
       emit=st.lists(st.sampled_from(["field", "report", "residual"]), unique=True),
       domain=st.sampled_from([(-3.0, 3.0), (0.5, 3.0)]),
       drift=st.tuples(st.sampled_from(["b", "l"]), st.floats(0.0, 3.0)),
       penalties=st.fixed_dictionaries({}, optional={
           "n_upper": st.sampled_from([0.0, 4.0, 64.0]),
           "m_lower": st.sampled_from(["projection", 0.0, 4.0, 64.0]),
           "penalty_mode": st.sampled_from(["explicit", "nodewise-implicit"])}),
       ladders=st.fixed_dictionaries({}, optional={
           "epsilon_list": st.lists(st.sampled_from([0.0, -0.0, 0.1, 1e6]), max_size=3),
           "n_list": _LADDER_ENTRIES, "m_list": _LADDER_ENTRIES}))
def test_exit_codes_over_ladders_probes_and_drift(tmp_path_factory, n_t, n_x, method, emit,
                                                   domain, drift, penalties, ladders):
    """A run on a tiny grid with a drift c*x in b or l, under any method,
    outputs, penalties, ladders and eps-probes, exits 0, 2, 3 or 4 without
    raising, and an exit 0 leaves finite fields."""
    out = tmp_path_factory.mktemp("run")
    problem = dict(UNCERTAIN_SINE, x_min=domain[0], x_max=domain[1])
    problem[drift[0]] = "%r*x" % drift[1]
    rc = main(["solve", "--config", _write(out, {
        "problem": problem, "grid": {"n_t": n_t, "n_x": n_x}, "method": method,
        "emit": emit, "penalties": penalties, "ladders": ladders}),
        "--out", str(out / "out")])
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_STABILITY, EXIT_ASSERT)
    if rc == EXIT_OK:
        for path in (out / "out").glob("field_*.csv"):
            assert np.isfinite(np.genfromtxt(path, delimiter=",", skip_header=1)).all()


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
        stability_probe(cfg.spec, perturb_lower(cfg.spec, eps), cfg.grid, cfg.penalties)[0]
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


@pytest.mark.parametrize("grid", [{"n_t": 20, "n_x": 33}, {"n_t": 200, "n_x": 161}],
                         ids=["20x33", "200x161"])
def test_run_sweeps_one_batch_at_every_grid(tmp_path, monkeypatch, grid):
    """The main cell, the probes and every cell of the three ladders are one
    sweep, also at the catalog's default grid, where their fields would not
    fit one batch; the sweep keeps only the main cell's field."""
    batches = []
    run_sweep = gdro.lattice._run_sweep

    def recording(spec, grid, cells):
        batches.append(cells)
        results = run_sweep(spec, grid, cells)
        kept.extend(r.field is not None for r in results.values())
        return results

    kept = []
    monkeypatch.setattr(gdro.lattice, "_run_sweep", recording)
    # n_upper = 32 is outside n_list, so the m-ladder is a row of its own
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": grid,
        "method": "both", "emit": ["report"], "penalties": {"n_upper": 32},
        "ladders": {"n_list": [4, 8, 16], "m_list": [10, 100], "epsilon_list": [0.1, 0.01]}})
    assert rc == EXIT_OK
    (one,) = batches
    # main and probes, the reflected rungs, the double ladder, the m-row
    assert len(one) == 3 + 3 + 3 * 2 + 2
    assert kept == [True] + [False] * (len(one) - 1)


def test_cell_node_cap_rejects_before_any_sweep(tmp_path, monkeypatch, capsys):
    """A run whose lattice cells would hold more than MAX_CELL_NODES
    cell-nodes exits 2 at /ladders before anything is swept: 3,000 rungs at
    200x161 once ran out of memory allocating their fields.  The catalog's
    own ladders are counted under --assert."""
    monkeypatch.setattr(gdro.lattice, "_run_sweep",
                        lambda *args: pytest.fail("a lattice sweep ran"))
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 200, "n_x": 161},
        "method": "lattice", "ladders": {"n_list": [4.0 + k for k in range(3000)]}})
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config status=error") and err.rstrip().endswith('at /ladders"')
    assert "3001 lattice cells" in err

    payload = {"problem": "double-obstacle-sine", "grid": {"n_t": 2000, "n_x": 1601}}
    parse_config(payload)  # no ladders of its own
    assert _solve(tmp_path, payload, "--assert") == EXIT_VALIDATION
    assert 'at /ladders"' in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_ladders_within_the_cell_node_cap(name):
    entry = CATALOG[name]
    grid = Grid.for_problem(build_spec(entry), *entry.grid)
    gdro.cli._check_cell_nodes(grid, dict(entry.ladders))


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
                      asc_minus=5e-324, mono_gap_n=-1.0 / 3.0),
            LadderRow(n=100.0, m=1e4, error="stability")]
    header = ("n", "m", "sup_upper_violation", "sup_lower_violation", "mono_violation",
              "asc_plus", "asc_minus", "rate_slope")
    for slope in (None, -0.1):
        write_report_csv(tmp_path / "report.csv", rows, slope)
        assert (tmp_path / "report.csv").read_bytes() == _per_value_csv(header, [
            (r.n, r.m, r.sup_upper_violation, r.sup_lower_violation, r.mono_violation,
             r.asc_plus, r.asc_minus, np.nan if slope is None else slope)
            for r in rows])


#: NaNs of different payloads and sign bits, each printed "nan"
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0xFFF00000DEADBEEF], dtype=np.uint64).view(np.float64)
SPECIAL = np.concatenate([AWKWARD, [0.0, -0.0], NANS])


def _pooled(rng, kind, shape):
    """Values of ``shape`` from a pool of at most four values ("small"), of
    nearly all distinct values ("large"), or small in the leading rows and
    large in the rest ("both")."""
    if kind == "both":
        cut = rng.integers(0, shape[0] + 1)
        return np.concatenate([_pooled(rng, "small", (cut,) + shape[1:]),
                               _pooled(rng, "large", (shape[0] - cut,) + shape[1:])])
    if kind == "small":
        pool = rng.choice(np.concatenate([SPECIAL, rng.standard_normal(4)]),
                          rng.integers(1, 5), replace=False)
        return pool[rng.integers(0, len(pool), shape)]
    values = rng.standard_normal(shape)
    if values.size:
        values.flat[rng.integers(0, values.size, 8)] = rng.choice(SPECIAL, 8)
    return values


KINDS = st.sampled_from(["small", "large", "both"])


@settings(max_examples=30, deadline=None)
@given(n_t=st.integers(1, 12),
       n_x=st.one_of(st.integers(3, 512), st.integers(513, 1024), st.integers(1025, 1500)),
       kinds=st.lists(KINDS, min_size=6, max_size=6),
       residual_slices=st.lists(st.sampled_from(["nan", "mixed", "finite"]),
                                min_size=13, max_size=13),
       n_rows=st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)),
       slope=st.one_of(st.none(), st.floats()), seed=st.integers(0, 2 ** 32 - 1))
def test_writers_match_per_value_reference_on_blocks(tmp_path_factory, n_t, n_x, kinds,
                                                     residual_slices, n_rows, slope, seed):
    # with 1,024-node blocks, a block holds several slices, exactly one, or
    # one wider than the budget; one file and one block mix columns of few
    # and of many distinct values
    rng = np.random.default_rng(seed)
    out = tmp_path_factory.mktemp("writers")
    grid = Grid(n_t=n_t, n_x=n_x, t_max=0.3, x_min=-0.1, x_max=0.3)
    shape = (n_t + 1, n_x)
    t, x = grid.t, grid.x

    fld = SolutionField(grid, *(_pooled(rng, kind, shape) for kind in kinds[:5]),
                        sigma_choice=rng.integers(0, 2, shape).astype(np.int8))
    columns = (fld.u, fld.z, fld.a_plus, fld.a_minus, fld.k_defect, fld.sigma_choice)
    write_field_csv(out / "field.csv", fld, grid)
    assert (out / "field.csv").read_bytes() == _per_value_csv(
        ("t", "x", "u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"),
        [(t[i], x[j]) + tuple(c[i, j] for c in columns)
         for i in range(n_t + 1) for j in range(n_x)])

    r_grid = _pooled(rng, kinds[5], shape)
    for i, how in enumerate(residual_slices[:n_t + 1]):
        if how == "nan":
            r_grid[i] = rng.choice(NANS, n_x)
        elif how == "mixed":
            r_grid[i, rng.random(n_x) < 0.5] = np.nan
    write_residual_csv(out / "residual.csv", r_grid, grid)
    assert (out / "residual.csv").read_bytes() == _per_value_csv(
        ("t", "x", "r"), [(t[i], x[j], r_grid[i, j]) for i in range(n_t + 1)
                          for j in range(n_x) if not np.isnan(r_grid[i, j])])

    entries = _pooled(rng, kinds[0], (n_rows, 8))
    rows = [LadderRow(*r[:4], mono_gap_n=r[4], mono_gap_m=r[5], asc_plus=r[6],
                      asc_minus=r[7]) for r in entries]
    write_report_csv(out / "report.csv", rows, slope)
    assert (out / "report.csv").read_bytes() == _per_value_csv(
        ("n", "m", "sup_upper_violation", "sup_lower_violation", "mono_violation",
         "asc_plus", "asc_minus", "rate_slope"),
        [(r.n, r.m, r.sup_upper_violation, r.sup_lower_violation, r.mono_violation,
          r.asc_plus, r.asc_minus, np.nan if slope is None else slope)
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


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("key", ["horizon", "x_min", "x_max", "sigma_low", "sigma_high"])
def test_non_finite_problem_number_rejected(tmp_path, capsys, key, value):
    # an infinite x_max made an x column of nan and inf under exit 0
    rc = _solve(tmp_path, {
        "problem": dict(UNCERTAIN_SINE, **{key: value}), "grid": {"n_t": 10, "n_x": 11},
        "method": "both", "emit": ["field"]})
    assert rc == EXIT_VALIDATION
    assert "expected a finite number at /problem/%s" % key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, source, message", [
    ("phi", "t", "phi may only use x, not t"),
    ("b", "y", "b may only use t, x, not y"),
    ("h_prime", "2 + z*t", "h_prime may only use t, x, not z"),
    ("sigma", "1 + 0*y*z", "sigma may only use t, x, not y, z")])
def test_coefficient_variable_rejected(tmp_path, capsys, key, source, message):
    # such a coefficient ended the run in an uncaught UnboundVariableError
    rc = _solve(tmp_path, {
        "problem": dict(UNCERTAIN_SINE, **{key: source}), "grid": {"n_t": 10, "n_x": 11}})
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "config status=error" in err and "%s at /problem/%s" % (message, key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, values, index", [
    ("n_list", [4, float("nan")], 1), ("m_list", [float("nan"), 100], 0),
    ("epsilon_list", [float("nan")], 0)])
def test_nan_ladder_entry_rejected(tmp_path, capsys, key, values, index):
    # a NaN probe would make h NaN everywhere, which the obstacle step reads
    # as no lower obstacle; +-inf passes the schema, and a non-finite field
    # it makes exits 3
    rc = _solve(tmp_path, {
        "problem": "double-obstacle-sine", "grid": {"n_t": 40, "n_x": 33},
        "ladders": dict({"n_list": [4, 8], "m_list": [10, 100]}, **{key: values})})
    assert rc == EXIT_VALIDATION
    assert ("expected a number, not NaN at /ladders/%s/%d" % (key, index)
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, pointer", [
    ("problem", "/problem/horizon"), ("penalties", "/penalties/n_upper"),
    ("ladders", "/ladders/n_list/1")])
def test_number_beyond_double_rejected(tmp_path, capsys, where, pointer):
    # float() of such a JSON integer raised OverflowError: exit 1
    big = 10 ** 400
    payload = {"problem": UNCERTAIN_SINE, "grid": {"n_t": 10, "n_x": 11}}
    if where == "problem":
        payload["problem"] = dict(UNCERTAIN_SINE, horizon=big)
    elif where == "penalties":
        payload["penalties"] = {"n_upper": big}
    else:
        payload["ladders"] = {"n_list": [4, big]}
    rc = _solve(tmp_path, payload)
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "config status=error" in err
    assert "expected a number within the range of a double at %s" % pointer in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, source, code, record", [
    ("phi", "1e200^2", EXIT_VALIDATION, "kind=non-finite-coefficient"),
    ("b", "0*1e200^2", EXIT_VALIDATION, "kind=non-finite-coefficient"),
    ("f", "0*(1e200^2)*y", EXIT_STABILITY, "kind=non-finite-field")])
def test_overflowing_power_rejected(tmp_path, capsys, key, source, code, record):
    # a Python float power raised OverflowError: exit 1; it saturates to
    # inf now, and validation or the solve rejects what that makes
    rc = _solve(tmp_path, {
        "problem": dict(UNCERTAIN_SINE, **{key: source}), "grid": {"n_t": 10, "n_x": 11}})
    assert rc == code
    assert record in capsys.readouterr().err


def test_non_ascii_digit_is_bad_expression(tmp_path, capsys):
    # float('²') raised a ValueError, reported without "bad expression"
    rc = _solve(tmp_path, {
        "problem": dict(UNCERTAIN_SINE, phi="²"), "grid": {"n_t": 10, "n_x": 11}})
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "config status=error" in err
    assert "bad expression: expected an operand (offset 0) at /problem" in err
    assert not (tmp_path / "out").exists()


#: a run whose summary residuals (h' - u)*a_minus overflow to inf
OVERFLOWING_RESIDUAL = {
    "problem": {"horizon": 1.0, "x_min": -1.0, "x_max": 1.0, "sigma_low": 0.5,
                "sigma_high": 1.0, "phi": "0", "h": "-1", "h_prime": "1", "f": "1e300"},
    "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
    "grid": {"n_t": 10, "n_x": 11}, "method": "lattice", "emit": []}


def test_overflowing_residual_written_without_warning(tmp_path, capsys):
    # the summary's residuals run after the solves' errstate: RuntimeWarnings
    # on stderr, an error under -W error
    rc = _solve(tmp_path, OVERFLOWING_RESIDUAL)
    assert rc == EXIT_OK
    assert "Warning" not in capsys.readouterr().err


def test_summary_is_strict_json(tmp_path):
    # an overflowing residual is written as null, not as Infinity, which is
    # not JSON: a strict reader rejects NaN, Infinity and -Infinity
    def reject(constant):
        raise ValueError("non-JSON constant %s" % constant)

    assert _solve(tmp_path, OVERFLOWING_RESIDUAL) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["asc_lattice"]["minus"] is None
    assert summary["asc_lattice"]["minus_global"] is None
    assert np.isfinite(summary["asc_lattice"]["plus"])


#: runs ``gdro.cli.main`` ARGV[2] times in a fresh interpreter whose
#: ``gc.freeze`` counts its calls; an atexit canary registered before gdro
#: runs after gdro's hook and prints the frozen objects and the call count
_EXIT_CANARY = """
import atexit, gc, sys
calls = []
freeze = gc.freeze
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print("frozen", gc.get_freeze_count(), "calls", len(calls)))
sys.path.insert(0, sys.argv[1])
import gdro.cli
for _ in range(int(sys.argv[2])):
    rc = gdro.cli.main(sys.argv[3:])
sys.exit(rc)
"""

SMALL_LATTICE = {"problem": dict(INLINE_HEAT), "grid": {"n_t": 10, "n_x": 11},
                 "method": "lattice"}


@pytest.mark.parametrize("runs", [1, 2])
def test_exit_hook_freezes_the_heap_once(tmp_path, runs):
    # the heap alive at exit goes to the permanent generation, by one
    # gc.freeze however often main runs
    src = os.path.dirname(os.path.dirname(gdro.cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _EXIT_CANARY, src, str(runs), "solve",
         "--config", _write(tmp_path, SMALL_LATTICE), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    _, frozen, _, calls = proc.stdout.split()
    assert int(frozen) > 0 and int(calls) == 1


def test_main_leaves_garbage_collection_on(tmp_path):
    # the hook acts only at exit: an in-process caller keeps normal collection
    assert _solve(tmp_path, SMALL_LATTICE) == EXIT_OK
    assert gc.isenabled() and gc.get_freeze_count() == 0
