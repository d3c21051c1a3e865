"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Shared heavy runs are cached in module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

import oracles
from helpers import perturb_lower
from gdro import catalog
from gdro.cli import main
from gdro.convergence import asc_residuals, cross_validate, monotone_ladder
from gdro.gcore import Grid, PenaltyParams, ProblemSpec
from gdro.lattice import double_ladder, penalized_sweep, reflected_sweep
from gdro.pde import (PdeSchemeParams, complementarity_residual,
                      solve_double_obstacle_direct, solve_penalized_pde)

NOISE_FLOOR = 1e-9  # below this, refinement gaps are FP noise, not signal


def _criterion(num, name, ok, detail):
    print("[criterion %02d] %-28s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def _mid(grid, x0=0.0):
    return int(np.argmin(np.abs(grid.x - x0)))


def _anchor_grid(spec):
    return Grid.for_problem(spec, 400, 201)


def _solve_both(spec, grid, penalties=None):
    pen = penalties if penalties is not None else PenaltyParams()
    t0 = time.perf_counter()
    latt = penalized_sweep(spec, grid, pen)
    t_latt = time.perf_counter() - t0
    t0 = time.perf_counter()
    fd = solve_penalized_pde(spec, PdeSchemeParams(grid=grid, penalty=pen))
    t_pde = time.perf_counter() - t0
    return latt, fd, t_latt, t_pde


@pytest.fixture(scope="module")
def heat_run():
    spec = ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=1.0,
        phi="x*x", name="heat")
    grid = _anchor_grid(spec)
    return (spec, grid) + _solve_both(spec, grid)


@pytest.fixture(scope="module")
def gheat_runs():
    out = {}
    for name in ("gheat-convex", "gheat-concave"):
        spec = catalog.build_spec(catalog.get_entry(name))
        grid = _anchor_grid(spec)
        out[name] = (spec, grid) + _solve_both(spec, grid)
    return out


@pytest.fixture(scope="module")
def sine_setup():
    entry = catalog.get_entry("double-obstacle-sine")
    spec = catalog.build_spec(entry)
    grid = Grid.for_problem(spec, *entry.grid)
    return entry, spec, grid


@pytest.fixture(scope="module")
def sine_ladder(sine_setup):
    entry, spec, grid = sine_setup
    t0 = time.perf_counter()
    report = monotone_ladder(spec, grid, entry.ladders["n_list"])
    return report, time.perf_counter() - t0


def test_criterion_1_heat_anchor(heat_run):
    spec, grid, latt, fd, t_latt, t_pde = heat_run
    j = _mid(grid)
    err_l = abs(latt.u[0, j] - 1.0)
    err_p = abs(fd.u[0, j] - 1.0)
    ok = err_l <= 5e-3 and err_p <= 5e-3 and t_latt < 10.0 and t_pde < 10.0
    _criterion(1, "heat anchor", ok,
               "lattice err %.2e, pde err %.2e, runtimes %.2fs/%.2fs"
               % (err_l, err_p, t_latt, t_pde))


def test_criterion_2_gheat_anchors(gheat_runs):
    targets = {"gheat-convex": 4.0, "gheat-concave": -1.0}
    details = []
    ok = True
    for name, target in targets.items():
        spec, grid, latt, fd, t_latt, t_pde = gheat_runs[name]
        j = _mid(grid)
        err_l = abs(latt.u[0, j] - target)
        err_p = abs(fd.u[0, j] - target)
        ok = ok and err_l <= 2e-2 and err_p <= 2e-2 and t_latt < 10.0 and t_pde < 10.0
        details.append("%s: %.2e/%.2e" % (name, err_l, err_p))
    _criterion(2, "adversarial anchors", ok, "; ".join(details))


def test_criterion_3_monotone_ladder(sine_ladder):
    report, _ = sine_ladder
    assert all(r.error is None for r in report.rows)
    worst = max(r.mono_violation for r in report.rows)
    _criterion(3, "monotone ladder", worst <= 1e-9, "worst violation %.2e" % worst)


def test_criterion_4_penalty_rate(sine_ladder):
    report, elapsed = sine_ladder
    sups = [r.sup_upper_violation for r in report.rows]
    decades = np.log10(max(sups) / min(sups))
    ok = report.rate_slope <= -0.8 and decades >= 2.0 and elapsed < 60.0
    _criterion(4, "upper-violation rate", ok,
               "slope %.3f, %.2f decades, %.1fs" % (report.rate_slope, decades, elapsed))


def test_criterion_5_double_orderings(sine_setup):
    _, spec, grid = sine_setup
    ns = [4.0, 16.0, 64.0, 256.0]
    ms = [4.0, 16.0, 64.0, 256.0]
    report = double_ladder(spec, grid, ns, ms)
    worst = 0.0
    for row in report.cells:
        for cell in row:
            assert cell.error is None
            worst = max(worst, cell.mono_gap_n, cell.mono_gap_m)
    dom = 0.0
    for n in ns:
        refl = reflected_sweep(spec, grid, n, penalty_mode="nodewise-implicit")
        for m in ms:
            pen = penalized_sweep(spec, grid, PenaltyParams(
                n_upper=n, m_lower=m, penalty_mode="nodewise-implicit"))
            dom = max(dom, float(np.max(pen.u - refl.u)))
    ok = worst <= 1e-9 and dom <= 1e-9
    _criterion(5, "double-index orderings", ok,
               "worst ordering gap %.2e, domination gap %.2e" % (worst, dom))


def test_criterion_6_pushing_consistency(sine_setup):
    entry, spec, grid = sine_setup
    refl = reflected_sweep(spec, grid, 64.0, penalty_mode="nodewise-implicit")
    exact_plus, _ = asc_residuals(refl, spec, grid)

    values = []
    for m in entry.ladders["m_list"]:
        fld = penalized_sweep(spec, grid, PenaltyParams(
            n_upper=64.0, m_lower=m, penalty_mode="nodewise-implicit"))
        plus, _ = asc_residuals(fld, spec, grid)
        values.append(plus)
    decay_ok = all(b <= 0.5 * a for a, b in zip(values[:-1], values[1:]))
    ok = exact_plus == 0.0 and decay_ok
    _criterion(6, "pushing consistency", ok,
               "reflected asc_plus %.1e, ladder %s" %
               (exact_plus, ["%.2e" % v for v in values]))


def _refined(entry):
    n_t, n_x = entry.grid
    return (n_t, n_x), (4 * n_t, 2 * (n_x - 1) + 1)


def test_criterion_7_cross_validation(gheat_runs):
    details = []
    ok = True
    # budget on the two closed-form anchors
    for name in ("gheat-convex", "gheat-concave"):
        spec, grid, latt, fd, _, _ = gheat_runs[name]
        gap = cross_validate(spec, grid, PenaltyParams())
        budget = 5.0 * (grid.dt + grid.dx ** 2)
        ok = ok and gap <= budget
        details.append("%s %.1e<=%.1e" % (name, gap, budget))
    # refinement trend on every catalog problem
    for name in catalog.catalog_names():
        entry = catalog.get_entry(name)
        spec = catalog.build_spec(entry)
        pen = PenaltyParams(**entry.penalties)
        gaps = []
        for n_t, n_x in _refined(entry):
            grid = Grid.for_problem(spec, n_t, n_x)
            gaps.append(cross_validate(spec, grid, pen))
        ok = ok and (gaps[1] <= gaps[0] or gaps[1] <= NOISE_FLOOR)
        details.append("%s %.1e->%.1e" % (name, gaps[0], gaps[1]))
    _criterion(7, "cross-validation", ok, "; ".join(details))


def test_criterion_8_residual_refinement():
    details = []
    ok = True
    for name in catalog.catalog_names():
        entry = catalog.get_entry(name)
        spec = catalog.build_spec(entry)
        sups = []
        for n_t, n_x in _refined(entry):
            grid = Grid.for_problem(spec, n_t, n_x)
            fld = solve_double_obstacle_direct(spec, PdeSchemeParams(grid=grid))
            _, sup = complementarity_residual(fld, spec, grid)
            sups.append(sup)
        ok = ok and (sups[1] <= 0.5 * sups[0] or sups[1] <= NOISE_FLOOR)
        details.append("%s %.1e->%.1e" % (name, sups[0], sups[1]))
    _criterion(8, "residual refinement", ok, "; ".join(details))


def test_criterion_9_binomial_oracle():
    entry = catalog.get_entry("american-put-analog")
    spec = catalog.build_spec(entry)
    grid = Grid.for_problem(spec, *entry.grid)
    assert oracles.binomial_put(**oracles.BINOMIAL_PUT_PARAMS) == \
        oracles.BINOMIAL_PUT_VALUE  # fixture integrity
    fld = reflected_sweep(spec, grid, 0.0)
    diff = abs(fld.u[0, _mid(grid, 1.0)] - oracles.BINOMIAL_PUT_VALUE)
    _criterion(9, "independent put oracle", diff <= 2.0 * grid.dx,
               "gap to oracle %.2e, budget %.2e" % (diff, 2.0 * grid.dx))


def test_criterion_10_stability_probe(sine_setup):
    from gdro.convergence import stability_probe
    entry, spec, grid = sine_setup
    pen = PenaltyParams(**entry.penalties)
    gaps = []
    for eps in entry.ladders["epsilon_list"]:
        gap, _ = stability_probe(spec, perturb_lower(spec, eps), grid, pen)
        gaps.append(gap)
    decreasing = all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
    ok = decreasing and gaps[-1] <= 0.1 * gaps[0]
    _criterion(10, "stability probe", ok,
               "gaps %s" % ["%.2e" % g for g in gaps])


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "problem": "gheat-convex", "grid": {"n_t": 400, "n_x": 201},
        "method": "both", "emit": ["field", "report", "residual"]}))
    rc1 = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a"),
                "--threads", "1"])
    rc8 = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b"),
                "--threads", "8"])
    assert rc1 == 0 and rc8 == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    identical = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
                    for n in names)
    _criterion(11, "thread determinism", identical,
               "%d files byte-compared" % len(names))
