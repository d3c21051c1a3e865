import pickle
import tracemalloc

import numpy as np
import pytest

import gdro.lattice
import oracles
from gdro import gcore
from gdro.convergence import monotone_ladder
from gdro.expr import BinOp, DomainError, Num, UnboundVariableError, parse_expr
from gdro.gcore import Grid, PenaltyParams, ProblemSpec, RunPlan, StabilityError
from gdro.lattice import (SweepCell, _run_sweep, conditional_g_expectation, double_ladder,
                          ghost_cells, penalized_sweep, reflected_sweep, sweep_cells)
from gdro.pde import PdeSchemeParams, solve_penalized_pde
from gdro.record import replace
from gdro.scheme import SolutionField


def _spec(**kw):
    defaults = dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0,
                    sigma_high=2.0, phi="x*x")
    defaults.update(kw)
    return ProblemSpec.from_strings(**defaults)


def _mid(grid, x0=0.0):
    return int(np.argmin(np.abs(grid.x - x0)))


class TestConditionalGExpectation:
    def test_quadratic_slice_picks_high(self):
        # variance is matched exactly, so x^2 maps to sigma^2 * dt on the nose
        spec = _spec(horizon=0.5)
        grid = Grid.for_problem(spec, 1, 241)
        value, choice, defects = conditional_g_expectation(
            grid.x ** 2, 0.0, 0.0, spec, grid)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert choice == 1
        assert defects[1] == 0.0
        assert defects[0] == pytest.approx(-1.5, abs=1e-12)

    def test_constant_slice(self):
        spec = _spec(horizon=0.5)
        grid = Grid.for_problem(spec, 1, 241)
        value, choice, defects = conditional_g_expectation(
            np.full(grid.n_x, 7.0), 0.0, 0.25, spec, grid)
        assert value == 7.0
        assert defects == (0.0, 0.0)
        assert choice == 0  # tie resolves to the low endpoint

    def test_capped_quadratic_hand_enumeration(self):
        # dt = 0.25 puts the probes on grid nodes at +-0.5 and +-1.0, so the
        # value must equal the two-point averages enumerated in oracles.py
        spec = _spec(horizon=0.25)
        grid = Grid.for_problem(spec, 1, 241)
        slice_ = np.minimum(grid.x ** 2, 1.0)

        value, choice, _ = conditional_g_expectation(
            slice_, 0.0, oracles.STEP_MINSQ_HIGH_AT, spec, grid)
        assert value == pytest.approx(oracles.STEP_MINSQ_VALUE, abs=1e-12)
        assert choice == 1

        value, choice, _ = conditional_g_expectation(
            slice_, 0.0, oracles.STEP_MINSQ_LOW_AT, spec, grid)
        assert value == pytest.approx(oracles.STEP_MINSQ_VALUE, abs=1e-12)
        assert choice == 0

    def test_drift_weight_rejection(self):
        # |b|*dt/dx = 2*0.5/0.05 = 20 cells per step
        spec = _spec(b="2")
        grid = Grid.for_problem(spec, 2, 121)
        with pytest.raises(StabilityError, match="drift displacement per step"):
            conditional_g_expectation(grid.x, 0.0, 0.0, spec, grid)

    def test_vectorized_matches_scalar(self):
        spec = _spec(horizon=0.5)
        grid = Grid.for_problem(spec, 2, 101)
        slice_ = np.sin(grid.x)
        values, choices, defects = conditional_g_expectation(
            slice_, 0.25, grid.x, spec, grid)
        v0, c0, d0 = conditional_g_expectation(slice_, 0.25, grid.x[37], spec, grid)
        assert values[37] == v0 and choices[37] == c0
        assert (defects[0][37], defects[1][37]) == d0
        assert np.all(np.minimum(defects[0], defects[1]) <= 0.0)


class TestPenalizedSweep:
    def test_heat_closed_form(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0)
        grid = Grid.for_problem(spec, 100, 101)
        fld = penalized_sweep(spec, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(
            oracles.heat_value(0.0, 0.0, 1.0), abs=1e-10)
        np.testing.assert_array_equal(fld.u[-1], grid.x ** 2)

    def test_gheat_convex_concave(self):
        grid_args = (100, 101)
        convex = _spec()
        grid = Grid.for_problem(convex, *grid_args)
        fld = penalized_sweep(convex, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(4.0, abs=1e-10)
        assert np.all(fld.sigma_choice[:-1, _mid(grid)] == 1)

        concave = _spec(phi="-x*x")
        fld = penalized_sweep(concave, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(-1.0, abs=1e-10)
        assert np.all(fld.sigma_choice[:-1, _mid(grid)] == 0)

    def test_single_penalty_step(self):
        # one explicit step; continuation at x=0 is exactly 0 for phi = x
        spec = _spec(horizon=0.1, x_min=-2.0, x_max=2.0,
                     sigma_low=1.0, sigma_high=1.0, phi="x", h="0.5")
        grid = Grid.for_problem(spec, 1, 5)
        fld = penalized_sweep(spec, grid, PenaltyParams(
            m_lower=10.0, kappa_f=0.0))
        assert fld.u[0, 2] == oracles.SINGLE_PENALTY_STEP_VALUE
        assert fld.a_plus[0, 2] == oracles.SINGLE_PENALTY_STEP_VALUE

    def test_z_driver_closed_form(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0, f="0.5*z")
        grid = Grid.for_problem(spec, 200, 201)
        fld = penalized_sweep(spec, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(
            oracles.z_drift_value(0.0, 0.0, 1.0), abs=2e-2)

    def test_drift_transport(self):
        # b = 1, no diffusion uncertainty effect on a linear slice:
        # u(t,x) = E[phi(x + (T-t))] = x + (T-t)
        spec = _spec(sigma_low=0.5, sigma_high=0.5, b="1", phi="x")
        grid = Grid.for_problem(spec, 200, 121)
        fld = penalized_sweep(spec, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(1.0, abs=1e-10)

    def test_ghost_margin_covers_both_endpoint_drifts(self):
        # b and l of opposite signs: the low endpoint drifts at
        # b + l*0.1^2 = 0.99, the high one at 0.  The margin must cover the
        # larger reach, or the clamped edge shows in the reported window;
        # the window [-1, 1] is columns 60:101 of the solve on [-4, 4]
        def solve(x_lim, n_x):
            spec = _spec(x_min=-x_lim, x_max=x_lim, sigma_low=0.1, sigma_high=1.0,
                         sigma="0.2", b="1", l="-1", phi="x")
            return penalized_sweep(spec, Grid.for_problem(spec, 50, n_x), PenaltyParams()).u
        np.testing.assert_allclose(solve(1.0, 41), solve(4.0, 161)[:, 60:101], rtol=0, atol=1e-9)

    def test_quadratic_variation_drift(self):
        # l realizes as l*sigma^2 under the chosen control; linear payoff
        # keeps curvature 0 so either endpoint is a tie -> low is chosen,
        # giving u = x + l*sigma_low^2*(T-t)... but ties keep value identical:
        # with phi = x the value is x + l*sig^2*(T-t) for the tie value sig.
        # Use a degenerate band so the realized rate is unambiguous.
        spec = _spec(sigma_low=0.8, sigma_high=0.8, l="0.5", phi="x")
        grid = Grid.for_problem(spec, 200, 121)
        fld = penalized_sweep(spec, grid, PenaltyParams())
        assert fld.u[0, _mid(grid)] == pytest.approx(
            0.5 * 0.8 ** 2, abs=1e-10)

    def test_constant_data_zero_ulp(self):
        spec = _spec(phi="5", b="0.3", l="0.1")
        grid = Grid.for_problem(spec, 50, 61)
        fld = penalized_sweep(spec, grid, PenaltyParams())
        assert np.all(fld.u == 5.0)
        assert np.all(fld.k_defect == 0.0)

    def test_comparison_in_terminal_data(self):
        lo = _spec(f="0.3*y", phi="min(x*x, 2)")
        hi = _spec(f="0.3*y", phi="min(x*x, 2) + 0.1")
        grid = Grid.for_problem(lo, 60, 81)
        u_lo = penalized_sweep(lo, grid, PenaltyParams()).u
        u_hi = penalized_sweep(hi, grid, PenaltyParams()).u
        assert np.min(u_hi - u_lo) >= -1e-12

    def test_cfl_rejection_explicit(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 50, 61)
        with pytest.raises(StabilityError):
            penalized_sweep(spec, grid, PenaltyParams(n_upper=1000.0))

    def test_implicit_kappa_rejection(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 2, 61)  # dt = 0.5, kappa_f = 5
        with pytest.raises(StabilityError):
            penalized_sweep(spec, grid, PenaltyParams(
                penalty_mode="nodewise-implicit"))

    def test_thread_count_bitwise_independent(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 40, 61)
        pen = PenaltyParams(n_upper=16.0, m_lower=16.0,
                            penalty_mode="nodewise-implicit")
        one = penalized_sweep(spec, grid, pen, threads=1)
        four = penalized_sweep(spec, grid, pen, threads=4)
        for name in ("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"):
            np.testing.assert_array_equal(getattr(one, name), getattr(four, name))


def _sine_spec():
    return ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        f="2*sin(x) - 0.3*y", phi="0.1*sin(x)",
        h="-0.4 + 0.1*sin(x + t)", h_prime="0.4 + 0.1*sin(x - t)")


class TestReflectedSweep:
    def test_projection_floor(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0, phi="x", h="0.5")
        grid = Grid.for_problem(spec, 50, 61)
        fld = reflected_sweep(spec, grid, 0.0)
        assert np.min(fld.u[:-1]) >= 0.5
        # just before T the left half still has continuation < 0.5, so the
        # projection is binding there and the value is exactly the floor
        binding = fld.a_plus[grid.n_t - 1] > 0
        assert binding.any()
        assert np.all(fld.u[grid.n_t - 1][binding] == 0.5)

    def test_inactive_obstacle_matches_penalized(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 40, 61)
        refl = reflected_sweep(spec, grid, 0.0)
        pen = penalized_sweep(spec, grid, PenaltyParams(m_lower=0.0))
        np.testing.assert_array_equal(refl.u, pen.u)
        np.testing.assert_array_equal(refl.a_plus, pen.a_plus)

    def test_pushing_increments_only_at_contact(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 80, 81)
        fld = reflected_sweep(spec, grid, 64.0, penalty_mode="nodewise-implicit")
        from gdro.gcore import obstacle_fields
        h, _ = obstacle_fields(spec, grid)
        assert np.max(np.abs((fld.u - h) * fld.a_plus)) == 0.0
        assert np.min(fld.a_plus) >= 0.0

    def test_put_analog_matches_binomial_oracle(self):
        assert oracles.binomial_put(**oracles.BINOMIAL_PUT_PARAMS) == \
            oracles.BINOMIAL_PUT_VALUE
        spec = ProblemSpec.from_strings(
            horizon=1.0, x_min=-0.5, x_max=2.5, sigma_low=0.4, sigma_high=0.4,
            sigma="0.4", phi="max(1 - x, 0)", h="max(1 - x, 0)")
        grid = Grid.for_problem(spec, 200, 241)
        fld = reflected_sweep(spec, grid, 0.0)
        j = _mid(grid, 1.0)
        assert abs(fld.u[0, j] - oracles.BINOMIAL_PUT_VALUE) <= 2 * grid.dx


class TestOrderings:
    def test_double_ladder_monotone_and_domination(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 60, 61)
        ns = [4.0, 32.0, 256.0]
        ms = [4.0, 32.0, 256.0]
        report = double_ladder(spec, grid, ns, ms)
        for row in report.cells:
            for cell in row:
                assert cell.error is None
                assert cell.mono_gap_n <= 1e-9
                assert cell.mono_gap_m <= 1e-9
        for i, n in enumerate(ns):
            refl = reflected_sweep(spec, grid, n, penalty_mode="nodewise-implicit")
            for m in ms:
                pen = penalized_sweep(spec, grid, PenaltyParams(
                    n_upper=n, m_lower=m, penalty_mode="nodewise-implicit"))
                assert np.max(pen.u - refl.u) <= 1e-9

    def test_double_ladder_empty(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 10, 31)
        report = double_ladder(spec, grid, [1.0, 2.0], [])
        assert report.cells == [[], []]

    @pytest.mark.parametrize("n_list, m_list", [([4.0, 4.0], [10.0]), ([4.0], [10.0, 10.0])])
    def test_double_ladder_rejects_repeated_rungs(self, n_list, m_list):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 10, 31)
        with pytest.raises(ValueError, match="n_list and m_list must be strictly ascending"):
            double_ladder(spec, grid, n_list, m_list)

    def test_double_ladder_records_cell_errors(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 20, 31)  # dt = 0.05
        report = double_ladder(spec, grid, [1.0, 1000.0], [1.0],
                               penalty_mode="explicit")
        assert report.cells[0][0].error is None
        assert report.cells[1][0].error is not None  # CFL breaks, ladder continues


def test_defect_and_choice_fields():
    spec = _spec(phi="min(x*x, 1)")
    grid = Grid.for_problem(spec, 50, 121)
    fld = penalized_sweep(spec, grid, PenaltyParams())
    assert np.max(fld.k_defect) <= 0.0
    assert set(np.unique(fld.sigma_choice)) <= {0, 1}
    assert fld.z.shape == fld.u.shape
    assert np.min(fld.a_plus) >= 0.0 and np.min(fld.a_minus) >= 0.0


def test_degenerate_band_defects_vanish():
    spec = _spec(sigma_low=1.3, sigma_high=1.3, phi="min(x*x, 1)")
    grid = Grid.for_problem(spec, 40, 81)
    fld = penalized_sweep(spec, grid, PenaltyParams())
    assert np.all(fld.k_defect == 0.0)


def test_randomized_monotone_perturbation():
    # one backward step: adding a nonnegative bump to the terminal slice
    # never decreases any node value (scheme monotonicity, exact)
    rng = np.random.default_rng(7)
    base = "min(x*x, 2)"
    for _ in range(5):
        a = float(rng.uniform(0.5, 6.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.01, 0.2))
        bump = "%r*pos(sin(%r*x + %r))" % (c, a, b)
        lo = _spec(phi=base, f="0.4*y", horizon=0.05)
        hi = _spec(phi="%s + %s" % (base, bump), f="0.4*y", horizon=0.05)
        grid = Grid.for_problem(lo, 1, 61)
        u_lo = penalized_sweep(lo, grid, PenaltyParams()).u[0]
        u_hi = penalized_sweep(hi, grid, PenaltyParams()).u[0]
        assert np.min(u_hi - u_lo) >= -1e-13


#: penalty modes mixed in one batch, in an order that interleaves them
_BATCH = [
    PenaltyParams(n_upper=16.0, m_lower=16.0, penalty_mode="nodewise-implicit"),
    PenaltyParams(n_upper=4.0, m_lower=10.0, penalty_mode="explicit"),
    PenaltyParams(n_upper=8.0, m_lower="projection", penalty_mode="nodewise-implicit"),
    PenaltyParams(n_upper=0.0, m_lower=64.0, penalty_mode="nodewise-implicit"),
    PenaltyParams(n_upper=0.0, m_lower=10.0, penalty_mode="explicit"),
    PenaltyParams(n_upper=16.0, m_lower=0.0, penalty_mode="nodewise-implicit"),
    PenaltyParams(n_upper=1000.0, m_lower=10.0, penalty_mode="explicit"),  # fails its CFL
    PenaltyParams(n_upper=8.0, m_lower="projection", penalty_mode="explicit"),
    PenaltyParams(n_upper=0.0, m_lower="projection", penalty_mode="nodewise-implicit"),
]
_SHIFT = 0.05


@pytest.mark.parametrize("data", [
    {},
    # the skipped penalty rows of an n = 0 cell compute 0*inf; no
    # RuntimeWarning may escape (pytest turns it into an error)
    {"h_prime": "1e400"},
    # h = -0.0 for x > 0, where the value sits on h: an unshifted cell's h
    # must keep its sign bit
    {"h": "-0*x", "phi": "-1 + 0.1*sin(x)"},
], ids=["sine", "infinite-h-prime", "signed-zero-h"])
def test_batched_sweep_equals_single_sweeps_bitwise(data):
    spec = ProblemSpec.from_strings(**{
        **dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
               f="2*sin(x) - 0.3*y + 0.1*z", phi="0.1*sin(x)",
               h="-0.4 + 0.1*sin(x + t)", h_prime="0.4 + 0.1*sin(x - t)"), **data})
    shifted = replace(spec, h=BinOp("+", spec.h, Num(_SHIFT)))
    grid = Grid.for_problem(spec, 20, 33)  # dt = 0.05
    cells = tuple(SweepCell(p) for p in _BATCH) + (
        SweepCell(_BATCH[0], h_shift=_SHIFT), SweepCell(_BATCH[1], h_shift=_SHIFT),
        SweepCell(_BATCH[2], h_shift=_SHIFT))
    batched = _run_sweep(spec, grid, cells)
    assert len(batched) == len(cells)
    for cell, got in zip(cells, batched):
        problem = shifted if cell.h_shift else spec
        if cell.penalties.n_upper == 1000.0:
            assert isinstance(got, StabilityError)
            with pytest.raises(StabilityError, match="CFL"):
                penalized_sweep(problem, grid, cell.penalties)
            continue
        assert isinstance(got, SolutionField)
        single = penalized_sweep(problem, grid, cell.penalties)
        for name in ("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"):
            a, b = getattr(got, name), getattr(single, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (cell, name)
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), (cell, name)


@pytest.mark.parametrize("solver", ["lattice", "pde"])
def test_driver_invalid_value_still_warns(solver):
    # only obstacle_update runs under errstate(invalid="ignore"): the 0*inf
    # a driver makes still gives numpy's RuntimeWarning in a library solve
    spec = _spec(f="0*exp(1000 + y)")
    grid = Grid.for_problem(spec, 8, 21)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        if solver == "lattice":
            penalized_sweep(spec, grid, PenaltyParams())
        else:
            solve_penalized_pde(spec, PdeSchemeParams(grid=grid))


def test_driver_domain_error_stays_with_its_cell():
    # the driver is 2 where defined and undefined above y = 1.05; h' = 1, so
    # the n = 10 rung overshoots h' by about 2/n and leaves the domain, while
    # the n = 1000 rung of the same batch stays inside it
    spec = ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        f="2 + 0*sqrt(1.05 - y)", phi="0.5", h="-10", h_prime="1")
    grid = Grid.for_problem(spec, 20, 33)
    low, high = (PenaltyParams(n_upper=n, m_lower="projection",
                               penalty_mode="nodewise-implicit") for n in (10.0, 1000.0))
    failed, swept = sweep_cells(spec, grid, [SweepCell(low), SweepCell(high)])
    assert isinstance(failed, DomainError)
    single = penalized_sweep(spec, grid, high)
    assert np.array_equal(swept.u.view(np.uint8), single.u.view(np.uint8))

    rows = monotone_ladder(spec, grid, [10.0, 1000.0]).rows
    assert "sqrt" in rows[0].error
    assert rows[1].error is None
    assert np.isfinite(rows[1].sup_upper_violation)


def test_batch_stability_error_is_every_cells_own(monkeypatch):
    # the drift weight fails for the whole problem, so the batch is swept
    # once; the n = 1000 rung keeps its own explicit step-size error
    spec = _spec(b="2")
    grid = Grid.for_problem(spec, 20, 33)
    cells = [SweepCell(PenaltyParams(n_upper=n, m_lower="projection")) for n in (4, 8, 1000)]
    singles = [str(sweep_cells(spec, grid, [cell])[0]) for cell in cells]
    calls = []
    run_sweep = gdro.lattice._run_sweep
    monkeypatch.setattr(gdro.lattice, "_run_sweep",
                        lambda *args: calls.append(1) or run_sweep(*args))
    errors = sweep_cells(spec, grid, cells)
    assert calls == [1]
    assert all(isinstance(err, StabilityError) for err in errors)
    assert [str(err) for err in errors] == singles
    assert "drift displacement per step" in singles[0] and "CFL" in singles[2]


#: every coefficient varies in t and x, so every block of tables differs
_VARCOEF = dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
                b="0.1*sin(x + t + 0.5)", l="0.04*cos(x - 2*t + 1)",
                sigma="1 + 0.2*sin(0.5*x + t + 2)",
                f="sin(x + 3)*cos(t + 0.3) - 0.3*y + 0.1*z*cos(x + t)",
                phi="0.08*sin(x + 1.5)", h="-0.4 + 0.08*sin(x + t + 2.5)",
                h_prime="0.4 + 0.08*sin(x - t + 4)")


def test_fields_independent_of_table_block_size(monkeypatch):
    # one-row blocks, blocks of a few steps (10 for the PDE, fewer on the
    # lattice's widened x-grid), and one block holding every step
    spec = ProblemSpec.from_strings(**_VARCOEF)
    grid = Grid.for_problem(spec, 20, 33)
    params = PdeSchemeParams(grid=grid, penalty=_BATCH[0])
    runs, ladders = [], []
    for budget in (1, 10 * grid.n_x, 10 ** 9):
        monkeypatch.setattr(gcore, "_BLOCK_NODES", budget)
        runs.append([penalized_sweep(spec, grid, _BATCH[1]),
                     *_run_sweep(spec, grid, tuple(SweepCell(p) for p in _BATCH[:6])),
                     solve_penalized_pde(spec, params)])
        # the ladder rows' asc sums run with the sweep, one block at a time
        ladders.append(pickle.dumps([double_ladder(spec, grid, [4.0, 16.0, 64.0],
                                                   [10.0, 100.0]).cells,
                                     monotone_ladder(spec, grid, [4.0, 16.0, 64.0]).rows]))
    for fields in zip(*runs):
        for name in ("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"):
            first, *others = (getattr(f, name).view(np.uint8) for f in fields)
            for other in others:
                assert np.array_equal(first, other), name
    assert ladders[1:] == ladders[:1] * 2


def test_ladder_memory_does_not_grow_with_a_table_per_cell():
    # a ladder cell keeps rows of nodes, not (n_t+1, n_x) tables: from
    # n_t = 40 to 160, the peak grows by less than one table's 120 extra
    # rows per cell of the 6 x 4 ladder
    spec = _sine_spec()
    peaks = []
    for n_t in (40, 160):
        grid = Grid.for_problem(spec, n_t, 33)
        tracemalloc.start()
        try:
            report = double_ladder(spec, grid, [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0],
                                   [1.0, 10.0, 100.0, 1000.0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(cell.error is None for row in report.cells for cell in row)
    assert peaks[1] - peaks[0] < 24 * 120 * 33 * 8


def test_batch_fields_own_their_memory_and_match_single_sweeps():
    # a step writes the batch into per-block buffers that are copied into
    # each cell's arrays; n_t = 80 leaves a last block shorter than the rest
    spec = ProblemSpec.from_strings(**_VARCOEF)
    grid = Grid.for_problem(spec, 80, 33)
    block_rows = gcore._BLOCK_NODES // (grid.n_x + 2 * ghost_cells(RunPlan.of(spec, grid), grid))
    assert 1 < block_rows < grid.n_t and grid.n_t % block_rows
    cells = [SweepCell(p) for p in _BATCH] + [SweepCell(_BATCH[0], _SHIFT)]
    fields = [f for f in sweep_cells(spec, grid, cells) if isinstance(f, SolutionField)]
    assert len(fields) == len(cells) - 1  # one cell fails its CFL check
    names = ("u", "a_plus", "a_minus", "k_defect", "sigma_choice")
    arrays = [getattr(f, name) for f in fields for name in names]
    for k, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])
    for cell, fld in zip((c for c in cells if c.penalties != _BATCH[6]), fields):
        single = sweep_cells(spec, grid, [cell])[0]
        for name in names:
            assert np.array_equal(getattr(fld, name).view(np.uint8),
                                  getattr(single, name).view(np.uint8)), (cell, name)


def test_t_free_kernel_equals_its_per_row_build():
    # a kernel from t-free sigma, b and l is built from one row; adding 0*t
    # makes the same values t-dependent, so every row is built
    t_free = dict(_VARCOEF, b="0.1*sin(x + 0.5)", l="0.04*cos(x + 1)",
                  sigma="1 + 0.2*sin(0.5*x + 2)")
    per_row = dict(t_free, **{name: t_free[name] + " + 0*t" for name in ("sigma", "b", "l")})
    cells = tuple(SweepCell(p) for p in _BATCH[:3])
    grid = Grid.for_problem(ProblemSpec.from_strings(**t_free), 20, 33)
    one, every = (_run_sweep(ProblemSpec.from_strings(**d), grid, cells) for d in (t_free, per_row))
    for a, b in zip(one, every):
        for name in ("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"):
            assert np.array_equal(getattr(a, name).view(np.uint8),
                                  getattr(b, name).view(np.uint8)), name


def _sweep_error(kind):
    """An error of the given kind, as sweep_cells returns it."""
    spec = _sine_spec()
    penalties = PenaltyParams(n_upper=64.0, m_lower=64.0, penalty_mode="nodewise-implicit")
    if kind == "stability":
        penalties = PenaltyParams(n_upper=1000.0, penalty_mode="explicit")
    elif kind == "domain":  # undefined only in the ghost cells
        spec = replace(spec, sigma=parse_expr("sqrt(x + 3.2)"))
    elif kind == "unbound":
        spec = replace(spec, sigma=parse_expr("1 + 0*y"))
    else:
        return ValueError("n_list must be strictly ascending")
    return sweep_cells(spec, Grid.for_problem(spec, 20, 33), [SweepCell(penalties)])[0]


@pytest.mark.parametrize("kind, cls", [
    ("stability", StabilityError), ("domain", DomainError),
    ("unbound", UnboundVariableError), ("value", ValueError)])
def test_sweep_errors_survive_pickling(kind, cls):
    # a forked run sends its lattice batch's results, errors included, as a pickle
    err = _sweep_error(kind)
    assert type(err) is cls
    back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)
