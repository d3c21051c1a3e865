import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gdro.expr import DomainError
from gdro.gcore import (Grid, PenaltyParams, ProblemSpec, RunPlan, StabilityError,
                        VolatilityBand, g_eval, obstacle_fields)
from gdro.lattice import SolutionField, penalized_sweep
from gdro.pde import (PdeSchemeParams, _dilate, complementarity_residual, f_operator,
                      solve_double_obstacle_direct, solve_penalized_pde, substeps)


def _spec(**kw):
    defaults = dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0,
                    sigma_high=2.0, phi="x*x")
    defaults.update(kw)
    return ProblemSpec.from_strings(**defaults)


def _mid(grid, x0=0.0):
    return int(np.argmin(np.abs(grid.x - x0)))


def _field_from(u, spec, grid):
    """Wrap an injected analytic value grid for residual evaluation."""
    zeros = np.zeros_like(u)
    return SolutionField(grid=grid, u=u, z=zeros.copy(), a_plus=zeros.copy(),
                         a_minus=zeros.copy(), k_defect=zeros.copy(),
                         sigma_choice=np.zeros(u.shape, dtype=np.int8))


class TestFOperator:
    def test_pure_diffusion(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0)
        assert f_operator(2.0, 0.0, 0.0, 0.0, 0.0, spec) == 1.0

    def test_pure_transport(self):
        spec = _spec(b="1")
        assert f_operator(0.0, 3.0, 0.0, 0.0, 0.0, spec) == 3.0

    def test_driver_passthrough(self):
        spec = _spec(f="y")
        assert f_operator(0.0, 0.0, 2.0, 0.0, 0.0, spec) == 2.0

    def test_quadratic_variation_term(self):
        # H = sigma^2 d2u + 2 l du enters the envelope before b du is added
        spec = _spec(l="1", sigma_low=1.0, sigma_high=2.0)
        # H = 0 + 2*1*1 = 2 -> G(2) = 4; plus b*du = 0
        assert f_operator(0.0, 1.0, 0.0, 0.0, 0.0, spec) == 4.0

    def test_array_arguments(self):
        spec = _spec()
        d2 = np.array([-1.0, 0.0, 1.0])
        out = f_operator(d2, 0.0, 0.0, 0.0, 0.0, spec)
        np.testing.assert_array_equal(out, g_eval(d2, VolatilityBand(1.0, 2.0)))


class TestPenalizedPde:
    def test_heat_closed_form(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0)
        grid = Grid.for_problem(spec, 100, 101)
        fld = solve_penalized_pde(spec, PdeSchemeParams(grid=grid))
        assert fld.u[0, _mid(grid)] == pytest.approx(
            oracles.heat_value(0.0, 0.0, 1.0), abs=1e-9)

    def test_gheat_anchors(self):
        grid_args = (100, 101)
        convex = _spec()
        grid = Grid.for_problem(convex, *grid_args)
        fld = solve_penalized_pde(convex, PdeSchemeParams(grid=grid))
        assert fld.u[0, _mid(grid)] == pytest.approx(4.0, abs=1e-9)

        concave = _spec(phi="-x*x")
        fld = solve_penalized_pde(concave, PdeSchemeParams(grid=grid))
        assert fld.u[0, _mid(grid)] == pytest.approx(-1.0, abs=1e-9)

    def test_z_driver_closed_form(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0, f="0.5*z")
        grid = Grid.for_problem(spec, 200, 201)
        fld = solve_penalized_pde(spec, PdeSchemeParams(grid=grid))
        assert fld.u[0, _mid(grid)] == pytest.approx(
            oracles.z_drift_value(0.0, 0.0, 1.0), abs=2e-2)

    def test_strong_upper_penalty_pins(self):
        n = 1e4
        spec = _spec(horizon=0.25, x_min=-1.0, x_max=1.0, sigma_low=1.0,
                     sigma_high=1.0, f="1", phi="0", h_prime="0")
        grid = Grid.for_problem(spec, 50, 81)
        fld = solve_penalized_pde(spec, PdeSchemeParams(
            grid=grid, penalty=PenaltyParams(n_upper=n)))
        violation = float(np.max(np.maximum(fld.u, 0.0)))
        assert violation <= 10.0 * (1.0 / n + grid.dt)

    def test_substep_cap_rejection(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 10, 201)
        with pytest.raises(StabilityError):
            solve_penalized_pde(spec, PdeSchemeParams(
                grid=grid, penalty=PenaltyParams(n_upper=1e9)))

    def test_substeps_sized_at_the_times_a_step_reads(self):
        # sigma is 1 at every t_i <= 0.95 a step reads and 2.2 only at T = 1,
        # where no step reads it, so it needs the substeps of sigma = 1
        def nsub(sigma):
            spec = _spec(sigma_low=0.5, sigma_high=1.0, sigma=sigma)
            grid = Grid.for_problem(spec, 20, 121)
            return substeps(RunPlan.of(spec, grid), grid, PenaltyParams())

        assert nsub("1 + 30*pos(t - 0.96)") == nsub("1") == 21

    def test_implicit_kappa_rejection(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 2, 61)  # dt = 0.5, kappa_f = 5
        with pytest.raises(StabilityError, match=r"dt\*kappa_f < 1, got 2.5"):
            solve_penalized_pde(spec, PdeSchemeParams(
                grid=grid, penalty=PenaltyParams(penalty_mode="nodewise-implicit")))

    def test_comparison_interior(self):
        lo = _spec(f="0.3*y", phi="min(x*x, 2)")
        hi = _spec(f="0.3*y", phi="min(x*x, 2) + 0.1")
        grid = Grid.for_problem(lo, 60, 81)
        u_lo = solve_penalized_pde(lo, PdeSchemeParams(grid=grid)).u
        u_hi = solve_penalized_pde(hi, PdeSchemeParams(grid=grid)).u
        assert np.min((u_hi - u_lo)[:, 1:-1]) >= -1e-12

    @pytest.mark.parametrize("sigma, sig", [("1", lambda t: 1.0),
                                            ("1 + 0.5*t", lambda t: 1.0 + 0.5 * t)],
                             ids=["constant", "t-dependent"])
    def test_degenerate_band_matches_classical_stepper(self, sigma, sig):
        # hand-rolled linear explicit stepper, same substep count and ghosts;
        # every substep of step i reads sigma at t_i, as the lattice does
        spec = _spec(sigma_low=1.2, sigma_high=1.2, sigma=sigma)
        grid = Grid.for_problem(spec, 50, 81)
        fld = solve_penalized_pde(spec, PdeSchemeParams(grid=grid))

        rate = 1.2 ** 2 * max(sig(t) for t in grid.t[:-1]) ** 2 / grid.dx ** 2 + 5.0
        nsub = max(1, int(np.ceil(grid.dt * rate - 1e-9)))
        dts = grid.dt / nsub
        u = grid.x ** 2
        for t in grid.t[-2::-1]:
            a = 0.5 * (1.2 * sig(t)) ** 2
            for _ in range(nsub):
                g = np.empty(u.size + 2)
                g[1:-1] = u
                g[0] = 3 * u[0] - 3 * u[1] + u[2]
                g[-1] = 3 * u[-1] - 3 * u[-2] + u[-3]
                u = u + dts * a * (g[2:] - 2 * u + g[:-2]) / grid.dx ** 2
        np.testing.assert_allclose(fld.u[0], u, atol=1e-11)

    def test_both_solvers_read_the_driver_at_reported_times_only(self):
        # the last reported step of the 20-step grid reads t = 0.95, so a
        # driver undefined above t = 0.99 is evaluated by neither solver
        # and one undefined above t = 0.9 by both; sigma is 1 at every
        # reported time and reaches 4 in between (see test_cli)
        def spec(f):
            return _spec(sigma_low=0.5, sigma_high=1.0,
                         sigma="1 + 3*pos(sin(62.83185307179586*t))",
                         phi="0.1*sin(3*x)", f=f)

        grid = Grid.for_problem(spec("0"), 20, 121)
        defined, undefined = spec("0*sqrt(0.99 - t)"), spec("0*sqrt(0.9 - t)")
        for solve in (lambda s: solve_penalized_pde(s, PdeSchemeParams(grid=grid)),
                      lambda s: penalized_sweep(s, grid, PenaltyParams())):
            assert np.isfinite(solve(defined).u).all()
            with pytest.raises(DomainError, match="sqrt"):
                solve(undefined)


class TestDirectSolve:
    def test_inactive_obstacles_match_penalized_bitwise(self):
        spec = _spec()
        grid = Grid.for_problem(spec, 40, 61)
        params = PdeSchemeParams(grid=grid)
        pen = solve_penalized_pde(spec, params)
        direct = solve_double_obstacle_direct(spec, params)
        np.testing.assert_array_equal(pen.u, direct.u)

    def test_coinciding_obstacles_pin_the_value(self):
        spec = _spec(f="1", phi="0.3", h="0.3", h_prime="0.3")
        grid = Grid.for_problem(spec, 40, 61)
        fld = solve_double_obstacle_direct(spec, PdeSchemeParams(grid=grid))
        assert np.all(fld.u[:-1] == 0.3)

    def test_sandwich_exact(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 80, 81)
        fld = solve_double_obstacle_direct(spec, PdeSchemeParams(grid=grid))
        h, hp = obstacle_fields(spec, grid)
        assert np.max(h - fld.u) <= 0.0
        assert np.max(fld.u - hp) <= 0.0

    def test_penalized_ladder_approaches_direct(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 60, 61)
        direct = solve_double_obstacle_direct(spec, PdeSchemeParams(grid=grid))
        gaps = []
        for k in (16.0, 64.0, 256.0):
            pen = solve_penalized_pde(spec, PdeSchemeParams(
                grid=grid,
                penalty=PenaltyParams(n_upper=k, m_lower=k,
                                      penalty_mode="nodewise-implicit")))
            gaps.append(float(np.max(np.abs(pen.u - direct.u))))
        assert gaps[0] > gaps[1] > gaps[2]


def _sine_spec():
    return ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        f="2*sin(x) - 0.3*y", phi="0.1*sin(x)",
        h="-0.4 + 0.1*sin(x + t)", h_prime="0.4 + 0.1*sin(x - t)")


class TestComplementarityResidual:
    def test_injected_exact_heat_solution(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0)
        grid = Grid.for_problem(spec, 80, 81)
        u = grid.x[None, :] ** 2 + (1.0 - grid.t)[:, None]
        _, sup = complementarity_residual(_field_from(u, spec, grid), spec, grid)
        assert sup <= 5.0 * (grid.dt + grid.dx ** 2)

    def test_injected_cosine_refinement_factor(self):
        spec = _spec(sigma_low=1.0, sigma_high=1.0)
        sups = []
        for n_t, n_x in ((100, 81), (400, 161)):
            grid = Grid.for_problem(spec, n_t, n_x)
            u = np.exp(-0.5 * (1.0 - grid.t))[:, None] * np.cos(grid.x)[None, :]
            _, sup = complementarity_residual(_field_from(u, spec, grid), spec, grid)
            sups.append(sup)
        assert sups[0] / sups[1] >= 2.5  # first order in dt dominates: ~4x

    def test_active_upper_obstacle_zero_residual(self):
        spec = _spec(f="1", phi="0", h_prime="0")
        grid = Grid.for_problem(spec, 20, 41)
        u = np.zeros((grid.n_t + 1, grid.n_x))
        r, _ = complementarity_residual(_field_from(u, spec, grid), spec, grid)
        np.testing.assert_array_equal(r[:-1, 1:-1], 0.0)

    def test_below_lower_obstacle_is_negative(self):
        spec = _spec(h="0", phi="max(x, 0)")
        grid = Grid.for_problem(spec, 20, 41)
        u = np.full((grid.n_t + 1, grid.n_x), -0.5)
        r, _ = complementarity_residual(_field_from(u, spec, grid), spec, grid)
        assert np.all(r[:-1, 1:-1] < 0.0)

    def test_direct_solution_residual_refines(self):
        spec = _sine_spec()
        sups = []
        for n_t, n_x in ((100, 81), (400, 161)):
            grid = Grid.for_problem(spec, n_t, n_x)
            fld = solve_double_obstacle_direct(spec, PdeSchemeParams(grid=grid))
            _, sup = complementarity_residual(fld, spec, grid)
            sups.append(sup)
        assert sups[1] <= 0.5 * sups[0] + 1e-12


_masks = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(st.booleans(), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda v: np.array(v, dtype=bool).reshape(shape)))


@settings(max_examples=300, deadline=None)
@given(mask=_masks, kt=st.integers(0, 10), kx=st.integers(0, 10))
@example(mask=np.eye(4, dtype=bool)[:3], kt=0, kx=0)
@example(mask=np.eye(4, dtype=bool)[:3], kt=10, kx=9)
@example(mask=np.zeros((2, 5), dtype=bool), kt=3, kx=1)
def test_dilate_matches_brute_force(mask, kt, kx):
    # a node is set iff some node within kt rows and kx columns is set
    ref = np.array([[mask[max(0, i - kt):i + kt + 1, max(0, j - kx):j + kx + 1].any()
                     for j in range(mask.shape[1])] for i in range(mask.shape[0])])
    before = mask.copy()
    out = _dilate(mask, kt, kx)
    assert out.dtype == bool and np.array_equal(out, ref)
    assert np.array_equal(mask, before) and not np.shares_memory(out, mask)
