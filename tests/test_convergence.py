import pytest

from gdro.convergence import (asc_residuals, asc_residuals_global,
                              cross_validate, monotone_ladder, stability_probe)
from gdro.gcore import Grid, PenaltyParams, ProblemSpec
from gdro.lattice import penalized_sweep, reflected_sweep


def _sine_spec(**kw):
    defaults = dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5,
                    sigma_high=1.0, f="2*sin(x) - 0.3*y", phi="0.1*sin(x)",
                    h="-0.4 + 0.1*sin(x + t)", h_prime="0.4 + 0.1*sin(x - t)")
    defaults.update(kw)
    return ProblemSpec.from_strings(**defaults)


class TestMonotoneLadder:
    def test_inactive_upper_obstacle(self):
        spec = ProblemSpec.from_strings(
            horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
            phi="x*x")
        grid = Grid.for_problem(spec, 20, 41)
        report = monotone_ladder(spec, grid, [1.0, 4.0, 16.0, 64.0])
        assert all(r.sup_upper_violation == 0.0 for r in report.rows)
        assert report.rate_slope is None  # not applicable

    def test_single_rung(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 20, 41)
        report = monotone_ladder(spec, grid, [8.0])
        assert len(report.rows) == 1
        assert report.rate_slope is None

    def test_sine_ladder_monotone_and_rate(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 100, 81)
        report = monotone_ladder(spec, grid, [4.0, 16.0, 64.0, 256.0])
        assert all(r.error is None for r in report.rows)
        assert max(r.mono_violation for r in report.rows) <= 1e-9
        sups = [r.sup_upper_violation for r in report.rows]
        assert all(a > b for a, b in zip(sups[:-1], sups[1:]))
        assert report.rate_slope <= -0.8
        # derivative field converges toward the finest rung
        assert report.rows[0].z_gap >= report.rows[-1].z_gap
        assert report.rows[-1].z_gap == 0.0

    def test_unsorted_rejected(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 10, 31)
        with pytest.raises(ValueError):
            monotone_ladder(spec, grid, [4.0, 2.0])

    def test_repeated_rung_rejected(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 10, 31)
        with pytest.raises(ValueError, match="n_list must be strictly ascending"):
            monotone_ladder(spec, grid, [4.0, 4.0])


class TestAscResiduals:
    def test_reflected_is_exactly_zero(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 60, 61)
        fld = reflected_sweep(spec, grid, 32.0, penalty_mode="nodewise-implicit")
        plus, minus = asc_residuals(fld, spec, grid)
        assert plus == 0.0
        assert minus >= -1e-12

    def test_zero_penalty_no_increments(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 30, 41)
        fld = penalized_sweep(spec, grid, PenaltyParams(
            n_upper=0.0, m_lower=0.0, penalty_mode="nodewise-implicit"))
        assert asc_residuals(fld, spec, grid) == (0.0, 0.0)

    def test_m_ladder_decay(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 100, 81)
        values = []
        for m in (10.0, 100.0, 1000.0):
            fld = penalized_sweep(spec, grid, PenaltyParams(
                n_upper=64.0, m_lower=m, penalty_mode="nodewise-implicit"))
            plus, _ = asc_residuals(fld, spec, grid)
            values.append(plus)
        assert values[0] > 0.0
        assert values[1] <= 0.5 * values[0]
        assert values[2] <= 0.5 * values[1]

    def test_n_ladder_minus_decay(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 100, 81)
        values = []
        for n in (10.0, 100.0, 1000.0):
            fld = penalized_sweep(spec, grid, PenaltyParams(
                n_upper=n, m_lower=64.0, penalty_mode="nodewise-implicit"))
            _, minus = asc_residuals(fld, spec, grid)
            values.append(minus)
        assert values[0] > 0.0
        assert values[1] <= 0.5 * values[0]
        assert values[2] <= 0.5 * values[1]

    def test_global_variant_nonnegative(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 30, 41)
        fld = penalized_sweep(spec, grid, PenaltyParams(
            n_upper=16.0, m_lower=16.0, penalty_mode="nodewise-implicit"))
        gp, gm = asc_residuals_global(fld, spec, grid)
        assert gp >= 0.0 and gm >= 0.0


class TestStabilityProbe:
    def test_identical_specs(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 30, 41)
        pen = PenaltyParams(n_upper=16.0, m_lower=16.0,
                            penalty_mode="nodewise-implicit")
        out, inp = stability_probe(spec, spec, grid, pen)
        assert out == 0.0 and inp == 0.0

    def test_additive_terminal_shift(self):
        base = ProblemSpec.from_strings(
            horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
            f="cos(x)", phi="x*x")
        bumped = ProblemSpec.from_strings(
            horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
            f="cos(x)", phi="x*x + 0.25")
        grid = Grid.for_problem(base, 40, 61)
        out, inp = stability_probe(base, bumped, grid, PenaltyParams())
        assert inp == pytest.approx(0.25, abs=1e-14)
        assert out == pytest.approx(0.25, abs=1e-10)

    def test_obstacle_epsilon_ladder(self):
        spec = _sine_spec()
        grid = Grid.for_problem(spec, 60, 61)
        pen = PenaltyParams(n_upper=64.0, m_lower=64.0,
                            penalty_mode="nodewise-implicit")
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            shifted = _sine_spec(h="-0.4 + 0.1*sin(x + t) + %r" % eps)
            out, inp = stability_probe(spec, shifted, grid, pen)
            assert inp == pytest.approx(eps, rel=1e-12)
            gaps.append(out)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.1 * gaps[0]


class TestCrossValidate:
    def test_constant_data(self):
        spec = ProblemSpec.from_strings(
            horizon=1.0, x_min=-2.0, x_max=2.0, sigma_low=1.0, sigma_high=2.0,
            phi="3")
        grid = Grid.for_problem(spec, 20, 41)
        assert cross_validate(spec, grid, PenaltyParams()) == 0.0

    def test_heat_within_budget(self):
        spec = ProblemSpec.from_strings(
            horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=1.0,
            phi="x*x")
        grid = Grid.for_problem(spec, 100, 101)
        gap = cross_validate(spec, grid, PenaltyParams())
        assert gap <= 5.0 * (grid.dt + grid.dx ** 2)
