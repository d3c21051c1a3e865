import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdro import gcore
from gdro.expr import DomainError
from gdro.gcore import (Coefficients, Grid, PenaltyParams, ProblemSpec, StabilityError,
                        VolatilityBand, g_eval, obstacle_fields,
                        uncontaminated_mask, validate_problem)

bands = st.tuples(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
).map(lambda p: VolatilityBand(p[0], p[0] + p[1]))

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)


def test_g_eval_examples():
    assert g_eval(2.0, VolatilityBand(1.0, 1.0)) == 1.0
    assert g_eval(0.0, VolatilityBand(0.3, 2.5)) == 0.0
    assert g_eval(-2.0, VolatilityBand(0.5, 1.0)) == -0.25


def test_g_eval_array():
    band = VolatilityBand(1.0, 2.0)
    a = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(g_eval(a, band), [-0.5, 0.0, 2.0])


@given(finite, finite, bands)
def test_g_eval_subadditive(a, b, band):
    lhs = g_eval(a + b, band)
    rhs = g_eval(a, band) + g_eval(b, band)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert lhs <= rhs + 1e-12 * scale


@given(finite, bands)
def test_g_eval_endpoint_attainment(a, band):
    lo, hi = band.sigma_low ** 2, band.sigma_high ** 2
    assert g_eval(a, band) == 0.5 * max(lo * a, hi * a)


@given(finite, st.floats(min_value=0.05, max_value=3.0, allow_nan=False))
def test_g_eval_degenerate(a, s):
    band = VolatilityBand(s, s)
    # abs floor covers the subnormal range, where relative error is undefined
    assert g_eval(a, band) == pytest.approx(0.5 * s * s * a, rel=1e-15, abs=1e-300)


def test_band_invariants():
    with pytest.raises(ValueError):
        VolatilityBand(0.0, 1.0)
    with pytest.raises(ValueError):
        VolatilityBand(2.0, 1.0)


def _spec(**kw):
    defaults = dict(horizon=1.0, x_min=-2.0, x_max=2.0, sigma_low=1.0, sigma_high=2.0)
    defaults.update(kw)
    return ProblemSpec.from_strings(**defaults)


def test_grid_properties():
    spec = _spec()
    grid = Grid.for_problem(spec, 10, 5)
    assert grid.dt == 0.1
    assert grid.dx == 1.0
    np.testing.assert_array_equal(grid.x, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert grid.t[0] == 0.0 and grid.t[-1] == 1.0
    with pytest.raises(ValueError):
        Grid.for_problem(spec, 0, 5)
    with pytest.raises(ValueError):
        Grid.for_problem(spec, 10, 2)


def test_penalty_params_invariants():
    with pytest.raises(ValueError):
        PenaltyParams(n_upper=-1.0)
    with pytest.raises(ValueError):
        PenaltyParams(m_lower=-2.0)
    with pytest.raises(ValueError):
        PenaltyParams(penalty_mode="spectral")
    p = PenaltyParams(m_lower="projection")
    assert p.project_lower and p.m_value == 0.0


@pytest.mark.parametrize("key", ["n_upper", "m_lower", "kappa_f"])
def test_penalty_params_reject_nan(key):
    with pytest.raises(ValueError, match="%s must be >= 0" % key):
        PenaltyParams(**{key: float("nan")})


def test_explicit_cfl_check():
    p = PenaltyParams(n_upper=50.0, m_lower=60.0, kappa_f=5.0)
    with pytest.raises(StabilityError):
        p.check_explicit_cfl(0.01)  # 0.01 * 115 > 1
    p.check_explicit_cfl(0.005)

    q = PenaltyParams(penalty_mode="nodewise-implicit", kappa_f=5.0)
    with pytest.raises(StabilityError):
        q.check_explicit_cfl(0.25)  # dt*kappa_f >= 1 has no root guarantee
    q.check_explicit_cfl(0.1)


def test_validate_pass():
    spec = _spec(h="0", h_prime="1", phi="0.5")
    report = validate_problem(spec, Grid.for_problem(spec, 8, 9))
    assert report.ok and not report.violations


def test_validate_obstacle_crossing():
    spec = _spec(h="1", h_prime="0", phi="0.5")
    report = validate_problem(spec, Grid.for_problem(spec, 8, 9))
    assert not report.ok
    v = report.first_violation
    assert v.kind == "obstacle-crossing" and v.t_index == 0 and v.x_index == 0


def test_validate_terminal_sandwich():
    spec = _spec(h="x", h_prime="x+1", phi="x+2")
    report = validate_problem(spec, Grid.for_problem(spec, 8, 9))
    assert not report.ok
    assert any(v.kind == "terminal-sandwich" for v in report.violations)


def test_validate_negative_diffusion():
    spec = _spec(sigma="x", phi="0", h="-1", h_prime="1")
    report = validate_problem(spec, Grid.for_problem(spec, 8, 9))
    assert any(v.kind == "negative-diffusion" for v in report.violations)


def test_validate_lipschitz_estimates():
    spec = _spec(f="3*y - 2*z", phi="0")
    report = validate_problem(spec, Grid.for_problem(spec, 8, 9))
    assert report.f_lipschitz_y == pytest.approx(3.0, rel=1e-9)
    assert report.f_lipschitz_z == pytest.approx(2.0, rel=1e-9)
    assert not report.warnings

    hot = _spec(f="10*y", phi="0")
    report = validate_problem(hot, Grid.for_problem(hot, 8, 9))
    assert report.warnings  # exceeds default kappa_f


def test_obstacle_fields_and_mask():
    spec = _spec(h="x - 10", h_prime="x + 10", phi="0")
    grid = Grid.for_problem(spec, 4, 9)
    h, hp = obstacle_fields(spec, grid)
    assert h.shape == (5, 9)
    np.testing.assert_allclose(hp - h, 20.0)
    mask = uncontaminated_mask(spec, grid)
    # cone closes toward t = T: more nodes kept on later slices
    assert mask[-1].sum() >= mask[0].sum()
    assert mask.dtype == bool


def test_coefficient_blocks_stop_at_an_undefined_row(monkeypatch):
    # h is undefined above t = 0.5; with four rows per block, the second
    # block holds the first undefined row (t = 0.6) and is cut before it
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-1.0, x_max=1.0, sigma_low=1.0,
                                    sigma_high=1.0, h="sqrt(0.5 - t) + x*t")
    coeffs = Coefficients(spec, np.linspace(-1.0, 1.0, 5))
    monkeypatch.setattr(gcore, "_BLOCK_NODES", 20)
    seen = []
    with pytest.raises(DomainError):
        for rows, times, (h, sigma) in coeffs.blocks(("h", "sigma"), 11, lambda k: 0.1 * k):
            seen.append(rows)
            assert np.array_equal(times, 0.1 * np.arange(rows.start, rows.stop))
            for t, h_row, sigma_row in zip(times, h, sigma):
                assert np.array_equal(h_row.view(np.uint8), coeffs("h", t).view(np.uint8))
                assert np.array_equal(sigma_row, np.ones(5))
    assert seen == [slice(0, 4), slice(4, 5), slice(5, 6)]
