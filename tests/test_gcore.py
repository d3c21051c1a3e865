import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gdro import gcore, lattice, pde
from gdro.expr import DomainError, eval_expr
from gdro.gcore import (Coefficients, Grid, PenaltyParams, ProblemSpec, RunPlan,
                        StabilityError, VolatilityBand, contamination_cone_width, g_eval,
                        obstacle_fields, uncontaminated_mask, validate_problem)

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
    with pytest.raises(ValueError, match="finite sigma_high"):
        VolatilityBand(1e-300, 1e300)  # its square overflows


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
    with pytest.raises(ValueError, match="finite x_max - x_min"):
        _spec(x_min=-1e308, x_max=1e308)
    with pytest.raises(ValueError, match="strictly increasing x nodes"):
        Grid.for_problem(_spec(x_min=1e16, x_max=1.0000000000000004e16), 40, 11)
    with pytest.raises(ValueError, match="dt = t_max/n_t > 0"):
        Grid.for_problem(_spec(horizon=5e-324), 4, 5)


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


def test_cone_closes_at_a_last_time_above_the_horizon():
    # dt*n_t = 1.7265189214928585 rounds above T, where T - t is clamped at
    # 0: the cone at T is 0 and every terminal node is kept
    spec = _spec(horizon=1.7265189214928582)
    grid = Grid.for_problem(spec, 5, 41)
    assert grid.t[-1] > grid.t_max
    cone = contamination_cone_width(spec, grid)
    assert cone[-1] == 0.0 and np.isfinite(cone).all()
    assert uncontaminated_mask(spec, grid)[-1].all()


def _plan_outcomes(spec, grid, penalties, direct):
    """(nsub, ghost cells, cone width bytes) from the run plan of validation,
    then from the references, each an error message where it raises."""
    def outcome(fn, *args):
        try:
            value = fn(*args)
        except StabilityError as err:
            return "StabilityError: %s" % err
        return value.tobytes() if isinstance(value, np.ndarray) else value

    validate_problem(spec, grid)
    plan = RunPlan.of(spec, grid)
    ours = (outcome(pde.substeps, plan, grid, penalties, direct),
            outcome(lattice.ghost_cells, plan, grid),
            outcome(contamination_cone_width, spec, grid))
    theirs = (outcome(oracles.reference_substeps, spec, grid, penalties, direct,
                      pde.MAX_SUBSTEPS, pde.MAX_PDE_WORK),
              outcome(oracles.reference_ghost_cells, spec, grid, lattice.MARGIN_SIGMAS),
              outcome(oracles.reference_cone_width, spec, grid))
    return ours, theirs


def _fresh_tables(spec, grid):
    """sigma, b and l at the column grid.t[:, None], evaluated anew."""
    coeffs = Coefficients(spec, grid.x)
    return [coeffs(name, grid.t[:, None]) for name in ("sigma", "b", "l")]


def _varying(t_dependent, template, *numbers):
    """``template`` filled with ``numbers`` and, for its time, t or a constant."""
    return template.format(*numbers, t="t" if t_dependent else "0.7")


plan_problems = st.builds(
    lambda lo, width, horizon, x_min, span, sig, b, l, moving: ProblemSpec.from_strings(
        horizon=horizon, x_min=x_min, x_max=x_min + span, sigma_low=lo,
        sigma_high=lo + width, phi="0.1*sin(x)",
        sigma=_varying(True, "{0!r} + {1!r}*sin({2!r}*x + {3!r}*{t} + 0.3)", *sig),
        b=_varying(moving[0], "{0!r}*cos(x - {1!r}*{t})*(1 + 0.5*{t})", *b),
        l=_varying(moving[1], "{0!r}*sin({1!r}*x*{t} + 1) - 0.1*exp(-{t})", *l)),
    st.floats(0.1, 1.0), st.floats(0.0, 2.0), st.floats(0.1, 2.0), st.floats(-3.0, 0.0),
    st.floats(0.5, 6.0),
    st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.0, 3.0),
              st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.tuples(st.booleans(), st.booleans()))

plan_penalties = st.builds(
    PenaltyParams, st.sampled_from([0.0, 4.0, 64.0, 1e9]) | st.floats(0.0, 1e3),
    st.just("projection") | st.floats(0.0, 1e3),
    st.sampled_from(["explicit", "nodewise-implicit"]), st.floats(0.0, 10.0))


@settings(deadline=None)
@given(plan_problems, st.integers(1, 30), st.integers(3, 50), plan_penalties, st.booleans())
def test_run_plan_equals_the_formulas_it_replaced(spec, n_t, n_x, penalties, direct):
    # sigma varies in t and x; b and l in x, and in t where drawn so; the
    # PDE's substeps, the lattice's margin and the cone read the plan's
    # maxima and equal, bit for bit, what their own tables gave
    grid = Grid.for_problem(spec, n_t, n_x)
    ours, theirs = _plan_outcomes(spec, grid, penalties, direct)
    assert ours == theirs
    validate_problem(spec, grid)
    assert RunPlan.of(spec, grid) == RunPlan.of(spec, grid, _fresh_tables(spec, grid))


@pytest.mark.parametrize("coefficients, grid, penalties, error", [
    ({"sigma": "1 + 0.1*sin(x + t)"}, (10, 201), PenaltyParams(n_upper=1e9),
     "explicit stability needs 100001211 substeps per step (cap 10000)"),
    ({"x_min": -3.0, "x_max": 3.0, "sigma_low": 1.2, "sigma_high": 1.2}, (100, 4001),
     PenaltyParams(), "2561040100 node-substeps (cap 2147483648)"),
    ({"b": "1e6*(1 + 0*t)"}, (10, 21), PenaltyParams(),
     "widened lattice domain would need 5000060 ghost cells"),
], ids=["MAX_SUBSTEPS", "MAX_PDE_WORK", "ghost-cells"])
def test_run_plan_caps_raise_as_before(coefficients, grid, penalties, error):
    spec = _spec(**coefficients)
    ours, theirs = _plan_outcomes(spec, Grid.for_problem(spec, *grid), penalties, False)
    assert ours == theirs
    assert any(isinstance(o, str) and error in o for o in ours)


def test_run_plan_of_keeps_the_last_spec_and_grid(monkeypatch):
    # one kept entry, looked up by value: an equal (spec, grid) built anew
    # gets validation's plan without evaluating a table, bit for bit the
    # plan of fresh tables; a different (spec, grid) replaces the entry
    def problem(sigma):
        spec = _spec(sigma=sigma, b="0.3*cos(x - t)", l="0.1*sin(x*t)")
        return spec, Grid.for_problem(spec, 10, 21)

    def bits(plan):
        return np.array([plan.sigma_high, plan.sigma2, plan.pde_drift, plan.sigma,
                         *plan.drift]).tobytes()

    spec, grid = problem("1 + 0.2*sin(x + t)")
    validate_problem(spec, grid)
    built = []
    init = Coefficients.__init__
    monkeypatch.setattr(Coefficients, "__init__",
                        lambda coeffs, *args: built.append(args) or init(coeffs, *args))
    again = problem("1 + 0.2*sin(x + t)")
    assert again[0] is not spec and again == (spec, grid)
    kept = RunPlan.of(*again)
    assert built == []
    assert bits(kept) == bits(RunPlan.of(spec, grid, _fresh_tables(spec, grid)))

    other = problem("1 + 0.3*sin(x + t)")
    built.clear()
    assert RunPlan.of(*other).sigma != kept.sigma
    assert RunPlan.of(*other) is RunPlan.of(*other)
    assert len(built) == 1
    assert bits(RunPlan.of(spec, grid)) == bits(kept)
    assert len(built) == 2


def test_coefficient_blocks_stop_at_an_undefined_row(monkeypatch):
    # the steps run backward from t = 0.9 and h is undefined below t = 0.35;
    # with four steps per block, the second block holds the first undefined
    # step (t = 0.3) and is cut before it
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-1.0, x_max=1.0, sigma_low=1.0,
                                    sigma_high=1.0, h="sqrt(t - 0.35) + x*t")
    grid = Grid.for_problem(spec, 10, 5)
    coeffs = Coefficients(spec, grid.x)
    monkeypatch.setattr(gcore, "_BLOCK_NODES", 20)
    seen = []
    with pytest.raises(DomainError):
        for times, (h, sigma) in coeffs.blocks(("h", "sigma"), grid):
            seen.append(times)
            for t, h_row, sigma_row in zip(times, h, sigma):
                assert np.array_equal(h_row.view(np.uint8), coeffs("h", t).view(np.uint8))
                assert np.array_equal(sigma_row, np.ones(5))
    assert [len(times) for times in seen] == [4, 1, 1]
    assert np.array_equal(np.concatenate(seen), grid.t[9:3:-1])


def _bits(a, shape):
    return np.ascontiguousarray(np.broadcast_to(a, shape)).view(np.uint8)


DRIVERS = [
    "cos(t + 0.3)*y - 0.2*z",                     # a subtree of t alone
    "sin(x)*z - y + x^2",                         # subtrees of x alone
    "sin(x + 3)*cos(t + 0.3) - 0.3*y + 0.1*z*cos(x + t)",
    "exp(-t)*y + t^3*z - neg(t - 0.5)*x",         # exp, ** and neg of t alone
    "min(y, sin(x)) + max(z, cos(t + 0.3)) + pos(y - x*t) + neg(z + exp(t))"
    " + abs(y*z - x)",
    "0.5", "y*z",
]


@pytest.mark.parametrize("f", DRIVERS)
def test_tabled_driver_matches_the_whole_tree_bitwise(f, monkeypatch):
    # Coefficients binds a scalar t as an array shaped like x; so does the reference
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-2.0, x_max=2.0, sigma_low=0.5,
                                    sigma_high=1.0, f=f)
    x = np.linspace(-2.0, 2.0, 9)
    rng = np.random.default_rng(3)
    y, z = rng.normal(size=(2, 2, x.size))
    coeffs = Coefficients(spec, x)
    monkeypatch.setattr(gcore, "_BLOCK_NODES", 40)
    rows = 0
    for times, tables in coeffs.blocks(coeffs.driver_fields, Grid.for_problem(spec, 401, x.size)):
        for r, t in enumerate(times.tolist()):
            whole = eval_expr(spec.f, {"t": np.full(x.shape, t), "x": x, "y": y, "z": z})
            tabled = coeffs.f([k[r] for k in tables], y, z)
            assert np.array_equal(_bits(whole, y.shape), _bits(tabled, y.shape))
            rows += 1
    assert rows == 401


@pytest.mark.parametrize("f", DRIVERS)
def test_driver_sample_matches_the_whole_tree_bitwise(f):
    # a column of times binds t as an array, as the whole driver did
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-2.0, x_max=2.0, sigma_low=0.5,
                                    sigma_high=1.0, f=f)
    x = np.linspace(-2.0, 2.0, 9)
    y = np.broadcast_to(np.array([-2.0, 0.0, 2.0])[:, None], (5, x.size, 3, 3))
    whole = eval_expr(spec.f, {"t": np.linspace(0.0, 1.0, 5)[:, None, None, None],
                               "x": x[:, None, None], "y": y + 0.5, "z": y.swapaxes(2, 3)})
    assert np.array_equal(_bits(gcore.driver_sample(spec, 1.0, x, dy=0.5), y.shape),
                          _bits(whole, y.shape))


def test_driver_domain_error_names_the_node_of_f():
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-1.0, x_max=1.0, sigma_low=1.0,
                                    sigma_high=1.0, f="log(y + 2 + sin(x))")
    coeffs = Coefficients(spec, np.linspace(-1.0, 1.0, 5))
    with pytest.raises(DomainError) as caught:
        coeffs.f([coeffs(name, 0.0) for name in coeffs.driver_fields], -3.0, 0.0)
    assert str(caught.value) == "log of non-positive value in 'log(((y + 2.0) + sin(x)))'"


#: a driver whose subtree free of y and z is undefined for |t - 0.6| < 0.04,
#: which the validation's sample times 0, 0.25, ..., 1 miss
MIDWAY_UNDEFINED = "0.1*sqrt(abs(t - 0.6) - 0.04)*sin(x) - 0.3*y"


@pytest.mark.parametrize("solver", ["lattice", "pde"])
def test_undefined_driver_subtree_raises_at_its_row(solver, monkeypatch):
    spec = ProblemSpec.from_strings(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5,
                                    sigma_high=1.0, phi="0.1*sin(x)", f=MIDWAY_UNDEFINED)
    grid = Grid.for_problem(spec, 20, 33)
    penalties = PenaltyParams()
    # both solvers read the driver at t_i = dt*(n_t-1-k) for step k, and the
    # PDE makes nsub obstacle updates per step
    times = [grid.dt * (grid.n_t - 1 - k) for k in range(grid.n_t)]
    first_undefined = next(k for k, t in enumerate(times) if abs(t - 0.6) - 0.04 < 0)
    if solver == "pde":
        first_undefined *= pde.substeps(RunPlan.of(spec, grid), grid, penalties)
    module = lattice if solver == "lattice" else pde
    steps = []
    update = module.obstacle_update
    monkeypatch.setattr(module, "obstacle_update",
                        lambda *args, **kw: steps.append(1) or update(*args, **kw))
    with pytest.raises(DomainError, match=r"sqrt\(\(abs\(\(t - 0\.6\)\) - 0\.04\)\)"):
        if solver == "lattice":
            lattice.penalized_sweep(spec, grid, penalties)
        else:
            pde.solve_penalized_pde(spec, pde.PdeSchemeParams(grid=grid, penalty=penalties))
    # every row before the undefined one was stepped, and none after it
    assert 0 < first_undefined == len(steps)
