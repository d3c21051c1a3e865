import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gdro import catalog
from gdro.gcore import (EXPLICIT, NODEWISE_IMPLICIT, Coefficients, Grid, PenaltyParams,
                        ProblemSpec)
from gdro.record import replace
from gdro.scheme import ObstacleStep, obstacle_update
from oracles import reference_obstacle_update

VALUES = st.floats(-100.0, 100.0, allow_nan=False)
INTENSITY = st.sampled_from([0.0, 1.0, 64.0]) | st.floats(0.0, 1e4)

# (direct, m_lower): the direct solve, projection, and two-sided penalties
DIRECT, PROJECTION, PENALTIES = (True, 0.0), (False, "projection"), (False, None)
MODES = [DIRECT, PROJECTION, PENALTIES]


def _step_ulps(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


@st.composite
def updates(draw, modes=MODES):
    """One obstacle update: mode, penalties, dt and a slice of nodes.

    Some nodes put base within an ulp of h or h', where the rounded
    implicit solves are most fragile; ``higher`` raises base by a bump or
    by one ulp.
    """
    direct, m_lower = draw(st.sampled_from(modes))
    penalties = PenaltyParams(
        n_upper=draw(INTENSITY),
        m_lower=draw(INTENSITY) if m_lower is None else m_lower,
        penalty_mode=draw(st.sampled_from([EXPLICIT, NODEWISE_IMPLICIT])))
    nodes = draw(st.lists(st.tuples(
        VALUES, VALUES, VALUES, st.floats(0.0, 50.0), st.sampled_from(["free", "h", "hp"]),
        st.integers(-1, 1), st.floats(0.0, 50.0) | st.just(None)), min_size=1, max_size=16))
    base, anchor, h, hp, higher = [], [], [], [], []
    for b, a, lo, width, near, ulps, bump in nodes:
        hi = lo + width
        b = _step_ulps({"free": b, "h": lo, "hp": hi}[near], ulps)
        base.append(b)
        anchor.append(a)
        h.append(lo)
        hp.append(hi)
        higher.append(np.nextafter(b, np.inf) if bump is None else b + bump)
    return dict(direct=direct, penalties=penalties, dt=draw(st.floats(1e-4, 0.1)),
                base=np.array(base), anchor=np.array(anchor), h=np.array(h),
                hp=np.array(hp), higher=np.array(higher))


def _step(dt, penalties, direct):
    return ObstacleStep(dt, penalties.n_upper, penalties.m_value, penalties.penalty_mode,
                        penalties.project_lower, direct)


def _run(u, base):
    return obstacle_update(base, u["anchor"], u["h"], u["hp"],
                           _step(u["dt"], u["penalties"], u["direct"]))


@settings(max_examples=200, deadline=None)
@given(updates())
def test_value_non_decreasing_in_base(u):
    lower, _, _ = _run(u, u["base"])
    higher, _, _ = _run(u, u["higher"])
    assert np.all(higher >= lower)


@settings(max_examples=200, deadline=None)
@given(updates())
def test_increments_non_negative(u):
    _, a_plus, a_minus = _run(u, u["base"])
    assert np.all(a_plus >= 0.0) and np.all(a_minus >= 0.0)


@settings(max_examples=200, deadline=None)
@given(updates([DIRECT]))
def test_direct_sandwich_is_exact(u):
    value, _, _ = _run(u, u["base"])
    assert np.all(u["h"] <= value) and np.all(value <= u["hp"])


@settings(max_examples=200, deadline=None)
@given(updates([PROJECTION]))
def test_projection_pushes_only_on_the_lower_obstacle(u):
    value, a_plus, _ = _run(u, u["base"])
    assert np.all(value[a_plus > 0.0] == u["h"][a_plus > 0.0])


@settings(max_examples=200, deadline=None)
@given(updates([PROJECTION, PENALTIES]), st.sampled_from([0.0, -0.0]))
def test_zero_intensity_is_the_unpenalized_update(u, zero):
    # n = m = 0 is the penalized family's unpenalized member: the nodewise
    # solves and the explicit upper penalty return base, or max(h, base)
    # under lower projection, bit for bit, also for the signed zeros of the
    # last three nodes (the explicit two-sided sum base + 0 - 0 makes -0.0
    # into +0.0)
    pen = u["penalties"]
    assume(pen.project_lower or pen.penalty_mode == NODEWISE_IMPLICIT)
    step = ObstacleStep(u["dt"], zero, zero, pen.penalty_mode, pen.project_lower)
    base, h, hp = (np.append(u[k], tail) for k, tail in (
        ("base", [-0.0, 0.0, -0.0]), ("h", [-1.0, -1.0, -0.0]), ("hp", [1.0, 1.0, 1.0])))
    value, _, _ = obstacle_update(base, np.append(u["anchor"], [0.0] * 3), h, hp, step)
    expected = np.maximum(h, base) if pen.project_lower else base
    assert np.array_equal(value.view(np.uint8), expected.view(np.uint8))


def _bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("project_lower", [False, True], ids=["two-sided", "projection"])
def test_zero_intensity_against_infinite_obstacles_is_silent(project_lower):
    # nodewise-implicit at n = m = 0 against h = -inf and h' = +inf: each
    # solve's 0*inf is a nan that np.where drops, under the kernel's own
    # errstate, so no caller's settings make it warn
    base = np.array([-2.5, -0.0, 0.0, 3.0])
    step = ObstacleStep(0.01, 0.0, 0.0, NODEWISE_IMPLICIT, project_lower)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, _, _ = obstacle_update(base, base, np.full(4, -np.inf), np.full(4, np.inf), step)
    assert np.array_equal(value.view(np.uint8), base.view(np.uint8))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_cells_match_their_own_calls(data):
    # a lattice penalty group: up to 4 cells of one mode and one dt, with
    # their intensities as (B, 1) columns; each row is its cell's own call
    first = data.draw(updates())
    mode = [(first["direct"], "projection" if first["penalties"].project_lower else None)]
    cells = [first] + data.draw(st.lists(updates(mode), max_size=3))
    width = min(len(c["base"]) for c in cells)
    mode_of = first["penalties"].penalty_mode
    penalties = [replace(c["penalties"], penalty_mode=mode_of) for c in cells]

    def stack(key):
        return np.stack([c[key][:width] for c in cells])

    step = ObstacleStep(first["dt"], np.array([[p.n_upper] for p in penalties]),
                        np.array([[p.m_value] for p in penalties]), mode_of,
                        first["penalties"].project_lower, first["direct"])
    batch = obstacle_update(stack("base"), stack("anchor"), stack("h"), stack("hp"), step)
    for b, (c, pen) in enumerate(zip(cells, penalties)):
        own = obstacle_update(c["base"][:width], c["anchor"][:width], c["h"][:width],
                              c["hp"][:width], _step(first["dt"], pen, first["direct"]))
        assert _bits(a[b] for a in batch) == _bits(own), b


#: the values where a rounded kernel's edge semantics show: signed zeros,
#: subnormals, the largest finite numbers, infinities and nan
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan]


def _same_bits(a, b):
    """Bit-for-bit equality, where a nan matches any nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from([1e-3, 0.025, 0.1]),
       st.sampled_from([(True, False), (False, True), (False, False)]),
       st.sampled_from([EXPLICIT, NODEWISE_IMPLICIT]),
       st.sampled_from(["1-D", "columns", "0-d"]))
def test_kernel_matches_reference_on_edge_values(data, dt, direct_projection, mode, layout):
    # every mode on edge values, laid out as the solvers call the kernel: the
    # PDE's 1-D slice with numbers, and a lattice batch of (B, n) values
    # against (1, n) obstacle rows with (B, 1) intensity columns, or 0-d
    # intensities (a group of one); each row must be the reference's 1-D
    # update with Python-float intensities
    direct, project_lower = direct_projection
    rows = 1 if layout == "1-D" else data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, 6))
    edges = st.sampled_from(EDGE_VALUES)

    def draw(shape):
        return np.array(data.draw(st.lists(edges, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))).reshape(shape)

    intensity = st.sampled_from([0.0, -0.0, 1e-3, 64 * dt])
    count = rows if layout == "columns" else 1
    ns, ms = ([data.draw(intensity) for _ in range(count)] for _ in range(2))
    if layout == "1-D":
        shape, obstacle_shape, n, m = (width,), (width,), ns[0], ms[0]
    elif layout == "columns":
        shape, obstacle_shape = (rows, width), (1, width)
        n, m = np.array(ns)[:, None], np.array(ms)[:, None]
    else:
        shape, obstacle_shape, n, m = (rows, width), (1, width), np.array(ns[0]), np.array(ms[0])
    base, anchor = draw(shape), draw(shape)
    h, hp = draw(obstacle_shape), draw(obstacle_shape)
    # 1e308 + 1e308 overflows, which would warn
    with np.errstate(over="ignore"):
        got = [np.atleast_2d(a) for a in obstacle_update(
            base, anchor, h, hp, ObstacleStep(dt, n, m, mode, project_lower, direct))]
        for b, (base_b, anchor_b) in enumerate(zip(np.atleast_2d(base), np.atleast_2d(anchor))):
            want = reference_obstacle_update(
                base_b, anchor_b, h.ravel(), hp.ravel(), dt, ns[b % count], ms[b % count],
                mode == NODEWISE_IMPLICIT, project_lower, direct)
            assert all(_same_bits(g[b], w) for g, w in zip(got, want)), b


def _catalog_specs():
    return [catalog.build_spec(catalog.get_entry(n)) for n in catalog.catalog_names()]


INLINE = ProblemSpec.from_strings(
    horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.5,
    sigma="sqrt(1 + 0.5*sin(x*t)^2)", b="0.1*exp(-t)*x - 0.01*t^3",
    l="0.05*log(2 + cos(x + t))", h="-1 + 0.1*exp(t - x^2)",
    h_prime="1 + sqrt(t + 0.1*x^2)", phi="0.1*sin(x)",
    f="exp(-0.5*t)*y + t^3*z - neg(t - 0.5)*sin(x)", name="inline")


@pytest.mark.parametrize("spec", _catalog_specs() + [INLINE], ids=lambda s: s.name)
def test_table_equals_rows_bitwise(spec):
    n_t, n_x = 200, 161
    grid = Grid.for_problem(spec, n_t, n_x)
    coeffs = Coefficients(spec, grid.x)
    for name in ("b", "l", "sigma", "h", "h_prime") + coeffs.driver_fields:
        table = coeffs(name, grid.t[:, None])
        assert table.shape == (n_t + 1, n_x)
        for i in range(n_t + 1):
            # the sweeps evaluate one row per step at t = i*dt
            row = coeffs(name, i * grid.dt)
            assert np.ascontiguousarray(table[i]).tobytes() == \
                np.ascontiguousarray(row).tobytes(), (name, i)


def test_t_free_fields_are_zero_copy_views():
    spec = catalog.build_spec(catalog.get_entry("gheat-convex"))
    grid = Grid.for_problem(spec, 10, 21)
    coeffs = Coefficients(spec, grid.x)
    table = coeffs("sigma", grid.t[:, None])
    assert table.shape == (11, 21) and table.strides[0] == 0
    assert np.shares_memory(table, coeffs("sigma", 0.5))
