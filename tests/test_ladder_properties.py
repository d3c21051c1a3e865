"""Penalty-ladder orderings and the other monotone-scheme properties of
both solvers on generated smooth problems.

The problems have the shape of the benchmark's varcoef problem (every
coefficient varies in t and x).  Its validity argument holds for any phase
and for amplitudes up to 1.01 times the centres it uses, so those are the
ranges drawn here: h <= -0.3 < 0.3 <= h', the terminal sandwich holds, the
driver's Lipschitz constants stay near 0.3 in y and 0.1 in z, and sigma =
1 + 0.2 sin(...) keeps the stencil spans fixed.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdro.catalog import MONO_TOL
from gdro.convergence import monotone_ladder
from gdro.expr import BinOp, Num
from gdro.gcore import (NODEWISE_IMPLICIT, PROJECTION, Grid, PenaltyParams, ProblemSpec,
                        obstacle_fields, uncontaminated_mask)
from gdro.lattice import SweepCell, double_ladder, penalized_sweep, sweep_cells
from gdro.pde import PdeSchemeParams, solve_double_obstacle_direct, solve_penalized_pde

N_LIST = [4.0, 16.0, 64.0]
M_LIST = [4.0, 16.0, 64.0]


@st.composite
def problems(draw):
    def amp(centre):
        return "%.6f" % draw(st.floats(0.0, 1.01 * centre))

    def phase():
        return "%.6f" % draw(st.floats(-np.pi, np.pi))

    return ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        b="%s*sin(x + t + %s)" % (amp(0.1), phase()),
        l="%s*cos(x - 2*t + %s)" % (amp(0.04), phase()),
        sigma="1 + 0.2*sin(0.5*x + t + %s)" % phase(),
        f="%s*sin(x + %s)*cos(t + %s) - %s*y + %s*z*cos(x + t)"
          % (amp(1.0), phase(), phase(), amp(0.3), amp(0.1)),
        phi="%s*sin(x + %s)" % (amp(0.08), phase()),
        h="-0.4 + %s*sin(x + t + %s)" % (amp(0.08), phase()),
        h_prime="0.4 + %s*sin(x - t + %s)" % (amp(0.08), phase()))


def _grid(spec):
    return Grid.for_problem(spec, 20, 33)


def _implicit(n, m):
    return PenaltyParams(n_upper=n, m_lower=m, penalty_mode=NODEWISE_IMPLICIT)


@settings(max_examples=50, deadline=None)
@given(problems())
def test_reflected_ladder_non_increasing_in_n(spec):
    report = monotone_ladder(spec, _grid(spec), N_LIST)
    assert all(r.error is None for r in report.rows)
    assert max(r.mono_gap_n for r in report.rows) <= MONO_TOL


@settings(max_examples=50, deadline=None)
@given(problems())
def test_double_ladder_ordered_in_n_and_m(spec):
    report = double_ladder(spec, _grid(spec), N_LIST, M_LIST)
    rows = [cell for row in report.cells for cell in row]
    assert all(r.error is None for r in rows)
    assert max(r.mono_gap_n for r in rows) <= MONO_TOL
    assert max(r.mono_gap_m for r in rows) <= MONO_TOL


@settings(max_examples=50, deadline=None)
@given(problems())
def test_penalized_below_reflected_at_equal_n(spec):
    def cell(n, m):
        return SweepCell(_implicit(n, m))

    cells = [cell(n, m) for n in N_LIST for m in M_LIST + [PROJECTION]]
    fields = dict(zip(cells, sweep_cells(spec, _grid(spec), cells)))
    for n in N_LIST:
        reflected = fields[cell(n, PROJECTION)].u
        for m in M_LIST:
            assert np.max(fields[cell(n, m)].u - reflected) <= MONO_TOL


@settings(max_examples=50, deadline=None)
@given(problems())
def test_pde_ladder_ordered_in_n_and_m(spec):
    # the lattice's three orderings, for the PDE's nodewise-implicit solves,
    # outside the boundary cone of its non-monotone ghost columns
    grid = _grid(spec)
    mask = uncontaminated_mask(spec, grid)
    u = {(n, m): solve_penalized_pde(spec, PdeSchemeParams(grid, _implicit(n, m))).u[mask]
         for n in N_LIST for m in M_LIST + [PROJECTION]}
    for n, n_next in zip(N_LIST, N_LIST[1:]):
        for m in M_LIST + [PROJECTION]:
            assert np.max(u[n_next, m] - u[n, m]) <= MONO_TOL
    for n in N_LIST:
        for m, m_next in zip(M_LIST, M_LIST[1:]):
            assert np.max(u[n, m] - u[n, m_next]) <= MONO_TOL
        for m in M_LIST:
            assert np.max(u[n, m] - u[n, PROJECTION]) <= MONO_TOL


@settings(max_examples=50, deadline=None)
@given(problems())
def test_pde_direct_solve_between_the_obstacles(spec):
    grid = _grid(spec)
    u = solve_double_obstacle_direct(spec, PdeSchemeParams(grid)).u
    h, hp = obstacle_fields(spec, grid)
    assert np.all(h <= u) and np.all(u <= hp)


@settings(max_examples=50, deadline=None)
@given(problems(), st.tuples(*[st.floats(0.0, 0.05)] * 3))
def test_raised_data_raise_both_solutions(spec, raise_by):
    # comparison principle: phi, h and h' raised by constants (keeping the
    # problem valid) raise the solution of either solver.  The lattice is
    # monotone at every node; the PDE's quadratic ghost columns are not (the
    # curvature they copy weighs the inner neighbour by -2), so its check, as
    # the PDE ladder's above, covers the nodes outside the boundary cone.
    raised = replace(spec, **{name: BinOp("+", getattr(spec, name), Num(c))
                              for name, c in zip(("phi", "h", "h_prime"), raise_by)})
    grid, pen = _grid(spec), _implicit(64.0, 64.0)
    lattice = penalized_sweep(spec, grid, pen).u - penalized_sweep(raised, grid, pen).u
    assert np.max(lattice) <= MONO_TOL
    pde = (solve_penalized_pde(spec, PdeSchemeParams(grid, pen)).u
           - solve_penalized_pde(raised, PdeSchemeParams(grid, pen)).u)
    assert np.max(pde[uncontaminated_mask(spec, grid)]) <= MONO_TOL
