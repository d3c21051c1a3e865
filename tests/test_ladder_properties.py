"""Penalty-ladder orderings on generated smooth problems.

The problems have the shape of the benchmark's varcoef problem (every
coefficient varies in t and x).  Its validity argument holds for any phase
and for amplitudes up to 1.01 times the centres it uses, so those are the
ranges drawn here: h <= -0.3 < 0.3 <= h', the terminal sandwich holds, the
driver's Lipschitz constants stay near 0.3 in y and 0.1 in z, and sigma =
1 + 0.2 sin(...) keeps the stencil spans fixed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdro.catalog import MONO_TOL
from gdro.convergence import monotone_ladder
from gdro.gcore import NODEWISE_IMPLICIT, PROJECTION, Grid, PenaltyParams, ProblemSpec
from gdro.lattice import SweepCell, double_ladder, sweep_cells

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
        return SweepCell(PenaltyParams(n_upper=n, m_lower=m, penalty_mode=NODEWISE_IMPLICIT))

    cells = [cell(n, m) for n in N_LIST for m in M_LIST + [PROJECTION]]
    fields = dict(zip(cells, sweep_cells(spec, _grid(spec), cells)))
    for n in N_LIST:
        reflected = fields[cell(n, PROJECTION)].u
        for m in M_LIST:
            assert np.max(fields[cell(n, m)].u - reflected) <= MONO_TOL
