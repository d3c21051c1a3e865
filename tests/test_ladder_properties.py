"""Penalty-ladder orderings and the other monotone-scheme properties of
both solvers on generated smooth problems.

The problems have the shape of the benchmark's varcoef problem (every
coefficient varies in t and x).  Its validity argument holds for any phase
and for amplitudes up to 1.01 times the centres it uses, so those are the
ranges drawn here: h <= -0.3 < 0.3 <= h', the terminal sandwich holds, the
driver's Lipschitz constants stay near 0.3 in y and 0.1 in z, and sigma =
1 + 0.2 sin(...) keeps the stencil spans fixed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdro.lattice
from gdro.catalog import MONO_TOL
from gdro.convergence import monotone_ladder, probe_output_gap
from gdro.expr import BinOp, Num
from gdro.gcore import (EXPLICIT, NODEWISE_IMPLICIT, PROJECTION, Grid, PenaltyParams,
                        ProblemSpec, obstacle_fields, uncontaminated_mask)
from gdro.lattice import (Batch, Ladder, SweepCell, double_ladder, ladder_column,
                          penalized_sweep, sweep_cells)
from gdro.pde import PdeSchemeParams, solve_double_obstacle_direct, solve_penalized_pde
from gdro.record import replace
from gdro.scheme import (LadderRow, NonFiniteField, asc_residuals, obstacle_violations,
                         require_finite)

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


# The reducing sweep against full fields.  A Batch keeps only its main
# cell's field and reduces every other cell to the inputs of its ladder row
# (or its probe gap) block by block; the reference below computes the same
# rows from the full fields of the same cells, which sweep_cells keeps when
# given the cells alone.  Every value must agree bitwise.

def ordering_gap(hi, lo):
    """sup (hi - lo)^+ between two value grids, 0.0 if either is missing
    (a neighbour that holds an error)."""
    if hi is None or lo is None:
        return 0.0
    return float(np.max(np.maximum(hi - lo, 0.0)))


def ladder_row(field, spec, grid, n, m, **gaps):
    """The ladder row of one full field; ``gaps`` sets the ordering gaps."""
    row = LadderRow(n=n, m=m, **gaps)
    row.sup_lower_violation, row.sup_upper_violation = obstacle_violations(field, spec, grid)
    row.asc_plus, row.asc_minus = asc_residuals(field, spec, grid)
    return row


def reference_columns(spec, grid, ladder, fields):
    """Per column of ``ladder``, its LadderRows from ``fields``, each cell's
    full field or error; a non-finite field raises NonFiniteField."""
    mask = uncontaminated_mask(spec, grid)
    columns, left = [], [None] * len(ladder.n_list)
    for m, cells in zip(ladder.m_list, ladder.columns):
        m = np.inf if m == PROJECTION else m
        results = [fields[c] if isinstance(c, SweepCell) else c for c in cells]
        us = [None if isinstance(r, Exception) else r.u for r in results]
        rows = []
        for k, (n, r) in enumerate(zip(ladder.n_list, results)):
            if isinstance(r, Exception):
                rows.append(LadderRow(n=n, m=m, error=str(r)))
                continue
            require_finite(r, n=n, m=m)
            rows.append(ladder_row(
                r, spec, grid, n, m, mono_gap_n=ordering_gap(r.u, us[k - 1] if k else None),
                mono_gap_m=np.nan if ladder.reflected else ordering_gap(left[k], r.u)))
        finest = next((r for r in reversed(results) if not isinstance(r, Exception)), None)
        if ladder.reflected and finest is not None:
            for row, r in zip(rows, results):
                if not isinstance(r, Exception):
                    row.z_gap = float(np.max(np.abs(np.where(mask, r.z - finest.z, 0.0))))
        columns.append(rows)
        left = us
    return columns


def _bits(row):
    return row.error, np.array([getattr(row, f) for f in LadderRow._fields
                                if f != "error"], dtype=float).tobytes()


def _assert_rows_equal(got, want):
    assert [_bits(r) for r in got] == [_bits(r) for r in want]


def _full_fields(spec, grid, batch):
    return dict(zip(batch, sweep_cells(spec, grid, list(batch))))


#: the implicit ladders order valid rungs; the explicit ones hold an invalid
#: rung (n = -1) and column (m = -1), and cells failing the explicit
#: step-size check dt*(n + m + 5) <= 1 at dt = 0.05 (n = 16 and 64, and
#: m = 20)
_ERROR_N = (-1.0, 1.0, 4.0, 16.0, 64.0)
_LADDERS = (Ladder(N_LIST, (PROJECTION,), NODEWISE_IMPLICIT, 5.0),
            Ladder(N_LIST, M_LIST, NODEWISE_IMPLICIT, 5.0),
            Ladder(_ERROR_N, (PROJECTION,), EXPLICIT, 5.0),
            Ladder(_ERROR_N, (-1.0, 2.0, 10.0, 20.0), EXPLICIT, 5.0))
_MAIN = SweepCell(_implicit(16.0, 16.0))
_PROBES = tuple((_MAIN, SweepCell(_MAIN.penalties, eps)) for eps in (0.1, 0.01, 0.0))


@settings(max_examples=25, deadline=None)
@given(problems())
def test_reducing_sweep_equals_its_full_field_reference(spec):
    grid = _grid(spec)
    batch = Batch.of(_LADDERS, [_MAIN], _PROBES)
    swept = dict(zip(batch, sweep_cells(spec, grid, batch)))
    fields = _full_fields(spec, grid, batch)
    for ladder in _LADDERS:
        for j, want in enumerate(reference_columns(spec, grid, ladder, fields)):
            _assert_rows_equal(ladder_column(ladder, j, swept), want)
    for base, probe in _PROBES:
        assert swept[base].gaps["probe", probe] == probe_output_gap(fields[base], fields[probe])
    assert [c for c in batch if getattr(swept[c], "field", None) is not None] == [_MAIN]
    for name in ("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"):
        assert getattr(swept[_MAIN].field, name).tobytes() == \
            getattr(fields[_MAIN], name).tobytes(), name

    # the public ladders sweep a batch of their own
    reflected, double = _LADDERS[2:]
    (want,) = reference_columns(spec, grid, reflected, fields)
    _assert_rows_equal(monotone_ladder(spec, grid, reflected.n_list, EXPLICIT).rows, want)
    cells = double_ladder(spec, grid, double.n_list, double.m_list, EXPLICIT).cells
    for got, want in zip(zip(*cells), reference_columns(spec, grid, double, fields)):
        _assert_rows_equal(got, want)


def test_reducing_sweep_after_a_cell_domain_error(monkeypatch):
    # the driver is undefined above y = 1.05, which the n = 10 rung reaches
    # (see test_lattice): the batch raises, each rung is swept alone, and
    # the two that survive are swept again as one batch, whose gap between
    # them is the one their full fields give
    spec = ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        f="2 + 0*sqrt(1.05 - y)", phi="0.5", h="-10", h_prime="1")
    grid = _grid(spec)
    ladder = Ladder((10.0, 1000.0, 2000.0), (PROJECTION,), NODEWISE_IMPLICIT, 5.0)
    batch = Batch.of([ladder])
    batches = []
    run_sweep = gdro.lattice._run_sweep
    monkeypatch.setattr(gdro.lattice, "_run_sweep",
                        lambda *args: batches.append(len(args[2])) or run_sweep(*args))
    rows = ladder_column(ladder, 0, dict(zip(batch, sweep_cells(spec, grid, batch))))
    assert batches == [3, 1, 1, 1, 2]
    monkeypatch.undo()
    (want,) = reference_columns(spec, grid, ladder, _full_fields(spec, grid, batch))
    _assert_rows_equal(rows, want)
    assert "sqrt" in rows[0].error and rows[2].mono_gap_n == want[2].mono_gap_n


def _first_non_finite(field):
    try:
        require_finite(field)
    except NonFiniteField as err:
        return err.t_index, err.x_index
    return None


@np.errstate(invalid="ignore", over="ignore")  # the 0*inf of h, as in cli.run
def test_reducing_sweep_finds_the_first_non_finite_node():
    # the reflected rungs project onto an h that is nan in the ghost cells,
    # and the eps = inf probe shifts h to inf; the penalized cells stay
    # finite (see test_cli)
    spec = ProblemSpec.from_strings(
        horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
        f="2*sin(x) - 0.3*y", phi="0.1*sin(x)", h="-1 + 0*exp(800*(-x - 3.05))",
        h_prime="0.4 + 0.1*sin(x - t)")
    grid = _grid(spec)
    main = SweepCell(_implicit(64.0, 64.0))
    probes = [(main, SweepCell(main.penalties, eps)) for eps in (0.1, np.inf)]
    ladders = _LADDERS[:2]
    batch = Batch.of(ladders, [main], probes)
    swept = dict(zip(batch, sweep_cells(spec, grid, batch)))
    fields = _full_fields(spec, grid, batch)
    bad = {c: _first_non_finite(f) for c, f in fields.items()}
    assert bad[probes[1][1]] is not None and bad[main] is None
    assert {c: swept[c].bad for c in batch} == bad
    with pytest.raises(NonFiniteField) as got:
        ladder_column(ladders[0], 0, swept)
    with pytest.raises(NonFiniteField) as want:
        reference_columns(spec, grid, ladders[0], fields)
    assert str(got.value) == str(want.value) and got.value.label == {"n": 4.0, "m": np.inf}
    for j, want in enumerate(reference_columns(spec, grid, ladders[1], fields)):
        _assert_rows_equal(ladder_column(ladders[1], j, swept), want)
