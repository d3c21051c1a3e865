"""Backward induction on a Markov-chain approximation of the controlled SDE.

Each node takes an adversarial maximum of one-step expectations over the two
volatility-band endpoints.  The one-step kernel per control puts mass on the
grid nodes x_{j-k}, x_j, x_{j+k} (plus a one-cell upwind shift for drift)
with weights matching the control's displacement mean exactly and its
variance exactly, so no interpolation bias enters and quadratic slices
propagate without error.  All weights are non-negative, which keeps the
scheme monotone; beyond the domain edges probes clamp to the edge value
(constant extrapolation).

Sweeps run on an internally widened x-grid (both band endpoints' drift
reach plus a few adversarial standard deviations) so edge clamping cannot
pollute the reported window; the returned fields cover the requested grid.

One sweep advances a batch of cells through one backward time loop.  A cell
is a set of penalties plus a constant shift of the lower obstacle h; the
kernel, the coefficients and the ghost margin depend only on the problem,
the grid and t, so the cells share them and differ only in u, the penalties
and h.  A batched field equals the cell's single sweep bitwise.

The coefficients sigma, b, l, h and h', and the driver's subtrees free of y
and z, come from tables evaluated once per block of time rows
(``Coefficients.blocks``), and each endpoint's kernel (drift weight,
diffusion weight and gather indices) is built once per block from them.  A
step then only gathers and combines, reading row r of each kernel table,
and evaluates the rest of the driver on a row of those tables.  It writes
each output of the whole batch with one assignment into per-block buffers,
which are copied into each cell's own arrays once per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION,
                    Coefficients, Grid, PenaltyParams, ProblemSpec, StabilityError,
                    broadcast, first_true, obstacle_fields, t_free_rows)
from .scheme import (LadderRow, ObstacleStep, SolutionField, central_diff, ceil_eps,
                     ladder_row, obstacle_update, ordering_gap, require_finite,
                     strictly_ascending, z_field)

#: widened-domain margin, in adversarial diffusive standard deviations
MARGIN_SIGMAS = 6.0
#: largest allowed one-cell upwind drift weight |mu|/dx per step
MAX_DRIFT_WEIGHT = 0.5
#: the coefficient fields the one-step kernel depends on
_KERNEL_FIELDS = ("sigma", "b", "l")


class _Kernel(NamedTuple):
    """One band endpoint's one-step kernel at a set of nodes, one row per
    time: the drift weight s = |mu|/dx, the diffusion weight p, and the
    nodes the mass moves to (up and dn at the stencil span, drift_to one
    cell in the direction of mu), clamped to the lattice."""
    s: np.ndarray
    p: np.ndarray
    up: np.ndarray
    dn: np.ndarray
    drift_to: np.ndarray


def _kernels(sv, bv, lv, idx, band, dt, dx, n_nodes, t, x):
    """The kernels of the low and high band endpoint from coefficient tables
    whose rows are at the times ``t`` and whose columns are at the nodes
    ``idx``, with coordinates ``x``.

    Returns (kernels, error).  The kernels cover the rows before the first
    row where a drift weight exceeds MAX_DRIFT_WEIGHT, and ``error`` is the
    StabilityError naming that row's first such node (None if no row has
    one).  Rows from that one on are not built.  Tables that are broadcast
    views of one row (fields free of t, see Coefficients) give a kernel
    built from that row and broadcast back to every row.
    """
    n_rows = len(t)
    sv, bv, lv = t_free_rows(sv, bv, lv)
    endpoints = (band.sigma_low, band.sigma_high)
    mus = [(bv + lv * sig ** 2) * dt for sig in endpoints]
    weights = [np.abs(mu) / dx for mu in mus]
    worst = np.fmax(*weights)
    node = first_true(worst > MAX_DRIFT_WEIGHT)
    error = None
    if node is not None:
        r, j = node
        error = StabilityError(
            "drift displacement per step exceeds %.2g cells at t=%.9g x=%.9g: "
            "|mu|/dx = %.6g > %.2g; refine the time grid"
            % (MAX_DRIFT_WEIGHT, t[r], x[j], worst[r, j], MAX_DRIFT_WEIGHT))
        n_rows = r
        sv, mus, weights = sv[:r], [mu[:r] for mu in mus], [s[:r] for s in weights]
    kernels = []
    for sig, mu, s in zip(endpoints, mus, weights):
        variance = (sig * sv) ** 2 * dt
        span = np.sqrt(variance / (1.0 - s)) / dx
        k = np.maximum(1, ceil_eps(span).astype(np.int64))
        kernels.append(_Kernel._make(broadcast(a, (n_rows, idx.size)) for a in (
            s, variance / (2.0 * (k * dx) ** 2),
            np.minimum(idx + k, n_nodes - 1), np.maximum(idx - k, 0),
            np.minimum(np.maximum(idx + np.where(mu >= 0, 1, -1), 0), n_nodes - 1))))
    return kernels, error


def _endpoint_expectation(u_next, here, kernel, r):
    """One-step expectation of u_next under row r of one endpoint's kernel,
    where ``here`` is u_next at the kernel's nodes (one row per cell of a
    batch, or one 1-D row).  The weights are read as (1, nodes) rows, so a
    one-cell batch meets only operands of its own shape; the result has at
    least two dimensions."""
    up = u_next.take(kernel.up[r], axis=-1)
    dn = u_next.take(kernel.dn[r], axis=-1)
    shifted = u_next.take(kernel.drift_to[r], axis=-1)
    p, s = kernel.p[r:r + 1], kernel.s[r:r + 1]
    # delta form: constant slices propagate with zero rounding error
    return here + p * ((up - here) + (dn - here)) + s * (shifted - here)


def conditional_g_expectation(next_slice, t, x, spec: ProblemSpec, grid: Grid):
    """Adversarial one-step expectation at (t, x) of a spatial slice.

    ``x`` may be a scalar grid point or an array of grid points (off-grid
    inputs snap to the nearest node).  Returns (value, sigma_choice, defects)
    where defects[i] = E_i - max_j E_j <= 0 per band endpoint.
    """
    u_next = np.asarray(next_slice, dtype=float)
    if u_next.shape != (grid.n_x,):
        raise ValueError("next_slice must have shape (n_x,)")
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.rint((xv - grid.x_min) / grid.dx).astype(np.int64), 0, grid.n_x - 1)
    coeffs = Coefficients(spec, grid.x)
    kernels, error = _kernels(*(coeffs(name, t)[None, idx] for name in _KERNEL_FIELDS), idx,
                              spec.band, grid.dt, grid.dx, grid.n_x, [t], grid.x[idx])
    if error is not None:
        raise error
    here = u_next.take(idx)
    e_low, e_high = (_endpoint_expectation(u_next, here, k, 0)[0] for k in kernels)
    value = np.maximum(e_low, e_high)
    choice = (e_high > e_low).astype(np.int8)  # ties resolve to the low endpoint
    defects = np.stack([e_low - value, e_high - value])
    if scalar:
        return float(value[0]), int(choice[0]), (float(defects[0, 0]), float(defects[1, 0]))
    return value, choice, defects


def _extension_cells(spec, grid):
    """Ghost-margin width: either endpoint's drift reach plus MARGIN_SIGMAS deviations."""
    coeffs = Coefficients(spec, grid.x)
    sv, bv, lv = (coeffs(name, grid.t[:, None]) for name in ("sigma", "b", "l"))
    smax = float(np.max(np.abs(sv)))
    bmax = max(float(np.max(np.abs(bv + lv * sig ** 2)))
               for sig in (spec.band.sigma_low, spec.band.sigma_high))
    reach = bmax * grid.t_max + MARGIN_SIGMAS * spec.band.sigma_high * smax * np.sqrt(grid.t_max)
    cells = ceil_eps(reach / grid.dx)
    if not cells <= 200_000:
        raise StabilityError("widened lattice domain would need %.0f ghost cells" % cells)
    return int(cells)


@dataclass(frozen=True)
class SweepCell:
    """One member of a batched sweep: its penalties, and a constant added to
    the lower obstacle h (an ε-probe's perturbation)."""
    penalties: PenaltyParams
    h_shift: float = 0.0


def _run_sweep(spec, grid, cells):
    """Sweep the tuple ``cells`` through one backward time loop.

    Returns, per cell, its SolutionField or a StabilityError: that of its
    own step-size check, else that of the ghost margin or the drift weight,
    which depend on (spec, grid) alone and so fail every cell alike.  Any
    other error raises for the whole batch.
    """
    results = {}
    for cell in cells:
        try:
            cell.penalties.check_explicit_cfl(grid.dt)
        except StabilityError as err:
            results[cell] = err
    live = [c for c in cells if c not in results]
    if live:
        try:
            results.update(_sweep_live(spec, grid, live))
        except StabilityError as err:
            results.update(dict.fromkeys(live, err))
    return [results[c] for c in cells]


def _sweep_live(spec, grid, cells):
    """(cell, SolutionField) pairs of ``cells``, which pass their step-size
    checks, swept through one backward time loop."""
    dt, dx = grid.dt, grid.dx

    # cells sharing a penalty mode and lower projection take adjacent rows,
    # so each such group is one obstacle_update on a slice of the batch
    def mode(cell):
        return cell.penalties.penalty_mode, cell.penalties.project_lower
    live = sorted(cells, key=mode)

    # one value per member, as a (B, 1) column, or as a 0-d array for a
    # group of one, which then meets only (1, nodes) rows: numpy's
    # same-shape path, not its broadcasting one
    def column(values):
        a = np.array(values, dtype=float)
        return a.reshape(()) if a.size == 1 else a[:, None]

    groups, lo = [], 0
    for key, members in groupby(live, key=mode):
        members = list(members)
        rows = slice(lo, lo + len(members))
        lo += len(members)
        # adding -0.0 leaves every h, -0.0 included, bitwise unchanged
        groups.append((rows, ObstacleStep(dt, column([c.penalties.n_upper for c in members]),
                                          column([c.penalties.m_value for c in members]), *key),
                       column([c.h_shift or -0.0 for c in members])))

    mc = _extension_cells(spec, grid)
    nxe = grid.n_x + 2 * mc
    # core coordinates must match grid.x bitwise so clamped nodes satisfy
    # u == h exactly; hence x_min + dx*(j - mc), not (x_min - mc*dx) + dx*j
    xg = grid.x_min + dx * (np.arange(nxe) - mc)
    core = slice(mc, nxe - mc)
    coeffs = Coefficients(spec, xg)
    band = spec.band

    # each cell's field owns its arrays, so a consumer keeping one field
    # does not keep the batch; cell b stores the core of row b of the batch
    outs = [SolutionField.empty(grid) for _ in live]
    u = np.broadcast_to(coeffs("phi"), (len(live), nxe)).copy()
    for b, out in enumerate(outs):
        out.u[grid.n_t] = u[b, core]

    # the coefficients and kernels come in blocks of time rows
    # k = n_t-1-i, in loop order; a block's kernels cover the rows before
    # its first failing one, whose error is raised once they are swept.  A
    # step writes the batch's core into the buffers, row r of a block for
    # slice i0-1-r, which are copied into each cell's field once per block.
    # The obstacle rows of a group are made per step: as block tables, with
    # a cell axis, they would hold several times a coefficient table
    idx = np.arange(nxe)
    names = ("u", "a_plus", "a_minus", "k_defect", "sigma_choice")
    shape = (min(grid.n_t, coeffs.block_rows), len(live), grid.n_x)
    bufs = [np.empty(shape, dtype=np.int8 if name == "sigma_choice" else float)
            for name in names]
    u_buf, plus_buf, minus_buf, defect_buf, choice_buf = bufs
    i0 = grid.n_t
    for times, (sv, bv, lv, hv, hpv, *ks) in coeffs.blocks(
            _KERNEL_FIELDS + ("h", "h_prime") + coeffs.driver_fields, grid):
        kernels, error = _kernels(sv, bv, lv, idx, band, dt, dx, nxe, times, xg)
        n_rows = len(kernels[0].s)
        for r in range(n_rows):
            # rows of the tables as (1, nodes) slices, as in _endpoint_expectation
            row = slice(r, r + 1)
            z_tilde = sv[row] * central_diff(u, dx)
            e_low, e_high = (_endpoint_expectation(u, u, k, r) for k in kernels)
            c = np.maximum(e_low, e_high)
            base = c + dt * coeffs.f([a[row] for a in ks], c, z_tilde)
            parts = [obstacle_update(base[rows], c[rows], hv[row] + shift, hpv[row], step)
                     for rows, step, shift in groups]
            u, a_plus, a_minus = (parts[0] if len(parts) == 1 else
                                  [np.concatenate(a) for a in zip(*parts)])
            u_buf[r] = u[:, core]
            plus_buf[r] = a_plus[:, core]
            minus_buf[r] = a_minus[:, core]
            defect_buf[r] = np.minimum(e_low - c, e_high - c)[:, core]
            choice_buf[r] = (e_high > e_low)[:, core]  # ties resolve to the low endpoint
        for b, out in enumerate(outs):
            for name, buf in zip(names, bufs):
                getattr(out, name)[i0 - n_rows:i0] = buf[:n_rows][::-1, b]
        i0 -= n_rows
        if error is not None:
            raise error

    # the last block's tables and kernels and the buffers are not kept
    # while z is computed
    del sv, bv, lv, hv, hpv, ks, kernels, bufs
    del u_buf, plus_buf, minus_buf, defect_buf, choice_buf
    sigma = Coefficients(spec, grid.x)("sigma", grid.t[:, None])
    for out in outs:
        out.z = z_field(sigma, grid, out.u)
    return zip(live, outs)


def sweep_cells(spec: ProblemSpec, grid: Grid, cells, swept=None) -> list:
    """Per cell, its SolutionField or the error that stopped its sweep.

    The distinct cells not already in ``swept`` (a mapping of cell to
    field or error) go through one batched sweep.  A StabilityError of the
    whole batch is every cell's own.  If the sweep raises a ValueError,
    each cell is swept on its own, so an error only some cells' values
    raise (a driver outside its domain at one cell's y) stays with those
    cells.
    """
    known = dict(swept or {})
    todo = tuple(c for c in dict.fromkeys(cells) if c not in known)
    if todo:
        try:
            known.update(zip(todo, _run_sweep(spec, grid, todo)))
        except ValueError as err:
            if len(todo) == 1:
                known[todo[0]] = err
            else:
                known.update((c, sweep_cells(spec, grid, [c])[0]) for c in todo)
    return [known[c] for c in cells]


def _field_or_raise(result) -> SolutionField:
    """A sweep_cells result as a field; an error is raised."""
    if isinstance(result, Exception):
        raise result
    return result


def penalized_sweep(spec: ProblemSpec, grid: Grid, penalties: PenaltyParams,
                    threads: int = 1) -> SolutionField:
    """Backward sweep with both constraints enforced by penalty terms.

    Explicit mode applies dt*m*(c-h)^- - dt*n*(c-h')^+ at the continuation
    value c; nodewise-implicit mode solves the piecewise-linear penalty
    equation in the node value exactly (the driver stays frozen at c), which
    removes the step-size coupling to n and m.  ``m_lower="projection"``
    turns the lower penalty into the exact reflection of reflected_sweep.
    ``threads`` is accepted for compatibility and ignored.
    """
    return _field_or_raise(sweep_cells(spec, grid, [SweepCell(penalties)])[0])


def reflected_sweep(spec: ProblemSpec, grid: Grid, n_upper: float,
                    penalty_mode: str = EXPLICIT,
                    kappa_f: float = DEFAULT_KAPPA_F) -> SolutionField:
    """Sweep with exact lower reflection and a penalized upper constraint.

    The projection max(h, .) is applied after the upper-penalty update, so
    pushing increments a_plus are nonzero only at nodes sitting exactly on
    the lower obstacle (the discrete minimality property).
    """
    return penalized_sweep(spec, grid, PenaltyParams(
        n_upper=n_upper, m_lower=PROJECTION, penalty_mode=penalty_mode, kappa_f=kappa_f))


def ladder_cells(n_list, m_lower, penalty_mode, kappa_f) -> list:
    """Per n in ``n_list``, the ladder cell (n, m_lower), or the ValueError
    of its invalid penalties."""
    cells = []
    for n in n_list:
        try:
            cells.append(SweepCell(PenaltyParams(n, m_lower, penalty_mode, kappa_f)))
        except ValueError as err:
            cells.append(err)
    return cells


def ladder_column(spec: ProblemSpec, grid: Grid, n_list, m_lower, penalty_mode, kappa_f,
                  swept=None, left=None):
    """(rows, fields) of the cells (n, m_lower), n in ``n_list``, swept as one
    batch; ``swept`` maps cells already swept to their fields or errors.

    A cell with invalid penalties or a failed sweep gets a row holding the
    error and the field None; a non-finite field raises NonFiniteField.
    mono_gap_n is taken against the previous n, and mono_gap_m against
    ``left`` (u per n at the previous m, None where missing) if given.  A
    projection column is labelled m = inf."""
    m = np.inf if m_lower == PROJECTION else m_lower
    cells = ladder_cells(n_list, m_lower, penalty_mode, kappa_f)
    swept_fields = iter(sweep_cells(spec, grid, [c for c in cells if isinstance(c, SweepCell)],
                                    swept))
    rows, fields, above = [], [], None  # above: u at the previous n
    obstacles = obstacle_fields(spec, grid)
    for k, (n, cell) in enumerate(zip(n_list, cells)):
        fld = next(swept_fields) if isinstance(cell, SweepCell) else cell
        if isinstance(fld, Exception):
            rows.append(LadderRow(n=n, m=m, error=str(fld)))
            fld = None
        else:
            require_finite(fld, n=n, m=m)
            rows.append(ladder_row(
                fld, spec, grid, n, m, obstacles, mono_gap_n=ordering_gap(fld.u, above),
                mono_gap_m=np.nan if left is None else ordering_gap(left[k], fld.u)))
        fields.append(fld)
        above = None if fld is None else fld.u
    return rows, fields


@dataclass
class DoubleLadderReport:
    n_list: list
    m_list: list
    cells: list  # rows indexed by n, columns by m


def double_ladder(spec: ProblemSpec, grid: Grid, n_list, m_list,
                  penalty_mode: str = NODEWISE_IMPLICIT,
                  kappa_f: float = DEFAULT_KAPPA_F, swept=None) -> DoubleLadderReport:
    """Penalized sweeps over the (n, m) product, with ordering diagnostics.

    Each m-column's cells not in ``swept``, a mapping of cells already
    swept to their fields or errors, are one batched sweep, and only the
    previous column's value grids are kept.
    Per-cell sweep failures are recorded in the cell and the ladder carries
    on; a non-finite field raises NonFiniteField.  Lists must be strictly
    ascending; an empty list gives an empty report.
    """
    n_list = [float(v) for v in n_list]
    m_list = [float(v) for v in m_list]
    if not (strictly_ascending(n_list) and strictly_ascending(m_list)):
        raise ValueError("n_list and m_list must be strictly ascending")
    report = DoubleLadderReport(n_list=n_list, m_list=m_list,
                                cells=[[None] * len(m_list) for _ in n_list])
    left = [None] * len(n_list)  # u at the previous m, per n
    for j, m in enumerate(m_list):
        rows, fields = ladder_column(spec, grid, n_list, m, penalty_mode, kappa_f, swept, left)
        left = [None if fld is None else fld.u for fld in fields]
        del fields  # the next column sweeps with only this one's u alive
        for cells, row in zip(report.cells, rows):
            cells[j] = row
    return report
