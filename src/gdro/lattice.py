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

The coefficients sigma, b, l, h and h' come from tables evaluated once per
block of time rows (``Coefficients.blocks``), and each endpoint's kernel
(drift weight, diffusion weight and gather indices) is built once per block
from them.  A step then only gathers and combines.  The driver f depends on u
and is evaluated per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION,
                    Coefficients, Grid, PenaltyParams, ProblemSpec, StabilityError,
                    first_true, t_free_rows)
from .scheme import (LadderRow, SolutionField, central_diff, ceil_eps, ladder_row,
                     obstacle_update, ordering_gap, require_finite, strictly_ascending,
                     z_field)

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

    def row(self, r):
        return _Kernel._make(a[r] for a in self)


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
        kernels.append(_Kernel._make(np.broadcast_to(a, (n_rows, idx.size)) for a in (
            s, variance / (2.0 * (k * dx) ** 2),
            np.minimum(idx + k, n_nodes - 1), np.maximum(idx - k, 0),
            np.minimum(np.maximum(idx + np.where(mu >= 0, 1, -1), 0), n_nodes - 1))))
    return kernels, error


def _endpoint_expectation(u_next, here, kernel):
    """One-step expectation of u_next under one endpoint's kernel row, where
    ``here`` is u_next at the kernel's nodes (one row, or one row per cell
    of a batch)."""
    up = u_next.take(kernel.up, axis=-1)
    dn = u_next.take(kernel.dn, axis=-1)
    shifted = u_next.take(kernel.drift_to, axis=-1)
    # delta form: constant slices propagate with zero rounding error
    return here + kernel.p * ((up - here) + (dn - here)) + kernel.s * (shifted - here)


def _g_expectation_arrays(u_next, here, kernels):
    """Adversarial max over the band endpoints' kernel rows; returns
    (value, choice, defects)."""
    e_low, e_high = (_endpoint_expectation(u_next, here, k) for k in kernels)
    value = np.maximum(e_low, e_high)
    choice = (e_high > e_low).astype(np.int8)  # ties resolve to the low endpoint
    defects = np.stack([e_low - value, e_high - value])
    return value, choice, defects


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
    value, choice, defects = _g_expectation_arrays(u_next, u_next.take(idx),
                                                   [k.row(0) for k in kernels])
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


class _Intensities(NamedTuple):
    """The penalties of a group of cells sharing a penalty mode and lower
    projection, read by obstacle_update: n_upper and m_value are (B, 1)
    columns, one entry per cell."""
    penalty_mode: str
    project_lower: bool
    n_upper: np.ndarray
    m_value: np.ndarray


def _run_sweep(spec, grid, cells):
    """Sweep the tuple ``cells`` through one backward time loop.

    Returns, per cell, its SolutionField or the StabilityError of its own
    step-size check.  Any other error raises for the whole batch.
    """
    dt, dx = grid.dt, grid.dx
    results = {}
    for cell in cells:
        try:
            cell.penalties.check_explicit_cfl(dt)
        except StabilityError as err:
            results[cell] = err
    # cells sharing a penalty mode and lower projection take adjacent rows,
    # so each such group is one obstacle_update on a slice of the batch
    def mode(cell):
        return cell.penalties.penalty_mode, cell.penalties.project_lower
    live = sorted((c for c in cells if c not in results), key=mode)
    if not live:
        return [results[c] for c in cells]

    def column(values):
        return np.array(values, dtype=float)[:, None]

    groups, lo = [], 0
    for key, members in groupby(live, key=mode):
        members = list(members)
        rows = slice(lo, lo + len(members))
        lo += len(members)
        # adding -0.0 leaves every h, -0.0 included, bitwise unchanged
        groups.append((rows, _Intensities(*key, column([c.penalties.n_upper for c in members]),
                                          column([c.penalties.m_value for c in members])),
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
    # its first failing one, whose error is raised once they are swept
    idx = np.arange(nxe)
    i = grid.n_t
    for _, times, (sv, bv, lv, hv, hpv) in coeffs.blocks(
            _KERNEL_FIELDS + ("h", "h_prime"), grid.n_t, lambda k: dt * (grid.n_t - 1 - k)):
        kernels, error = _kernels(sv, bv, lv, idx, band, dt, dx, nxe, times, xg)
        for r in range(len(kernels[0].s)):
            i -= 1
            t = i * dt
            z_tilde = sv[r] * central_diff(u, dx)
            c, choice, defects = _g_expectation_arrays(u, u, [k.row(r) for k in kernels])
            base = c + dt * coeffs.f(t, xg, c, z_tilde)
            # a zero intensity against an infinite h or h' makes a 0*inf
            # that obstacle_update discards or that require_finite reports
            with np.errstate(invalid="ignore"):
                parts = [obstacle_update(base[rows], c[rows], hv[r] + shift, hpv[r], dt, pen)
                         for rows, pen, shift in groups]
            u, a_plus, a_minus = (parts[0] if len(parts) == 1 else
                                  [np.concatenate(a) for a in zip(*parts)])
            k_defect = np.minimum(defects[0], defects[1])
            for b, out in enumerate(outs):
                out.u[i] = u[b, core]
                out.a_plus[i] = a_plus[b, core]
                out.a_minus[i] = a_minus[b, core]
                out.k_defect[i] = k_defect[b, core]
                out.sigma_choice[i] = choice[b, core]
        if error is not None:
            raise error

    # the last block's tables and kernels are not kept while z is computed
    del sv, bv, lv, hv, hpv, kernels
    for cell, out in zip(live, outs):
        out.z = z_field(spec, grid, out.u)
        results[cell] = out
    return [results[c] for c in cells]


def sweep_cells(spec: ProblemSpec, grid: Grid, cells, swept=None) -> list:
    """Per cell, its SolutionField or the error that stopped its sweep.

    The distinct cells not already in ``swept`` (a mapping of cell to
    field) go through one batched sweep.  If that sweep fails, each cell is
    swept on its own, so an error only some cells' values raise (a driver
    outside its domain at one cell's y) stays with those cells.
    """
    known = dict(swept or {})
    todo = tuple(c for c in dict.fromkeys(cells) if c not in known)
    if todo:
        try:
            known.update(zip(todo, _run_sweep(spec, grid, todo)))
        except (StabilityError, ValueError) as err:
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


def ladder_column(spec: ProblemSpec, grid: Grid, n_list, m_lower, penalty_mode, kappa_f,
                  swept=None, left=None):
    """(rows, fields) of the cells (n, m_lower), n in ``n_list``, swept as one
    batch; ``swept`` maps cells already swept to their fields.

    A cell with invalid penalties or a failed sweep gets a row holding the
    error and the field None; a non-finite field raises NonFiniteField.
    mono_gap_n is taken against the previous n, and mono_gap_m against
    ``left`` (u per n at the previous m, None where missing) if given.  A
    projection column is labelled m = inf."""
    m = np.inf if m_lower == PROJECTION else m_lower

    def cell_of(n):
        try:
            return SweepCell(PenaltyParams(n, m_lower, penalty_mode, kappa_f))
        except ValueError as err:
            return err
    cells = [cell_of(n) for n in n_list]
    swept_fields = iter(sweep_cells(spec, grid, [c for c in cells if isinstance(c, SweepCell)],
                                    swept))
    rows, fields, above = [], [], None  # above: u at the previous n
    for k, (n, cell) in enumerate(zip(n_list, cells)):
        fld = next(swept_fields) if isinstance(cell, SweepCell) else cell
        if isinstance(fld, Exception):
            rows.append(LadderRow(n=n, m=m, error=str(fld)))
            fld = None
        else:
            require_finite(fld, n=n, m=m)
            rows.append(ladder_row(
                fld, spec, grid, n, m, mono_gap_n=ordering_gap(fld.u, above),
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

    Each m-column is one batched sweep, and only the previous column's
    value grids are kept.  ``swept`` maps cells already swept to their fields.
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
