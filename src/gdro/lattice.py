"""Backward induction on a Markov-chain approximation of the controlled SDE.

Each node takes an adversarial maximum of one-step expectations over the two
volatility-band endpoints.  The one-step kernel per control puts mass on the
grid nodes x_{j-k}, x_j, x_{j+k} (plus a one-cell upwind shift for drift)
with weights matching the control's displacement mean exactly and its
variance exactly, so no interpolation bias enters and quadratic slices
propagate without error.  All weights are non-negative, which keeps the
scheme monotone; beyond the domain edges probes clamp to the edge value
(constant extrapolation).

Sweeps run on an internally widened x-grid (a few adversarial standard
deviations of margin) so edge clamping cannot pollute the reported window;
the returned fields cover the requested grid only.

One sweep advances a batch of cells through one backward time loop.  A cell
is a set of penalties plus a constant shift of the lower obstacle h; the
stencil, the coefficient rows and the ghost margin depend only on the
problem, the grid and t, so the cells share them and differ only in u, the
penalties and h.  A batched field equals the cell's single sweep bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION,
                    Coefficients, Grid, PenaltyParams, ProblemSpec, StabilityError)
from .scheme import (LadderRow, SolutionField, central_diff, ceil_eps, ladder_row,
                     obstacle_update, ordering_gap, require_finite, z_field)

#: widened-domain margin, in adversarial diffusive standard deviations
MARGIN_SIGMAS = 6.0
#: largest allowed one-cell upwind drift weight |mu|/dx per step
MAX_DRIFT_WEIGHT = 0.5


def _endpoint_expectation(u_next, idx, variance, mu, dx, n_nodes):
    """One-step expectation under a single control, over idx of the last
    axis of u_next (one row, or one row per cell of a batch)."""
    s = np.abs(mu) / dx
    if (s > MAX_DRIFT_WEIGHT).any():
        raise StabilityError(
            "drift displacement per step exceeds %.2g cells; refine the time grid"
            % MAX_DRIFT_WEIGHT)
    span = np.sqrt(variance / (1.0 - s)) / dx
    k = np.maximum(1, ceil_eps(span).astype(np.int64))
    kdx2 = (k * dx) ** 2
    p = variance / (2.0 * kdx2)
    up = u_next.take(np.minimum(idx + k, n_nodes - 1), axis=-1)
    dn = u_next.take(np.maximum(idx - k, 0), axis=-1)
    here = u_next.take(idx, axis=-1)
    drift_to = np.minimum(np.maximum(idx + np.where(mu >= 0, 1, -1), 0), n_nodes - 1)
    shifted = u_next.take(drift_to, axis=-1)
    # delta form: constant slices propagate with zero rounding error
    return here + p * ((up - here) + (dn - here)) + s * (shifted - here)


def _g_expectation_arrays(u_next, idx, sspec, bv, lv, band, dt, dx, n_nodes):
    """Adversarial max over the band endpoints; returns (value, choice, defects)."""
    cands = []
    for sig in (band.sigma_low, band.sigma_high):
        variance = (sig * sspec) ** 2 * dt
        mu = (bv + lv * sig ** 2) * dt
        cands.append(_endpoint_expectation(u_next, idx, variance, mu, dx, n_nodes))
    e_low, e_high = cands
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
    value, choice, defects = _g_expectation_arrays(
        u_next, idx, coeffs("sigma", t)[idx], coeffs("b", t)[idx], coeffs("l", t)[idx],
        spec.band, grid.dt, grid.dx, grid.n_x)
    if scalar:
        return float(value[0]), int(choice[0]), (float(defects[0, 0]), float(defects[1, 0]))
    return value, choice, defects


def _extension_cells(spec, grid):
    """Ghost-margin width: drift reach plus MARGIN_SIGMAS diffusive deviations."""
    coeffs = Coefficients(spec, grid.x)
    sv, bv, lv = (coeffs(name, grid.t[:, None]) for name in ("sigma", "b", "l"))
    smax = float(np.max(np.abs(sv)))
    bmax = float(np.max(np.abs(bv + lv * spec.band.sigma_high ** 2)))
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
        shift = (column([c.h_shift or -0.0 for c in members])
                 if any(c.h_shift for c in members) else None)
        groups.append((rows, _Intensities(*key, column([c.penalties.n_upper for c in members]),
                                          column([c.penalties.m_value for c in members])),
                       shift))

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

    idx = np.arange(nxe)
    for i in range(grid.n_t - 1, -1, -1):
        t = i * dt
        sv, bv, lv, hv, hpv = (coeffs(name, t) for name in
                               ("sigma", "b", "l", "h", "h_prime"))
        z_tilde = sv * central_diff(u, dx)
        c, choice, defects = _g_expectation_arrays(u, idx, sv, bv, lv, band, dt, dx, nxe)
        base = c + dt * coeffs.f(t, xg, c, z_tilde)
        parts = [obstacle_update(base[rows], c[rows], hv if shift is None else hv + shift,
                                 hpv, dt, pen)
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


def _ladder_fields(spec: ProblemSpec, grid: Grid, penalty_kwargs, swept=None) -> list:
    """sweep_cells of the cells ``PenaltyParams(**kw)`` for kw in
    ``penalty_kwargs``; a cell whose penalties are invalid holds that
    ValueError and is not swept."""
    cells = []
    for kw in penalty_kwargs:
        try:
            cells.append(SweepCell(PenaltyParams(**kw)))
        except ValueError as err:
            cells.append(err)
    fields = iter(sweep_cells(spec, grid, [c for c in cells if isinstance(c, SweepCell)],
                              swept))
    return [next(fields) if isinstance(c, SweepCell) else c for c in cells]


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
    on; a non-finite field raises NonFiniteField.  Lists must be sorted
    ascending; an empty list gives an empty report.
    """
    n_list = [float(v) for v in n_list]
    m_list = [float(v) for v in m_list]
    if sorted(n_list) != n_list or sorted(m_list) != m_list:
        raise ValueError("n_list and m_list must be sorted ascending")
    report = DoubleLadderReport(n_list=n_list, m_list=m_list,
                                cells=[[None] * len(m_list) for _ in n_list])
    left = [None] * len(n_list)  # u at the previous m, per n
    for j, m in enumerate(m_list):
        column = _ladder_fields(spec, grid, [
            dict(n_upper=n, m_lower=m, penalty_mode=penalty_mode, kappa_f=kappa_f)
            for n in n_list], swept)
        above = None  # u at the previous n in this column
        for i, (n, fld) in enumerate(zip(n_list, column)):
            if isinstance(fld, Exception):
                report.cells[i][j] = LadderRow(n=n, m=m, error=str(fld))
                column[i] = above = None
                continue
            require_finite(fld, n=n, m=m)
            report.cells[i][j] = ladder_row(fld, spec, grid, n, m,
                                            mono_gap_n=ordering_gap(fld.u, above),
                                            mono_gap_m=ordering_gap(left[i], fld.u))
            column[i] = above = fld.u
        left = column
    return report
