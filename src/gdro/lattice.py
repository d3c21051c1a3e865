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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, Coefficients,
                    Grid, PenaltyParams, ProblemSpec, StabilityError)
from .scheme import (LadderRow, SolutionField, central_diff, ceil_eps,
                     ladder_row, obstacle_update, ordering_gap, z_field)

#: widened-domain margin, in adversarial diffusive standard deviations
MARGIN_SIGMAS = 6.0
#: largest allowed one-cell upwind drift weight |mu|/dx per step
MAX_DRIFT_WEIGHT = 0.5


def _endpoint_expectation(u_next, idx, variance, mu, dx, n_nodes):
    """One-step expectation under a single control: value array over idx."""
    s = np.abs(mu) / dx
    if np.any(s > MAX_DRIFT_WEIGHT):
        raise StabilityError(
            "drift displacement per step exceeds %.2g cells; refine the time grid"
            % MAX_DRIFT_WEIGHT)
    span = np.sqrt(variance / (1.0 - s)) / dx
    k = np.maximum(1, ceil_eps(span).astype(np.int64))
    kdx2 = (k * dx) ** 2
    p = variance / (2.0 * kdx2)
    up = u_next[np.minimum(idx + k, n_nodes - 1)]
    dn = u_next[np.maximum(idx - k, 0)]
    here = u_next[idx]
    drift_to = np.clip(idx + np.where(mu >= 0, 1, -1), 0, n_nodes - 1)
    shifted = u_next[drift_to]
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


def _run_sweep(spec, grid, penalties: PenaltyParams):
    dt, dx = grid.dt, grid.dx
    penalties.check_explicit_cfl(dt)
    mc = _extension_cells(spec, grid)
    nxe = grid.n_x + 2 * mc
    # core coordinates must match grid.x bitwise so clamped nodes satisfy
    # u == h exactly; hence x_min + dx*(j - mc), not (x_min - mc*dx) + dx*j
    xg = grid.x_min + dx * (np.arange(nxe) - mc)
    core = slice(mc, nxe - mc)
    coeffs = Coefficients(spec, xg)
    band = spec.band

    out = SolutionField.empty(grid)
    u = coeffs("phi")
    out.u[grid.n_t] = u[core]

    idx = np.arange(nxe)
    for i in range(grid.n_t - 1, -1, -1):
        t = i * dt
        sv, bv, lv, hv, hpv = (coeffs(name, t) for name in
                               ("sigma", "b", "l", "h", "h_prime"))
        z_tilde = sv * central_diff(u, dx)
        c, choice, defects = _g_expectation_arrays(u, idx, sv, bv, lv, band, dt, dx, nxe)
        base = c + dt * coeffs.f(t, xg, c, z_tilde)
        u, a_plus, a_minus = obstacle_update(base, c, hv, hpv, dt, penalties)
        out.u[i] = u[core]
        out.a_plus[i] = a_plus[core]
        out.a_minus[i] = a_minus[core]
        out.k_defect[i] = np.minimum(defects[0], defects[1])[core]
        out.sigma_choice[i] = choice[core]

    out.z = z_field(spec, grid, out.u)
    return out


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
    return _run_sweep(spec, grid, penalties)


def reflected_sweep(spec: ProblemSpec, grid: Grid, n_upper: float,
                    penalty_mode: str = EXPLICIT,
                    kappa_f: float = DEFAULT_KAPPA_F) -> SolutionField:
    """Sweep with exact lower reflection and a penalized upper constraint.

    The projection max(h, .) is applied after the upper-penalty update, so
    pushing increments a_plus are nonzero only at nodes sitting exactly on
    the lower obstacle (the discrete minimality property).
    """
    penalties = PenaltyParams(n_upper=n_upper, m_lower="projection",
                              penalty_mode=penalty_mode, kappa_f=kappa_f)
    return _run_sweep(spec, grid, penalties)


@dataclass
class DoubleLadderReport:
    n_list: list
    m_list: list
    cells: list  # rows indexed by n, columns by m


def double_ladder(spec: ProblemSpec, grid: Grid, n_list, m_list,
                  penalty_mode: str = NODEWISE_IMPLICIT,
                  kappa_f: float = DEFAULT_KAPPA_F) -> DoubleLadderReport:
    """Penalized sweeps over the (n, m) product, with ordering diagnostics.

    Per-cell sweep failures are recorded in the cell and the ladder carries
    on.  Lists must be sorted ascending; an empty list gives an empty report.
    """
    n_list = [float(v) for v in n_list]
    m_list = [float(v) for v in m_list]
    if sorted(n_list) != n_list or sorted(m_list) != m_list:
        raise ValueError("n_list and m_list must be sorted ascending")
    report = DoubleLadderReport(n_list=n_list, m_list=m_list, cells=[])
    above = [None] * len(m_list)  # the previous n's fields, per m
    for n in n_list:
        row, fields = [], []
        for m, prev_n in zip(m_list, above):
            try:
                fld = penalized_sweep(spec, grid, PenaltyParams(
                    n_upper=n, m_lower=m, penalty_mode=penalty_mode, kappa_f=kappa_f))
            except (StabilityError, ValueError) as err:
                row.append(LadderRow(n=n, m=m, error=str(err)))
                fields.append(None)
                continue
            prev_m = fields[-1] if fields else None
            row.append(ladder_row(fld, spec, grid, n, m,
                                  mono_gap_n=ordering_gap(fld, prev_n),
                                  mono_gap_m=ordering_gap(prev_m, fld)))
            fields.append(fld)
        report.cells.append(row)
        above = fields
    return report
