"""Monotone explicit finite differences for the penalized and direct
double-obstacle forms of the fully nonlinear parabolic equation.

The reported time grid may be coarser than the scheme's monotonicity bound
allows, so each reported step is internally subdivided into equal substeps
satisfying

    dt_sub * (sigma_high^2 max sigma^2 / dx^2 + |2 l sigma_high^2 + b|_max / dx
              + kappa_f + n_upper + m_lower) <= 1,

at the reported times, and only the requested slices are stored.  Every
substep of the step from t_{i+1} back to t_i reads the coefficients sigma,
b, l, h and h', and the driver's subtrees free of u and of its derivative,
at t_i, as the lattice does; they come from tables evaluated once per block
of reported steps (``Coefficients.blocks``), and so do sigma^2 and 2*l.
Freezing them over a step is an O(dt) consistency error, and since the
substeps are sized on the maxima over every t_i, the bound holds at every
node the solve reads.  Those maxima come from the run's plan
(``gcore.RunPlan.of``), which validation builds from its tables,
so ``substeps`` is scalar arithmetic that a run can check before any solve
starts.  The obstacle update's scalars, the buffer of ghost values and the
substep's rows d2, d1, harg, F and a scratch row are allocated once per
solve, and a substep fills them in place, so it allocates only in the
driver and the obstacle update, and evaluates only the rest of the driver,
on a row of those tables.

Boundary columns use one-sided first differences with the curvature copied
from the adjacent interior column (quadratic ghost nodes), which is exact
for quadratic profiles; the complementarity residual masks a cone near the
boundary where that extrapolation and the clamped probes pollute the
fields.
"""

from __future__ import annotations

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, Coefficients, Grid, PenaltyParams,
                    ProblemSpec, RunPlan, StabilityError, g_eval, obstacle_fields,
                    uncontaminated_mask)
from .record import Factory, Record
from .scheme import ObstacleStep, SolutionField, ceil_eps, obstacle_update, z_field

#: contact-set exclusion margins for the residual sup, as domain fractions
RESIDUAL_CONTACT_MARGIN_T = 0.03
RESIDUAL_CONTACT_MARGIN_X = 0.025
_CONTACT_TOL = 1e-9
#: the most substeps per reported step; a bound that needs more raises StabilityError
MAX_SUBSTEPS = 10_000
#: the most node-substeps, n_t*nsub*n_x, of one solve; a solve that needs more
#: raises StabilityError before it allocates its fields.  A node-substep was
#: measured at 95-150 ns (the varcoef-pde problem at 2,001 to 200,001 nodes,
#: one thread of a 2-vCPU Xeon, Python 3.11, numpy 2.4), so a solve at the
#: cap takes about 3.5-5.5 minutes, where MAX_SUBSTEPS and
#: gcore.MAX_GRID_NODES alone allow hours
MAX_PDE_WORK = 2 ** 31


class PdeSchemeParams(Record, frozen=True):
    grid: Grid
    penalty: PenaltyParams = Factory(PenaltyParams)


def f_operator(d2u, du, u, x, t, spec: ProblemSpec):
    """Full spatial operator G(sigma^2 d2u + 2 l du) + b du + f(t,x,u,sigma du)."""
    coeffs = Coefficients(spec, x)
    sv, bv, lv, *ks = (coeffs(name, t) for name in ("sigma", "b", "l") + coeffs.driver_fields)
    out = (g_eval(sv ** 2 * d2u + 2.0 * lv * du, spec.band) + bv * du
           + coeffs.f(ks, u, sv * du if coeffs.reads_z else None))
    return out if np.ndim(out) else float(out)


def substeps(plan, grid, penalties, direct=False):
    """Substeps per reported step of a PDE solve on ``grid`` with
    ``penalties`` (``direct`` for the direct solve, whose bound has no
    penalty), so the explicit bound holds for dt_sub at the maxima of the
    coefficients over the times _run_pde reads them at: each step's t_i, so
    every reported time but T, as ``plan`` (a gcore.RunPlan) holds them.
    More than MAX_SUBSTEPS, or more work than MAX_PDE_WORK, raises
    StabilityError."""
    hi2 = plan.sigma_high ** 2
    rate = hi2 * plan.sigma2 / grid.dx ** 2 + plan.pde_drift / grid.dx + penalties.kappa_f
    if not direct and penalties.penalty_mode == EXPLICIT:
        rate = rate + (penalties.n_upper + penalties.m_value)
    nsub = ceil_eps(grid.dt * rate)
    if not nsub <= MAX_SUBSTEPS:
        raise StabilityError(
            "explicit stability needs %.0f substeps per step (cap %d); "
            "bound dt*rate = %.6g" % (nsub, MAX_SUBSTEPS, grid.dt * rate))
    nsub = max(1, int(nsub))
    work = grid.n_t * nsub * grid.n_x
    if work > MAX_PDE_WORK:
        raise StabilityError(
            "the PDE solve needs n_t*nsub*n_x = %d node-substeps (cap %d) at %d substeps "
            "per step; coarsen the grid" % (work, MAX_PDE_WORK, nsub))
    return nsub


def _run_pde(spec, grid, penalties, direct):
    """The backward loop of both PDE solves, with nsub from the RunPlan of
    (spec, grid).  Each substep adds its
    a_plus, a_minus and defect into row i of the zeroed field; u and
    sigma_choice are stored at the step's last substep, and every substep
    of a step reads the coefficient rows at t_i.  What is the same for every
    row of a block (sigma^2 and 2*l) is tabled once per block, and what is
    the same for the solve once.  A substep fills the rows d2, d1, harg, F
    and a scratch row, allocated once per solve, with in-place ufunc calls
    in the order of the formulas they compute, and takes the ghost values
    from Python floats; z is formed a block of rows at a time from the same
    sigma tables."""
    dt, dx = grid.dt, grid.dx
    if penalties.penalty_mode == NODEWISE_IMPLICIT:
        penalties.check_explicit_cfl(dt)
    nsub = substeps(RunPlan.of(spec, grid), grid, penalties, direct)
    coeffs = Coefficients(spec, grid.x)
    band = spec.band
    lo2, hi2 = band.sigma_low ** 2, band.sigma_high ** 2
    # the substep's scalars as 0-d arrays, which numpy combines with an
    # array faster than a Python float (see ObstacleStep)
    two, dx2, two_dx, defect, dts = (np.asarray(a) for a in (
        2.0, dx ** 2, 2.0 * dx, -0.5 * (hi2 - lo2), dt / nsub))
    step = ObstacleStep(dts, penalties.n_upper, penalties.m_value, penalties.penalty_mode,
                        penalties.project_lower, direct)

    out = SolutionField.empty(grid)
    u = coeffs("phi")
    out.u[grid.n_t] = u
    out.z[grid.n_t] = z_field(coeffs("sigma", grid.t[-1]), grid, u)
    # u with its quadratic ghost values: one-sided first difference, copied
    # curvature; g_up[j] and g_dn[j] are the values right and left of node j
    g = np.empty(grid.n_x + 2)
    g_up, g_dn = g[2:], g[:-2]
    d2, d1, harg, F, scratch = np.empty((5, grid.n_x))

    reads_z = coeffs.reads_z
    i = grid.n_t
    for times, (sv, bv, lv, hv, hpv, *ks) in coeffs.blocks(
            ("sigma", "b", "l", "h", "h_prime") + coeffs.driver_fields, grid):
        for s2, l2, bvr, svr, hr, hpr, *kr in zip(sv ** 2, 2.0 * lv, bv, sv, hv, hpv, *ks):
            i -= 1
            k_defect, a_plus, a_minus = out.k_defect[i], out.a_plus[i], out.a_minus[i]
            for _ in range(nsub):
                u0, u1, u2 = u[:3].tolist()
                v2, v1, v0 = u[-3:].tolist()
                g[1:-1] = u
                g[0] = 3.0 * u0 - 3.0 * u1 + u2
                g[-1] = 3.0 * v0 - 3.0 * v1 + v2
                # d2 = (g_up - 2 u + g_dn) / dx^2, d1 = (g_up - g_dn) / (2 dx)
                np.multiply(two, u, out=d2)
                np.subtract(g_up, d2, out=d2)
                np.add(d2, g_dn, out=d2)
                np.divide(d2, dx2, out=d2)
                np.subtract(g_up, g_dn, out=d1)
                np.divide(d1, two_dx, out=d1)
                # harg = s2 d2 + l2 d1
                np.multiply(s2, d2, out=harg)
                np.multiply(l2, d1, out=scratch)
                np.add(harg, scratch, out=harg)
                # F = G(harg) + b d1 + f(u, sigma d1)
                g_eval(harg, band, out=F)
                np.multiply(bvr, d1, out=scratch)
                np.add(F, scratch, out=F)
                np.add(F, coeffs.f(kr, u, np.multiply(svr, d1, out=scratch) if reads_z else None),
                       out=F)
                # k_defect += defect |harg| dt_sub
                np.abs(harg, out=scratch)
                np.multiply(defect, scratch, out=scratch)
                np.multiply(scratch, dts, out=scratch)
                np.add(k_defect, scratch, out=k_defect)
                # base = u + dt_sub F
                np.multiply(dts, F, out=F)
                np.add(u, F, out=F)
                u, ap, am = obstacle_update(F, u, hr, hpr, step)
                a_plus += ap
                a_minus += am
            out.u[i] = u
            out.sigma_choice[i] = harg > 0.0
        rows = slice(i, i + len(times))
        out.z[rows] = z_field(sv[::-1], grid, out.u[rows])
    return out


def solve_penalized_pde(spec: ProblemSpec, params: PdeSchemeParams,
                        threads: int = 1) -> SolutionField:
    """Explicit scheme for the doubly penalized equation.

    Penalties are applied on the incoming (later-time) slice in explicit
    mode; nodewise-implicit mode resolves them exactly against the node
    value, matching the lattice semantics so ladders are comparable.
    ``m_lower="projection"`` replaces the lower penalty with the exact
    reflection, mirroring the lattice's reflected sweep.  ``threads`` is
    accepted for compatibility and ignored.
    """
    return _run_pde(spec, params.grid, params.penalty, False)


def solve_double_obstacle_direct(spec: ProblemSpec, params: PdeSchemeParams,
                                 threads: int = 1) -> SolutionField:
    """Explicit step followed by the double projection min(h', max(h, .)).

    Penalty intensities are ignored (and excluded from the stability bound);
    the output satisfies h <= u <= h' exactly at every node.  ``threads`` is
    accepted for compatibility and ignored.
    """
    return _run_pde(spec, params.grid, params.penalty, True)


def _dilate(mask, kt, kx):
    """Boolean dilation by kt rows and kx columns (separable sliding max),
    as a new array: a node is set iff a node of ``mask`` within kt rows and
    kx columns of it is."""
    out = mask
    for axis, k in ((0, kt), (1, kx)):
        src = np.moveaxis(out, axis, 0)
        acc = src.copy()
        for s in range(1, k + 1):
            acc[s:] |= src[:-s]
            acc[:-s] |= src[s:]
        out = np.moveaxis(acc, 0, axis)
    return out


def complementarity_residual(field: SolutionField, spec: ProblemSpec, grid: Grid):
    """Pointwise residual of the double-obstacle equation and its interior sup.

    r = max(u - h', min(u - h, -dt_forward(u) - F)) with central space
    differences on the same slice.  The sup excludes the boundary cone, the
    final slice, the boundary columns, and a fixed physical margin around
    the realized contact set: one-sided time differences straddle the
    derivative kink at the free boundary, so the residual there is O(1) for
    any grid and says nothing about consistency.
    """
    u = field.u
    dt, dx = grid.dt, grid.dx
    h, hp = obstacle_fields(spec, grid)
    ui, inner = u[:-1], u[:-1, 1:-1]
    d2 = (ui[:, 2:] - 2.0 * inner + ui[:, :-2]) / dx ** 2
    d1 = (ui[:, 2:] - ui[:, :-2]) / (2.0 * dx)
    F = f_operator(d2, d1, inner, grid.x[1:-1], grid.t[:-1, None], spec)
    ddt = (u[1:, 1:-1] - inner) / dt
    r = np.full((grid.n_t + 1, grid.n_x), np.nan)
    r[:-1, 1:-1] = np.maximum(inner - hp[:-1, 1:-1],
                              np.minimum(inner - h[:-1, 1:-1], -ddt - F))

    contact = (np.abs(u - h) <= _CONTACT_TOL) | (np.abs(u - hp) <= _CONTACT_TOL)
    kt = int(ceil_eps(RESIDUAL_CONTACT_MARGIN_T * grid.t_max / dt))
    kx = int(ceil_eps(RESIDUAL_CONTACT_MARGIN_X * (grid.x_max - grid.x_min) / dx))
    near_contact = _dilate(contact, kt, kx)
    keep = uncontaminated_mask(spec, grid) & ~near_contact & ~np.isnan(r)
    keep[grid.n_t, :] = False
    sup = float(np.max(np.abs(np.where(keep, r, 0.0)))) if keep.any() else 0.0
    return r, sup
