"""Pieces both solvers share: the solution field, the obstacle update that
keeps every step between h and h', the derivative field, and the per-field
diagnostics a ladder row reports.

The obstacle update is the monotone core of both schemes: given the
unconstrained step ``base`` it returns the constrained value and the
pushing increments, in one of four modes (direct double projection, lower
projection after an upper penalty, or both penalties, explicit or solved
nodewise-implicitly).  The lattice and the PDE scheme call the same code, so
they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcore import NODEWISE_IMPLICIT, Coefficients, Grid, ProblemSpec, obstacle_fields

#: guard against floating-point noise when rounding step counts and spans up
CEIL_EPS = 1e-9


def ceil_eps(a):
    return np.ceil(a - CEIL_EPS)


@dataclass
class SolutionField:
    """Grid fields produced by one sweep.

    u             value grid, shape (n_t+1, n_x); u[-1] is the terminal slice
    z             sigma(t,x) * central x-difference of u (one-sided at edges)
    a_plus        per-step lower pushing increments (>= 0)
    a_minus       per-step upper pulling increments (>= 0)
    k_defect      per-node gap of the non-chosen volatility candidate (<= 0)
    sigma_choice  index of the realized volatility endpoint (0 low, 1 high)
    """
    grid: Grid
    u: np.ndarray
    z: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    k_defect: np.ndarray
    sigma_choice: np.ndarray

    @classmethod
    def empty(cls, grid):
        shape = (grid.n_t + 1, grid.n_x)
        return cls(grid=grid, u=np.zeros(shape), z=np.zeros(shape),
                   a_plus=np.zeros(shape), a_minus=np.zeros(shape),
                   k_defect=np.zeros(shape),
                   sigma_choice=np.zeros(shape, dtype=np.int8))


class NonFiniteField(ArithmeticError):
    """A solved field holds a non-finite value.  ``label`` names the solve
    (a method, a ladder cell's n and m, or a probe's eps) and (t_index,
    x_index) is the first non-finite node the backward solve produced."""

    def __init__(self, label, t_index, x_index):
        super().__init__("non-finite value at t_index=%d x_index=%d in %s"
                         % (t_index, x_index, label))
        self.label, self.t_index, self.x_index = label, t_index, x_index


def require_finite(field, **label):
    """Return ``field``, or raise NonFiniteField at the latest time slice
    holding a non-finite u (the solves run backward), at its lowest x."""
    bad = ~np.isfinite(field.u)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[-1])
        raise NonFiniteField(label, i, int(np.argmax(bad[i])))
    return field


def central_diff(u, dx):
    """Central difference along the last axis, one-sided at the edges."""
    d = np.empty_like(u)
    d[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    d[..., 0] = (u[..., 1] - u[..., 0]) / dx
    d[..., -1] = (u[..., -1] - u[..., -2]) / dx
    return d


def z_field(spec, grid, u):
    return Coefficients(spec, grid.x)("sigma", grid.t[:, None]) * central_diff(u, grid.dx)


def _solve_lower(base, h, m, dt):
    """Exact nodewise solve of y = base + dt*m*(y-h)^-; linear below h.

    The root lies in [base, h]; clipping it there keeps the rounded solve
    monotone in base with y >= base, also for base within an ulp of h.
    """
    low = (base + dt * m * h) / (1.0 + dt * m)
    return np.where(base < h, np.minimum(np.maximum(low, base), h), base)


def _solve_upper(base, hp, n, dt):
    """Exact nodewise solve of y = base - dt*n*(y-h')^+; linear above h'.

    The root lies in [h', base], clipped there as in _solve_lower.
    """
    high = (base + dt * n * hp) / (1.0 + dt * n)
    return np.where(base > hp, np.maximum(np.minimum(high, base), hp), base)


def obstacle_update(base, anchor, h, hp, dt, penalties, direct=False):
    """Constrain one step's unconstrained value ``base``; returns
    (value, a_plus, a_minus).

    ``anchor`` is where explicit penalties are evaluated: the lattice
    continuation value or the PDE's incoming slice.  ``direct`` projects
    onto [h, h'] and ignores the penalties.  Otherwise ``m_lower =
    "projection"`` applies max(h, .) after the upper penalty, so a_plus is
    nonzero only where the value sits on h; numeric intensities apply both
    penalties, solved exactly per node in nodewise-implicit mode.

    The intensities ``penalties.n_upper`` and ``penalties.m_value`` are
    numbers, or (B, 1) columns for a batch whose row b of ``base`` is one
    cell with intensities n[b] and m[b].  A zero intensity takes the same
    path and returns the unpenalized value bitwise for finite obstacles;
    against an infinite obstacle it makes 0*inf, a nan that np.where drops
    unless the obstacle is infinite on the wrong side (both solvers call
    it under ``np.errstate(invalid="ignore")``, and only it).
    """
    n, m = penalties.n_upper, penalties.m_value
    implicit = penalties.penalty_mode == NODEWISE_IMPLICIT
    if direct:
        lower = np.maximum(h, base)
        value = np.minimum(hp, lower)
        return value, lower - base, lower - value
    if penalties.project_lower:
        if implicit:
            pre = _solve_upper(base, hp, n, dt)
        else:
            # abs: at n = -0.0 the term would be -0.0 and make a -0.0 base +0.0
            pre = base - dt * abs(n) * np.maximum(anchor - hp, 0.0)
        value = np.maximum(h, pre)
        return value, value - pre, base - pre
    if implicit:
        lower = _solve_lower(base, h, m, dt)
        value = _solve_upper(lower, hp, n, dt)
        return value, lower - base, lower - value
    a_plus = dt * m * np.maximum(h - anchor, 0.0)
    a_minus = dt * n * np.maximum(anchor - hp, 0.0)
    return base + a_plus - a_minus, a_plus, a_minus


@dataclass
class LadderRow:
    """Summary of one penalized solve in a ladder.

    mono_gap_n is sup (u at this n - u at the previous smaller n)^+ and
    mono_gap_m is sup (u at the previous smaller m - u at this m)^+; a gap
    the ladder does not order along stays nan.
    """
    n: float
    m: float  # inf marks exact lower reflection
    sup_upper_violation: float = np.nan
    sup_lower_violation: float = np.nan
    mono_gap_n: float = np.nan
    mono_gap_m: float = np.nan
    asc_plus: float = np.nan
    asc_minus: float = np.nan
    cross_gap: float = np.nan
    z_gap: float = np.nan
    error: str | None = None

    @property
    def mono_violation(self):
        return float(np.fmax(self.mono_gap_n, self.mono_gap_m))


def obstacle_violations(field: SolutionField, spec: ProblemSpec, grid: Grid):
    """(sup (u-h)^-, sup (u-h')^+) over all nodes."""
    h, hp = obstacle_fields(spec, grid)
    low = float(np.max(np.maximum(h - field.u, 0.0)))
    up = float(np.max(np.maximum(field.u - hp, 0.0)))
    return low, up


def asc_residuals(field: SolutionField, spec: ProblemSpec, grid: Grid):
    """Pushing-consistency residuals (asc_plus, asc_minus).

    Per spatial column, sums (u - h) * da_plus over time and takes the
    magnitude; asc_plus is the sup of those column magnitudes (asc_minus
    analogous with (h' - u) * da_minus).  Exact lower reflection gives
    asc_plus = 0 because increments occur only where u sits on h.
    """
    h, hp = obstacle_fields(spec, grid)
    cols_plus = np.sum((field.u - h) * field.a_plus, axis=0)
    cols_minus = np.sum((hp - field.u) * field.a_minus, axis=0)
    return float(np.max(np.abs(cols_plus))), float(np.max(np.abs(cols_minus)))


def asc_residuals_global(field: SolutionField, spec: ProblemSpec, grid: Grid):
    """Whole-grid variant of the pushing residual sums, for transparency."""
    h, hp = obstacle_fields(spec, grid)
    return (float(abs(np.sum((field.u - h) * field.a_plus))),
            float(abs(np.sum((hp - field.u) * field.a_minus))))


def ordering_gap(hi, lo):
    """sup (hi - lo)^+ between the value grids u of two solves, 0.0 if
    either is missing."""
    if hi is None or lo is None:
        return 0.0
    return float(np.max(np.maximum(hi - lo, 0.0)))


def strictly_ascending(values) -> bool:
    """Whether each of ``values`` is below the next: a ladder's rungs."""
    return all(a < b for a, b in zip(values, values[1:]))


def ladder_row(field, spec, grid, n, m, **gaps) -> LadderRow:
    """The ladder row of one solve; ``gaps`` sets mono_gap_n and mono_gap_m."""
    row = LadderRow(n=n, m=m, **gaps)
    row.sup_lower_violation, row.sup_upper_violation = obstacle_violations(field, spec, grid)
    row.asc_plus, row.asc_minus = asc_residuals(field, spec, grid)
    return row
