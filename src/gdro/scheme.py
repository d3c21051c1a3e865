"""Pieces both solvers share: the solution field, the obstacle update that
keeps every step between h and h', the derivative field, and the per-field
diagnostics a ladder row reports.

The obstacle update is the monotone core of both schemes: given the
unconstrained step ``base`` it returns the constrained value and the
pushing increments, in one of four modes (direct double projection, lower
projection after an upper penalty, or both penalties, explicit or solved
nodewise-implicitly).  The lattice and the PDE scheme call the same code, so
they cannot drift apart.  A solver prepares it once per solve and penalty
group as ``ObstacleStep(dt, n, m, penalty_mode, project_lower, direct)``,
which computes scalars such as dt*m and 1 + dt*m, so a step makes only the
update's array operations; the update silences its own 0*inf.
"""

from __future__ import annotations

import numpy as np

from .gcore import NODEWISE_IMPLICIT, Grid, ProblemSpec, obstacle_fields
from .record import Record

#: guard against floating-point noise when rounding step counts and spans up
CEIL_EPS = 1e-9


def ceil_eps(a):
    return np.ceil(a - CEIL_EPS)


class SolutionField(Record):
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
        super().__init__(label, t_index, x_index)
        self.label, self.t_index, self.x_index = label, t_index, x_index

    def __str__(self):
        return "non-finite value at t_index=%d x_index=%d in %s" % (
            self.t_index, self.x_index, self.label)


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


def z_field(sigma, grid, u):
    """sigma * the x-derivative of ``u``, where ``sigma`` is the table of
    sigma on ``grid`` (Coefficients(...)("sigma", grid.t[:, None]))."""
    return sigma * central_diff(u, grid.dx)


def _solve_lower(base, h, dtm, one_dtm):
    """Exact nodewise solve of y = base + dt*m*(y-h)^-; linear below h.
    ``dtm`` is dt*m and ``one_dtm`` is 1 + dt*m.

    The root lies in [base, h]; clipping it there keeps the rounded solve
    monotone in base with y >= base, also for base within an ulp of h.
    """
    low = (base + dtm * h) / one_dtm
    return np.where(base < h, np.minimum(np.maximum(low, base), h), base)


def _solve_upper(base, hp, dtn, one_dtn):
    """Exact nodewise solve of y = base - dt*n*(y-h')^+; linear above h'.
    ``dtn`` is dt*n and ``one_dtn`` is 1 + dt*n.

    The root lies in [h', base], clipped there as in _solve_lower.
    """
    high = (base + dtn * hp) / one_dtn
    return np.where(base > hp, np.maximum(np.minimum(high, base), hp), base)


class ObstacleStep:
    """``obstacle_update`` prepared for one solve and penalty group, with the
    scalars dt*m, 1 + dt*m, dt*n, 1 + dt*n and dt*|n| computed once.  The
    intensities ``n`` and ``m`` are numbers (or 0-d arrays), or (B, 1)
    columns for a batch whose row b is one cell with intensities n[b] and
    m[b].  The scalars are held as arrays, 0-d for numbers: numpy combines
    a 0-d float64 array with an array faster than a Python float, whose
    type it must first resolve.  ``direct`` projects onto [h, h'] and
    ignores the penalties; else ``project_lower`` applies max(h, .) after
    the upper penalty in place of the lower one."""

    def __init__(self, dt, n, m, penalty_mode, project_lower, direct=False):
        self.direct, self.project_lower = direct, project_lower
        self.implicit = penalty_mode == NODEWISE_IMPLICIT
        dtm, dtn = dt * m, dt * n
        # abs: at n = -0.0 the term would be -0.0 and make a -0.0 base +0.0
        self.dtm, self.dtn, self.one_dtm, self.one_dtn, self.dt_abs_n = (
            np.asarray(a, dtype=float) for a in (dtm, dtn, 1.0 + dtm, 1.0 + dtn, dt * abs(n)))


def obstacle_update(base, anchor, h, hp, step):
    """Constrain one step's unconstrained value ``base`` by the prepared
    ObstacleStep ``step``; returns (value, a_plus, a_minus).

    ``anchor`` is where explicit penalties are evaluated: the lattice
    continuation value or the PDE's incoming slice.  Under lower projection
    a_plus is nonzero only where the value sits on h.  A zero intensity
    takes the same path and returns the unpenalized value bitwise for
    finite obstacles; against an infinite obstacle it makes 0*inf, a nan
    that np.where drops unless the obstacle is infinite on the wrong side,
    where the solver's non-finite check reports it.  The update runs under
    its own ``np.errstate(invalid="ignore")``, so its callers need none.
    """
    with np.errstate(invalid="ignore"):
        if step.direct:
            lower = np.maximum(h, base)
            value = np.minimum(hp, lower)
            return value, lower - base, lower - value
        if step.project_lower:
            if step.implicit:
                pre = _solve_upper(base, hp, step.dtn, step.one_dtn)
            else:
                pre = base - step.dt_abs_n * np.maximum(anchor - hp, 0.0)
            value = np.maximum(h, pre)
            return value, value - pre, base - pre
        if step.implicit:
            lower = _solve_lower(base, h, step.dtm, step.one_dtm)
            value = _solve_upper(lower, hp, step.dtn, step.one_dtn)
            return value, lower - base, lower - value
        a_plus = step.dtm * np.maximum(h - anchor, 0.0)
        a_minus = step.dtn * np.maximum(anchor - hp, 0.0)
        return base + a_plus - a_minus, a_plus, a_minus


class LadderRow(Record):
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
    z_gap: float = np.nan
    error: str | None = None

    @property
    def mono_violation(self):
        return float(np.fmax(self.mono_gap_n, self.mono_gap_m))


def obstacle_violations(field: SolutionField, spec: ProblemSpec, grid: Grid,
                        obstacles=None):
    """(sup (u-h)^-, sup (u-h')^+) over all nodes.  ``obstacles`` is the
    pair obstacle_fields(spec, grid), if the caller has it."""
    h, hp = obstacles or obstacle_fields(spec, grid)
    low = float(np.max(np.maximum(h - field.u, 0.0)))
    up = float(np.max(np.maximum(field.u - hp, 0.0)))
    return low, up


def asc_residuals(field: SolutionField, spec: ProblemSpec, grid: Grid, obstacles=None):
    """Pushing-consistency residuals (asc_plus, asc_minus).

    Per spatial column, sums (u - h) * da_plus backward in t, as the lattice
    sweep does, and takes the magnitude; asc_plus is the sup of those column
    magnitudes (asc_minus analogous with (h' - u) * da_minus).  Exact lower
    reflection gives asc_plus = 0 because increments occur only where u sits
    on h.  ``obstacles`` is as in obstacle_violations.
    """
    h, hp = obstacles or obstacle_fields(spec, grid)
    cols_plus = np.sum(((field.u - h) * field.a_plus)[::-1], axis=0)
    cols_minus = np.sum(((hp - field.u) * field.a_minus)[::-1], axis=0)
    return float(np.max(np.abs(cols_plus))), float(np.max(np.abs(cols_minus)))


def asc_residuals_global(field: SolutionField, spec: ProblemSpec, grid: Grid,
                         obstacles=None):
    """Whole-grid variant of the pushing residual sums, for transparency;
    ``obstacles`` is as in obstacle_violations."""
    h, hp = obstacles or obstacle_fields(spec, grid)
    return (float(abs(np.sum((field.u - h) * field.a_plus))),
            float(abs(np.sum((hp - field.u) * field.a_minus))))


def strictly_ascending(values) -> bool:
    """Whether each of ``values`` is below the next: a ladder's rungs."""
    return all(a < b for a, b in zip(values, values[1:]))
