"""Experiment harness: penalty ladders, rate fits, pushing-process
residuals, stability probes, and cross-validation between the two solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .gcore import (NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION, Coefficients,
                    Grid, PenaltyParams, ProblemSpec, driver_sample, obstacle_fields,
                    uncontaminated_mask)
from .lattice import ladder_column, penalized_sweep
from .pde import PdeSchemeParams, solve_penalized_pde
# LadderRow, asc_residuals, asc_residuals_global and obstacle_violations are
# also this module's API
from .scheme import (LadderRow, SolutionField, asc_residuals, asc_residuals_global,
                     obstacle_violations, strictly_ascending)

#: entries at or below this floor are noise and are excluded from rate fits
RATE_FIT_FLOOR = 10.0 * np.finfo(float).eps


@dataclass
class ConvergenceReport:
    rows: list = dc_field(default_factory=list)
    rate_slope: float | None = None


def interior_gap(spec: ProblemSpec, grid: Grid, a, b) -> float:
    """Sup |a - b| of two grid fields over the uncontaminated interior."""
    return _masked_gap(uncontaminated_mask(spec, grid), a, b)


def _masked_gap(mask, a, b):
    return float(np.max(np.abs(np.where(mask, a - b, 0.0))))


def _fit_rate_slope(n_values, violations):
    pts = [(n, v) for n, v in zip(n_values, violations) if n > 0 and v > RATE_FIT_FLOOR]
    if len(pts) < 2:
        return None
    ln = np.log([p[0] for p in pts])
    lv = np.log([p[1] for p in pts])
    return float(np.polyfit(ln, lv, 1)[0])


def monotone_ladder(spec: ProblemSpec, grid: Grid, n_list,
                    penalty_mode: str = NODEWISE_IMPLICIT,
                    kappa_f: float = DEFAULT_KAPPA_F, swept=None) -> ConvergenceReport:
    """Reflected sweeps along an ascending ladder of upper intensities.

    Fills per-rung upper violations (which should decay like 1/n), the
    pointwise monotonicity violation against the previous rung (the ladder
    is non-increasing in n for a monotone scheme), pushing residuals, and a
    least-squares log-log slope of the upper violation over the rungs with
    n > 0 above the noise floor.  The rungs not in ``swept``, a mapping of
    cells already swept to their fields or errors, are one batched sweep.
    A non-finite rung raises NonFiniteField.
    """
    n_list = [float(v) for v in n_list]
    if not strictly_ascending(n_list):
        raise ValueError("n_list must be strictly ascending")
    rows, fields = ladder_column(spec, grid, n_list, PROJECTION, penalty_mode, kappa_f, swept)
    report = ConvergenceReport(rows)
    report.rate_slope = _fit_rate_slope(
        [r.n for r in report.rows if r.error is None],
        [r.sup_upper_violation for r in report.rows if r.error is None])

    # decay of the derivative field toward the finest rung, interior only
    finest = next((f for f in reversed(fields) if f is not None), None)
    if finest is not None:
        interior = uncontaminated_mask(spec, grid)
        for row, fld in zip(report.rows, fields):
            if fld is not None:
                row.z_gap = _masked_gap(interior, fld.z, finest.z)
    return report


def probe_output_gap(base: SolutionField, perturbed: SolutionField) -> float:
    """Sup |base.u - perturbed.u| over the grid: how far a data perturbation
    moves the sweep whose field is ``base``."""
    return float(np.max(np.abs(base.u - perturbed.u)))


def stability_probe(spec1: ProblemSpec, spec2: ProblemSpec, grid: Grid,
                    penalties: PenaltyParams):
    """Sensitivity of matched sweeps to a data perturbation.

    Returns (output_gap, input_gap): the sup-norm distance of the two value
    fields, and the largest sampled distance between the problem data
    (terminal, obstacles, driver).  Used as a trend test; no constant is
    asserted.
    """
    output_gap = probe_output_gap(penalized_sweep(spec1, grid, penalties),
                                  penalized_sweep(spec2, grid, penalties))

    x = grid.x
    phi_gap = float(np.max(np.abs(Coefficients(spec1, x)("phi")
                                  - Coefficients(spec2, x)("phi"))))
    h1, hp1 = obstacle_fields(spec1, grid)
    h2, hp2 = obstacle_fields(spec2, grid)
    obstacle_gap = max(float(np.max(np.abs(h1 - h2))), float(np.max(np.abs(hp1 - hp2))))
    f_gap = float(np.max(np.abs(driver_sample(spec1, grid.t_max, x)
                                - driver_sample(spec2, grid.t_max, x))))
    return output_gap, max(phi_gap, obstacle_gap, f_gap)


def cross_validate(spec: ProblemSpec, grid: Grid, penalties: PenaltyParams) -> float:
    """Sup gap between the two solvers over the uncontaminated interior."""
    latt = penalized_sweep(spec, grid, penalties)
    fd = solve_penalized_pde(spec, PdeSchemeParams(grid=grid, penalty=penalties))
    return interior_gap(spec, grid, latt.u, fd.u)
