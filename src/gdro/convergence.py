"""Experiment harness: penalty ladders, rate fits, pushing-process
residuals, stability probes, and cross-validation between the two solvers.
"""

from __future__ import annotations

import numpy as np

from .gcore import (NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION, Coefficients,
                    Grid, PenaltyParams, ProblemSpec, driver_sample, obstacle_fields,
                    uncontaminated_mask)
from .lattice import Batch, Ladder, ladder_column, penalized_sweep, sweep_cells
from .pde import PdeSchemeParams, solve_penalized_pde
from .record import Factory, Record
# LadderRow, asc_residuals, asc_residuals_global and obstacle_violations are
# also this module's API
from .scheme import (LadderRow, SolutionField, asc_residuals, asc_residuals_global,
                     obstacle_violations, strictly_ascending)

#: entries at or below this floor are noise and are excluded from rate fits
RATE_FIT_FLOOR = 10.0 * np.finfo(float).eps


class ConvergenceReport(Record):
    rows: list = Factory(list)
    rate_slope: float | None = None


def interior_gap(spec: ProblemSpec, grid: Grid, a, b) -> float:
    """Sup |a - b| of two grid fields over the uncontaminated interior."""
    return float(np.max(np.abs(np.where(uncontaminated_mask(spec, grid), a - b, 0.0))))


def _fit_rate_slope(n_values, violations):
    pts = [(n, v) for n, v in zip(n_values, violations) if n > 0 and v > RATE_FIT_FLOOR]
    if len(pts) < 2:
        return None
    ln = np.log([p[0] for p in pts])
    lv = np.log([p[1] for p in pts])
    return float(np.polyfit(ln, lv, 1)[0])


def monotone_ladder(spec: ProblemSpec, grid: Grid, n_list,
                    penalty_mode: str = NODEWISE_IMPLICIT,
                    kappa_f: float = DEFAULT_KAPPA_F) -> ConvergenceReport:
    """Reflected sweeps along an ascending ladder of upper intensities.

    Fills per-rung upper violations (which should decay like 1/n), the
    pointwise monotonicity violation against the previous rung (the ladder
    is non-increasing in n for a monotone scheme), pushing residuals, the
    interior z gap to the finest rung, and a least-squares log-log slope of
    the upper violation over the rungs with n > 0 above the noise floor.
    The rungs are one batched sweep that keeps no field, only each rung's
    ladder row and its gaps.  A non-finite rung raises NonFiniteField.
    """
    n_list = [float(v) for v in n_list]
    if not strictly_ascending(n_list):
        raise ValueError("n_list must be strictly ascending")
    ladder = Ladder(n_list, (PROJECTION,), penalty_mode, kappa_f)
    return monotone_report(ladder, sweep_cells(spec, grid, Batch.of([ladder])))


def monotone_report(ladder: Ladder, swept: dict) -> ConvergenceReport:
    """The ConvergenceReport of the reflected ``ladder`` from ``swept`` (see
    ladder_column)."""
    report = ConvergenceReport(ladder_column(ladder, 0, swept))
    clean = [r for r in report.rows if r.error is None]
    report.rate_slope = _fit_rate_slope([r.n for r in clean],
                                        [r.sup_upper_violation for r in clean])
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
