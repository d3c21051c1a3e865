"""Built-in problem catalog and the per-problem assertion suites.

Each entry pins the coefficients, default grid, and default penalties, and
knows how to check its own budgets, so a catalog run with --assert doubles
as a CI gate.  Budgets that depend on resolution are computed from the grid
actually used.
"""

from __future__ import annotations

import math

import numpy as np

from .gcore import EXPLICIT, NODEWISE_IMPLICIT, Grid, ProblemSpec
from .record import Record

GHEAT_ANCHOR_TOL = 2e-2
CROSS_GAP_FACTOR = 5.0
MONO_TOL = 1e-9


class CatalogEntry(Record, frozen=True):
    name: str
    problem: dict       # ProblemSpec.from_strings kwargs
    grid: tuple         # default (n_t, n_x)
    penalties: dict     # default PenaltyParams kwargs
    anchor_x: float     # where summary values are reported
    ladders: dict       # default ladder lists


CATALOG = {
    "gheat-convex": CatalogEntry(
        name="gheat-convex",
        problem=dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
                     b="0", l="0", sigma="1", f="0", phi="x*x"),
        grid=(400, 201),
        penalties=dict(n_upper=0.0, m_lower=0.0, penalty_mode=EXPLICIT),
        anchor_x=0.0,
        ladders={},
    ),
    "gheat-concave": CatalogEntry(
        name="gheat-concave",
        problem=dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
                     b="0", l="0", sigma="1", f="0", phi="-x*x"),
        grid=(400, 201),
        penalties=dict(n_upper=0.0, m_lower=0.0, penalty_mode=EXPLICIT),
        anchor_x=0.0,
        ladders={},
    ),
    "american-put-analog": CatalogEntry(
        name="american-put-analog",
        problem=dict(horizon=1.0, x_min=-0.5, x_max=2.5, sigma_low=0.4, sigma_high=0.4,
                     b="0", l="0", sigma="0.4", f="0",
                     phi="max(1 - x, 0)", h="max(1 - x, 0)"),
        grid=(200, 241),
        penalties=dict(n_upper=0.0, m_lower="projection", penalty_mode=EXPLICIT),
        anchor_x=1.0,
        ladders={"m_list": [10.0, 100.0, 1000.0]},
    ),
    "double-obstacle-sine": CatalogEntry(
        name="double-obstacle-sine",
        problem=dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=0.5, sigma_high=1.0,
                     b="0", l="0", sigma="1", f="2*sin(x) - 0.3*y",
                     phi="0.1*sin(x)",
                     h="-0.4 + 0.1*sin(x + t)", h_prime="0.4 + 0.1*sin(x - t)"),
        grid=(200, 161),
        penalties=dict(n_upper=64.0, m_lower=64.0, penalty_mode=NODEWISE_IMPLICIT),
        anchor_x=0.0,
        ladders={"n_list": [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0],
                 "m_list": [10.0, 100.0, 1000.0],
                 "epsilon_list": [0.1, 0.01, 0.001]},
    ),
    "coinciding-obstacles": CatalogEntry(
        name="coinciding-obstacles",
        problem=dict(horizon=1.0, x_min=-3.0, x_max=3.0, sigma_low=1.0, sigma_high=2.0,
                     b="0", l="0", sigma="1", f="1", phi="0.3",
                     h="0.3", h_prime="0.3"),
        grid=(200, 161),
        penalties=dict(n_upper=1024.0, m_lower=1024.0, penalty_mode=NODEWISE_IMPLICIT),
        anchor_x=0.0,
        ladders={},
    ),
}


def catalog_names():
    return sorted(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError("unknown catalog problem %r; valid names: %s"
                       % (name, ", ".join(catalog_names()))) from None


def build_spec(entry: CatalogEntry) -> ProblemSpec:
    return ProblemSpec.from_strings(name=entry.name, **entry.problem)


def bermudan_put_binomial(x0: float, vol: float, horizon: float, n_t: int,
                          strike: float = 1.0) -> float:
    """Value of a Bermudan put on an additive recombining coin-flip tree.

    Steps are +-vol*sqrt(dt) with probability one half; exercise is allowed
    at every grid time.  Independent of the sweep machinery on purpose.
    """
    dt = horizon / n_t
    step = vol * math.sqrt(dt)
    j = np.arange(n_t + 1)
    values = np.maximum(strike - (x0 + (2.0 * j - n_t) * step), 0.0)
    for i in range(n_t - 1, -1, -1):
        xs = x0 + (2.0 * np.arange(i + 1) - i) * step
        values = np.maximum(np.maximum(strike - xs, 0.0),
                            0.5 * (values[1:] + values[:-1]))
    return float(values[0])


class AssertionResult(Record):
    name: str
    ok: bool
    value: float
    budget: float


def _anchor_value(field, grid: Grid, anchor_x: float) -> float:
    j = int(np.argmin(np.abs(grid.x - anchor_x)))
    return float(field.u[0, j])


def _check(name, value, budget):
    return AssertionResult(name, bool(value <= budget), float(value), float(budget))


def run_assertions(entry: CatalogEntry, results) -> list:
    """Budget checks for one catalog run; ``results`` is a cli.RunResults."""
    out = []
    grid = results.grid
    scheme_budget = CROSS_GAP_FACTOR * (grid.dt + grid.dx ** 2)

    def anchor(target, tol):
        for method, fld in sorted(results.fields.items()):
            val = _anchor_value(fld, grid, entry.anchor_x)
            out.append(_check("anchor-%s" % method, abs(val - target), tol))

    if entry.name == "gheat-convex":
        anchor(4.0, GHEAT_ANCHOR_TOL)
    elif entry.name == "gheat-concave":
        anchor(-1.0, GHEAT_ANCHOR_TOL)
    elif entry.name == "american-put-analog":
        oracle = bermudan_put_binomial(entry.anchor_x, 0.4 * 0.4, grid.t_max, grid.n_t)
        for method, fld in sorted(results.fields.items()):
            val = _anchor_value(fld, grid, entry.anchor_x)
            out.append(_check("binomial-oracle-%s" % method,
                              abs(val - oracle), 2.0 * grid.dx))
    elif entry.name == "coinciding-obstacles":
        for method, fld in sorted(results.fields.items()):
            dev = float(np.max(np.abs(fld.u[:-1] - 0.3)))
            out.append(_check("pinned-band-%s" % method, dev, 0.02))
        if results.direct_field is not None:
            dev = float(np.max(np.abs(results.direct_field.u[:-1] - 0.3)))
            out.append(_check("pinned-band-direct", dev, 1e-12))

    if results.cross_gap is not None:
        out.append(_check("cross-gap", results.cross_gap, scheme_budget))

    report = results.ladder_report
    if report is not None and report.rows:
        clean = [r for r in report.rows if r.error is None]
        out.append(_check("ladder-monotone",
                          max((r.mono_violation for r in clean), default=0.0), MONO_TOL))
        if entry.name == "double-obstacle-sine" and report.rate_slope is not None:
            sups = [r.sup_upper_violation for r in clean if r.sup_upper_violation > 0]
            decades = math.log10(max(sups) / min(sups)) if len(sups) >= 2 else 0.0
            out.append(_check("ladder-rate-slope", report.rate_slope, -0.8))
            out.append(AssertionResult("ladder-decades", decades >= 2.0, decades, 2.0))

    if results.double_report is not None and results.double_report.cells:
        clean = [c for row in results.double_report.cells for c in row if c.error is None]
        if clean:
            worst = max(c.mono_violation for c in clean)
            out.append(_check("double-orderings", worst, MONO_TOL))

    if results.m_ladder is not None and len(results.m_ladder) >= 2:
        pairs = zip(results.m_ladder[:-1], results.m_ladder[1:])
        worst = max((b.asc_plus / a.asc_plus if a.asc_plus > 0 else 0.0)
                    for a, b in pairs)
        out.append(_check("asc-decay", worst, 0.5))

    if results.stability_gaps:
        gaps = results.stability_gaps
        decreasing = all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        out.append(AssertionResult("stability-decreasing", decreasing,
                                   float(gaps[-1]), float(gaps[0])))
        if len(gaps) >= 3:
            out.append(_check("stability-contraction", gaps[-1], 0.1 * gaps[0]))
    return out
