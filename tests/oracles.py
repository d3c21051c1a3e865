"""Independent oracles and frozen expected values, built before the solvers.

Nothing here may import the solver modules: the point is that these values
come from a different code path (hand enumeration, closed forms, a plain
recombining tree, or a walk of an expression tree) and were frozen before
the sweeps existed.
"""

import math

import numpy as np

from gdro.expr import BinOp, DomainError, Neg, Num, UnboundVariableError, Var
from gdro.gcore import EXPLICIT, Coefficients, StabilityError

# Bermudan put on an additive coin-flip tree: steps +-vol*sqrt(dt), p = 1/2,
# exercise at every grid time.  Value at x0=1 for vol=0.16, T=1, 200 steps,
# cross-checked against a dict-based tree implementation.
BINOMIAL_PUT_VALUE = 0.06375102658718887
BINOMIAL_PUT_PARAMS = dict(x0=1.0, vol=0.16, horizon=1.0, n_t=200)


def binomial_put(x0, vol, horizon, n_t, strike=1.0):
    """Reference Bermudan valuation by backward induction on the tree."""
    dt = horizon / n_t
    step = vol * math.sqrt(dt)
    j = np.arange(n_t + 1)
    values = np.maximum(strike - (x0 + (2.0 * j - n_t) * step), 0.0)
    for i in range(n_t - 1, -1, -1):
        xs = x0 + (2.0 * np.arange(i + 1) - i) * step
        values = np.maximum(np.maximum(strike - xs, 0.0),
                            0.5 * (values[1:] + values[:-1]))
    return float(values[0])


# One adversarial step on the terminal slice min(x^2, 1), band (1, 2),
# sigma = 1, b = l = 0, dt = 0.25, enumerated by hand over both endpoints:
#   at x = 0.5: probes {0, 1} -> mean 0.5 under the low endpoint;
#               probes {-0.5, 1.5} -> values {0.25, 1} -> mean 0.625 (high wins)
#   at x = 1.0: probes {0.5, 1.5} -> {0.25, 1} -> 0.625 (low wins);
#               probes {0, 2}     -> {0, 1}    -> 0.5
STEP_MINSQ_VALUE = 0.625
STEP_MINSQ_LOW_AT = 1.0    # x where the low endpoint attains the max
STEP_MINSQ_HIGH_AT = 0.5   # x where the high endpoint attains the max

# Single explicit penalty step, hand enumeration: phi = x, h = 0.5, f = 0,
# band (1, 1), sigma = 1, dt = 0.1, m = 10 at x = 0.  The two displacement
# branches +-sqrt(0.1) average to a continuation of exactly 0, and the
# lower penalty adds dt*m*(0 - 0.5)^- = 0.5.
SINGLE_PENALTY_STEP_VALUE = 0.5

# Closed forms used as solver anchors:
#   plain heat (band (1,1), phi = x^2):      u = x^2 + (T - t)
#   adversarial convex (band (1,2)):         u = x^2 + 4 (T - t)
#   adversarial concave (band (1,2)):        u = -x^2 - (T - t)
#   driver 0.5*z with band (1,1), phi = x^2: u = (x + 0.5 (T-t))^2 + (T - t)
def heat_value(t, x, horizon):
    return x * x + (horizon - t)


def gheat_convex_value(t, x, horizon):
    return x * x + 4.0 * (horizon - t)


def gheat_concave_value(t, x, horizon):
    return -x * x - (horizon - t)


def z_drift_value(t, x, horizon):
    tau = horizon - t
    return (x + 0.5 * tau) ** 2 + tau


def _check_domain(ok, message, node):
    if not np.all(ok):
        raise DomainError(message, node)


def reference_eval(expr, bindings):
    """Value of a parsed expression by a walk of its tree, the evaluator
    ``expr.compile_expr`` replaced: the reference its closures must match
    bit for bit, with the same errors."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError("unbound variable %r" % expr.name) from None
    if isinstance(expr, Neg):
        return -reference_eval(expr.operand, bindings)
    if isinstance(expr, BinOp):
        a = reference_eval(expr.left, bindings)
        b = reference_eval(expr.right, bindings)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            _check_domain(np.asarray(b) != 0, "division by zero", expr)
            return a / b
        # integer-literal exponent, checked at parse time
        power = int(expr.right.value)
        try:
            return a ** power
        except OverflowError:  # IEEE semantics: overflow saturates to +-inf
            return math.copysign(math.inf, a) if power % 2 else math.inf
    a = reference_eval(expr.args[0], bindings)
    fn = expr.func
    if fn == "min" or fn == "max":
        b = reference_eval(expr.args[1], bindings)
        return np.minimum(a, b) if fn == "min" else np.maximum(a, b)
    if fn == "abs":
        return np.abs(a)
    if fn == "exp":
        # IEEE semantics: overflow saturates to inf instead of raising
        if isinstance(a, np.ndarray):
            with np.errstate(over="ignore"):
                return np.exp(a)
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    if fn == "log":
        _check_domain(np.asarray(a) > 0, "log of non-positive value", expr)
        return np.log(a)
    if fn == "sin":
        return np.sin(a)
    if fn == "cos":
        return np.cos(a)
    if fn == "sqrt":
        _check_domain(np.asarray(a) >= 0, "sqrt of negative value", expr)
        return np.sqrt(a)
    if fn == "pos":
        return np.maximum(a, 0.0)
    return np.maximum(-np.asarray(a), 0.0) if isinstance(a, np.ndarray) else max(-a, 0.0)


def _reference_solve_lower(base, h, dtm, one_dtm):
    low = (base + dtm * h) / one_dtm
    return np.where(base < h, np.minimum(np.maximum(low, base), h), base)


def _reference_solve_upper(base, hp, dtn, one_dtn):
    high = (base + dtn * hp) / one_dtn
    return np.where(base > hp, np.maximum(np.minimum(high, base), hp), base)


def reference_obstacle_update(base, anchor, h, hp, dt, n, m, implicit, project_lower,
                              direct):
    """(value, a_plus, a_minus) of one obstacle update, as the shared kernel
    ``scheme.obstacle_update`` computed it with Python-float intensities
    ``n`` and ``m`` before its scalars became 0-d arrays and a lattice
    step's rows (1, nodes) slices: the reference its edge semantics (signed
    zeros, subnormals, infinities and nan) must match bit for bit."""
    dtm, dtn = dt * m, dt * n
    one_dtm, one_dtn = 1.0 + dtm, 1.0 + dtn
    dt_abs_n = dt * abs(n)
    with np.errstate(invalid="ignore"):
        if direct:
            lower = np.maximum(h, base)
            value = np.minimum(hp, lower)
            return value, lower - base, lower - value
        if project_lower:
            if implicit:
                pre = _reference_solve_upper(base, hp, dtn, one_dtn)
            else:
                pre = base - dt_abs_n * np.maximum(anchor - hp, 0.0)
            value = np.maximum(h, pre)
            return value, value - pre, base - pre
        if implicit:
            lower = _reference_solve_lower(base, h, dtm, one_dtm)
            value = _reference_solve_upper(lower, hp, dtn, one_dtn)
            return value, lower - base, lower - value
        a_plus = dtm * np.maximum(h - anchor, 0.0)
        a_minus = dtn * np.maximum(anchor - hp, 0.0)
        return base + a_plus - a_minus, a_plus, a_minus


# The step sizes and margins as they were computed before the run plan, each
# from tables of sigma, b and l it evaluated itself on the whole grid: the
# references the plan's scalars must reproduce bit for bit, errors included.
# The caps are arguments, so that no solver module is imported here.
_CEIL_EPS = 1e-9


def _kernel_tables(spec, grid, t):
    coeffs = Coefficients(spec, grid.x)
    return (coeffs(name, t[:, None]) for name in ("sigma", "b", "l"))


def reference_substeps(spec, grid, penalties, direct, max_substeps, max_work):
    """The PDE's substeps per reported step, sized on the tables at every
    reported time but T (``pde._stability_substeps``)."""
    sv, bv, lv = _kernel_tables(spec, grid, grid.t[:-1])
    hi2 = spec.band.sigma_high ** 2
    rate = (hi2 * float(np.max(sv ** 2)) / grid.dx ** 2
            + float(np.max(np.abs(2.0 * lv * hi2 + bv))) / grid.dx + penalties.kappa_f)
    if not direct and penalties.penalty_mode == EXPLICIT:
        rate = rate + (penalties.n_upper + penalties.m_value)
    nsub = np.ceil(grid.dt * rate - _CEIL_EPS)
    if not nsub <= max_substeps:
        raise StabilityError(
            "explicit stability needs %.0f substeps per step (cap %d); "
            "bound dt*rate = %.6g" % (nsub, max_substeps, grid.dt * rate))
    nsub = max(1, int(nsub))
    work = grid.n_t * nsub * grid.n_x
    if work > max_work:
        raise StabilityError(
            "the PDE solve needs n_t*nsub*n_x = %d node-substeps (cap %d) at %d substeps "
            "per step; coarsen the grid" % (work, max_work, nsub))
    return nsub


def reference_ghost_cells(spec, grid, margin_sigmas):
    """The lattice's ghost-margin width (``lattice._extension_cells``)."""
    sv, bv, lv = _kernel_tables(spec, grid, grid.t)
    smax = float(np.max(np.abs(sv)))
    bmax = max(float(np.max(np.abs(bv + lv * sig ** 2)))
               for sig in (spec.band.sigma_low, spec.band.sigma_high))
    reach = bmax * grid.t_max + margin_sigmas * spec.band.sigma_high * smax * np.sqrt(grid.t_max)
    cells = np.ceil(reach / grid.dx - _CEIL_EPS)
    if not cells <= 200_000:
        raise StabilityError("widened lattice domain would need %.0f ghost cells" % cells)
    return int(cells)


def reference_cone_width(spec, grid):
    """The contamination cone's width per slice (``gcore.contamination_cone_width``)."""
    sv, _, _ = _kernel_tables(spec, grid, grid.t)
    smax = float(np.max(np.abs(sv)))
    return spec.band.sigma_high * smax * np.sqrt(np.maximum(grid.t_max - grid.t, 0.0))
