"""Volatility-band primitives, problem data, grids, and input validation.

The uncertainty nonlinearity is the sublinear envelope over an interval of
squared volatilities; since it is the maximum of a linear function of the
squared volatility, it is always attained at one of the two band endpoints.
Everything downstream (lattice and PDE solvers) therefore only ever looks
at the two endpoint controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

PROJECTION = "projection"
EXPLICIT = "explicit"
NODEWISE_IMPLICIT = "nodewise-implicit"

#: default Lipschitz bound for the driver in (y, z); cross-checked by sampling
DEFAULT_KAPPA_F = 5.0


#: nodes per field in one block of coefficient tables (Coefficients.blocks)
_BLOCK_NODES = 4096


class StabilityError(RuntimeError):
    """Raised when a scheme's monotonicity/step-size requirement fails at entry."""


@dataclass(frozen=True)
class VolatilityBand:
    sigma_low: float
    sigma_high: float

    def __post_init__(self):
        if not (0.0 < self.sigma_low <= self.sigma_high):
            raise ValueError("need 0 < sigma_low <= sigma_high, got (%r, %r)"
                             % (self.sigma_low, self.sigma_high))


def g_eval(a, band: VolatilityBand):
    """Envelope nonlinearity 0.5*(sigma_high^2 * a+  -  sigma_low^2 * a-).

    Positively homogeneous, monotone, subadditive; accepts arrays.
    """
    a = np.asarray(a, dtype=float) if isinstance(a, np.ndarray) else a
    hi = band.sigma_high ** 2
    lo = band.sigma_low ** 2
    out = 0.5 * (hi * np.maximum(a, 0.0) - lo * np.maximum(-a, 0.0))
    return out if isinstance(out, np.ndarray) else float(out)


@dataclass(frozen=True)
class ProblemSpec:
    """All data for one double-obstacle problem on [0, T] x [x_min, x_max].

    Coefficients are parsed expressions: b, l, sigma, h, h_prime in (t, x);
    f in (t, x, y, z); phi in x alone.
    """
    horizon: float
    x_min: float
    x_max: float
    band: VolatilityBand
    b: ex.Expression
    l: ex.Expression
    sigma: ex.Expression
    f: ex.Expression
    phi: ex.Expression
    h: ex.Expression
    h_prime: ex.Expression
    name: str = ""

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")

    @classmethod
    def from_strings(cls, *, horizon, x_min, x_max, sigma_low, sigma_high,
                     b="0", l="0", sigma="1", f="0", phi="0",
                     h="-1000000", h_prime="1000000", name=""):
        return cls(
            horizon=float(horizon), x_min=float(x_min), x_max=float(x_max),
            band=VolatilityBand(float(sigma_low), float(sigma_high)),
            b=ex.parse_expr(b), l=ex.parse_expr(l), sigma=ex.parse_expr(sigma),
            f=ex.parse_expr(f), phi=ex.parse_expr(phi),
            h=ex.parse_expr(h), h_prime=ex.parse_expr(h_prime), name=name,
        )


@dataclass(frozen=True)
class Grid:
    """Uniform time-space grid; t_i = i*dt, x_j = x_min + j*dx."""
    n_t: int
    n_x: int
    t_max: float
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_t < 1 or self.n_x < 3:
            raise ValueError("need n_t >= 1 and n_x >= 3")

    @classmethod
    def for_problem(cls, spec: ProblemSpec, n_t: int, n_x: int):
        return cls(n_t=n_t, n_x=n_x, t_max=spec.horizon,
                   x_min=spec.x_min, x_max=spec.x_max)

    @property
    def dt(self):
        return self.t_max / self.n_t

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def t(self):
        return self.dt * np.arange(self.n_t + 1)

    @property
    def x(self):
        return self.x_min + self.dx * np.arange(self.n_x)


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty intensities and stepping controls shared by both solvers.

    ``m_lower`` is either a non-negative intensity or the marker
    ``"projection"`` for exact lower reflection.  In explicit mode the
    step size must satisfy dt*(n_upper + m_lower + kappa_f) <= 1.
    """
    n_upper: float = 0.0
    m_lower: object = 0.0  # float or "projection"
    penalty_mode: str = EXPLICIT
    kappa_f: float = DEFAULT_KAPPA_F

    def __post_init__(self):
        # "not x >= 0" also rejects nan
        if not self.n_upper >= 0:
            raise ValueError("n_upper must be >= 0")
        if self.m_lower != PROJECTION and not float(self.m_lower) >= 0:
            raise ValueError("m_lower must be >= 0 or 'projection'")
        if self.penalty_mode not in (EXPLICIT, NODEWISE_IMPLICIT):
            raise ValueError("penalty_mode must be %r or %r" % (EXPLICIT, NODEWISE_IMPLICIT))
        if not self.kappa_f >= 0:
            raise ValueError("kappa_f must be >= 0")

    @property
    def project_lower(self):
        return self.m_lower == PROJECTION

    @property
    def m_value(self):
        return 0.0 if self.project_lower else float(self.m_lower)

    def check_explicit_cfl(self, dt: float):
        """Monotonicity bound for the explicit penalty update; raises on failure."""
        if self.penalty_mode == EXPLICIT:
            bound = dt * (self.n_upper + self.m_value + self.kappa_f)
            if bound > 1.0:
                raise StabilityError(
                    "explicit penalty CFL violated: dt*(n+m+kappa_f) = %.6g > 1" % bound)
        else:
            if dt * self.kappa_f >= 1.0:
                raise StabilityError(
                    "implicit mode requires dt*kappa_f < 1, got %.6g" % (dt * self.kappa_f))


@dataclass(frozen=True)
class Violation:
    kind: str  # non-finite-coefficient | obstacle-crossing | terminal-sandwich
               # | negative-diffusion
    t_index: int
    x_index: int
    t: float
    x: float
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    f_lipschitz_y: float = 0.0
    f_lipschitz_z: float = 0.0
    warnings: list = field(default_factory=list)

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None


class Coefficients:
    """Evaluates the coefficient fields b, l, sigma, h, h_prime, phi and the
    driver f of one problem on a fixed x-array.

    ``coeffs(name, t)`` takes a scalar t (one row, shaped like x) or an
    array column ``t[:, None]`` (a table, one row per time).  A scalar t is
    bound as an array, so a row is computed by the same numpy kernels as
    the matching table row and the two agree bitwise.  Fields free of t are
    evaluated once and come back as zero-copy broadcast views.  ``blocks``
    gives the tables of a long time column a block of rows at a time.
    """

    def __init__(self, spec, x):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.static = {}  # name -> row of a t-free field
        for name in ("b", "l", "sigma", "h", "h_prime", "phi"):
            e = getattr(spec, name)
            if "t" not in ex.variables(e):
                self.static[name] = np.broadcast_to(ex.eval_expr(e, {"x": self.x}),
                                                    self.x.shape)

    def __call__(self, name, t=None):
        column = isinstance(t, np.ndarray)
        a = self.static.get(name)
        if a is None:
            bind = {"x": self.x}
            if t is not None:
                bind["t"] = t if column else np.full(self.x.shape, t)
            a = ex.eval_expr(getattr(self.spec, name), bind)
        return np.broadcast_to(a, np.broadcast_shapes(t.shape, self.x.shape)) if column else a

    def blocks(self, names, n_rows, time_of):
        """Yield (rows, times, tables) over consecutive slices ``rows`` of
        range(n_rows), where times = time_of(row indices) is the 1-D array
        of the rows' times and tables[k] = self(names[k], times[:, None]).

        A block holds about _BLOCK_NODES nodes per field, and at least one
        row; only one block's times and tables exist at a time.  A block in
        which a field is undefined is cut to its first row, so the error
        raises only after the rows before it were yielded, as it would in a
        row-by-row evaluation.
        """
        step = max(1, _BLOCK_NODES // self.x.size)
        lo = 0
        while lo < n_rows:
            rows = slice(lo, min(lo + step, n_rows))
            times = time_of(np.arange(rows.start, rows.stop))
            try:
                tables = [self(name, times[:, None]) for name in names]
            except ValueError:
                rows, times = slice(lo, lo + 1), times[:1]
                tables = [self(name, times[:, None]) for name in names]
            yield rows, times, tables
            lo = rows.stop

    def f(self, t, x, y, z):
        """The driver at (t, x, y, z); a driver free of some arguments
        may come back with a smaller shape that broadcasts against y."""
        return ex.eval_expr(self.spec.f, {"t": t, "x": x, "y": y, "z": z})


def t_free_rows(*tables):
    """``tables``, cut to one row if all are broadcast rows (t-free, see Coefficients)."""
    return tables if any(a.strides[0] for a in tables) else tuple(a[:1] for a in tables)


def first_true(mask):
    """(row, column) of the first True of a 2-D mask in row-major order, or
    None."""
    k = int(np.argmax(mask))
    return divmod(k, mask.shape[1]) if mask.flat[k] else None


def driver_sample(spec, t_max, x, dy=0.0, dz=0.0):
    """f at a deterministic sample: t in linspace(0, t_max, 5), the given x,
    y + dy and z + dz for y, z in {-2, 0, 2}; shape (5, x.size, 3, 3)."""
    t = np.linspace(0.0, t_max, 5)[:, None, None, None]
    y = np.broadcast_to(np.array([-2.0, 0.0, 2.0])[:, None], (5, np.size(x), 3, 3))
    out = Coefficients(spec, x).f(t, np.reshape(x, (-1, 1, 1)), y + dy, y.swapaxes(2, 3) + dz)
    return np.broadcast_to(out, y.shape)


#: fields whose values on the reporting grid must be finite
_FINITE_FIELDS = ("b", "l", "sigma", "h", "h_prime", "phi")


def validate_problem(spec: ProblemSpec, grid: Grid,
                     kappa_f: float = DEFAULT_KAPPA_F) -> ValidationReport:
    """Check the standing assumptions on the grid.

    Verifies that b, l, sigma, h, h' and phi are finite, h <= h' at every
    node, the terminal sandwich h(T,.) <= phi <= h'(T,.), and sigma >= 0;
    estimates empirical Lipschitz constants of f in (y, z) by sampled
    difference quotients and warns when they exceed the configured kappa_f.
    Returns the violations it finds; an expression undefined at a node it
    evaluates (``sqrt`` or ``log`` of a negative value, say) raises
    ``expr.DomainError`` instead.
    """
    x = grid.x
    coeffs = Coefficients(spec, x)
    report = ValidationReport(ok=True)

    def first_bad(kind, mask, detail_fmt, *vals, i0=0):
        """Violation at the first True of a (rows, n_x) mask, rows from t_index i0."""
        node = first_true(mask)
        if node is None:
            return []
        r, j = node
        return [Violation(kind, i0 + r, j, float(grid.t[i0 + r]), float(x[j]),
                          detail_fmt % tuple(v[r, j] for v in vals))]

    table = {name: coeffs(name, grid.t[:, None]) for name in _FINITE_FIELDS[:-1]}
    table["phi"] = coeffs("phi")[None, :]
    for name in _FINITE_FIELDS:
        report.violations += first_bad(
            "non-finite-coefficient", ~np.isfinite(table[name]), name + "=%.9g",
            table[name], i0=grid.n_t if name == "phi" else 0)
    hv, hpv = table["h"], table["h_prime"]
    # in time order, crossings first on a tie, as a scan over the slices finds them
    report.violations += sorted(
        first_bad("obstacle-crossing", hv > hpv, "h=%.9g > h'=%.9g", hv, hpv)
        + first_bad("negative-diffusion", table["sigma"] < 0, "sigma=%.9g < 0",
                    table["sigma"]), key=lambda v: v.t_index)

    phiv = table["phi"]
    hT = coeffs("h", spec.horizon)[None, :]
    hpT = coeffs("h_prime", spec.horizon)[None, :]
    report.violations += first_bad("terminal-sandwich", hT > phiv,
                                   "h(T)=%.9g > phi=%.9g", hT, phiv, i0=grid.n_t)
    report.violations += first_bad("terminal-sandwich", phiv > hpT,
                                   "phi=%.9g > h'(T)=%.9g", phiv, hpT, i0=grid.n_t)
    report.ok = not report.violations

    # empirical Lipschitz constants of f in (y, z)
    xs = np.linspace(spec.x_min, spec.x_max, 9)
    delta = 0.5
    f0 = driver_sample(spec, spec.horizon, xs)
    lip_y = float(np.max(np.abs(driver_sample(spec, spec.horizon, xs, dy=delta) - f0))) / delta
    lip_z = float(np.max(np.abs(driver_sample(spec, spec.horizon, xs, dz=delta) - f0))) / delta
    report.f_lipschitz_y = lip_y
    report.f_lipschitz_z = lip_z
    if max(lip_y, lip_z) > kappa_f:
        report.warnings.append(
            "sampled driver Lipschitz constant %.4g exceeds configured kappa_f %.4g"
            % (max(lip_y, lip_z), kappa_f))
    return report


def obstacle_fields(spec: ProblemSpec, grid: Grid):
    """Lower and upper obstacle values on the full grid, shape (n_t+1, n_x)."""
    coeffs = Coefficients(spec, grid.x)
    return coeffs("h", grid.t[:, None]), coeffs("h_prime", grid.t[:, None])


def contamination_cone_width(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Diagnostic cone width sigma_high * max|sigma(t,x)| * sqrt(T - t) per slice."""
    smax = float(np.max(np.abs(Coefficients(spec, grid.x)("sigma", grid.t[:, None]))))
    return spec.band.sigma_high * smax * np.sqrt(grid.t_max - grid.t)


def uncontaminated_mask(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Boolean (n_t+1, n_x) mask of nodes outside the boundary cone."""
    cone = contamination_cone_width(spec, grid)[:, None]
    x = grid.x[None, :]
    return (x >= grid.x_min + cone) & (x <= grid.x_max - cone)
