"""Volatility-band primitives, problem data, grids, and input validation.

The uncertainty nonlinearity is the sublinear envelope over an interval of
squared volatilities; since it is the maximum of a linear function of the
squared volatility, it is always attained at one of the two band endpoints.
Everything downstream (lattice and PDE solvers) therefore only ever looks
at the two endpoint controls.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .record import Factory, Record

PROJECTION = "projection"
EXPLICIT = "explicit"
NODEWISE_IMPLICIT = "nodewise-implicit"

#: default Lipschitz bound for the driver in (y, z); cross-checked by sampling
DEFAULT_KAPPA_F = 5.0


#: the coefficient fields besides the driver; their values on the reporting
#: grid must be finite
_FINITE_FIELDS = ("b", "l", "sigma", "h", "h_prime", "phi")

#: nodes per field in one block of coefficient tables (Coefficients.blocks)
_BLOCK_NODES = 4096

#: the most reporting-grid nodes, (n_t+1)*n_x, a Grid may have.  A
#: ``--method both`` run emitting every output was measured to peak at about
#: 200 bytes per node, so a run at the cap needs about 1.6 GiB.  A 1000x801
#: double-obstacle-sine run peaked at 257 bytes per node with and without
#: the catalog's ladders, whose 39 counted cells keep such a run below
#: 2**26/39 nodes (cli.MAX_CELL_NODES), about 0.4 GiB
MAX_GRID_NODES = 2 ** 23


class StabilityError(RuntimeError):
    """Raised when a scheme's monotonicity/step-size requirement fails at entry."""


class VolatilityBand(Record, frozen=True):
    sigma_low: float
    sigma_high: float

    def __post_init__(self):
        if not (0.0 < self.sigma_low <= self.sigma_high):
            raise ValueError("need 0 < sigma_low <= sigma_high, got (%r, %r)"
                             % (self.sigma_low, self.sigma_high))
        # a float product saturates to inf where ** would raise OverflowError
        if not np.isfinite(self.sigma_high * self.sigma_high):
            raise ValueError("need a finite sigma_high**2, got sigma_high=%r" % self.sigma_high)


def g_eval(a, band: VolatilityBand, out=None):
    """Envelope nonlinearity 0.5*(sigma_high^2 * a+  -  sigma_low^2 * a-).

    Positively homogeneous, monotone, subadditive; accepts arrays.  Given
    ``out``, an array of a's shape other than ``a``, it forms the positive
    part and the result there.
    """
    a = np.asarray(a, dtype=float) if isinstance(a, np.ndarray) else a
    hi = band.sigma_high ** 2
    lo = band.sigma_low ** 2
    negative = lo * np.maximum(-a, 0.0)
    positive = np.multiply(hi, np.maximum(a, 0.0, out=out), out=out)
    value = np.multiply(0.5, np.subtract(positive, negative, out=out), out=out)
    return value if isinstance(value, np.ndarray) else float(value)


class ProblemSpec(Record, frozen=True):
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
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError("need a finite x_max - x_min")

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


class Grid(Record, frozen=True):
    """Uniform time-space grid; t_i = i*dt, x_j = x_min + j*dx."""
    n_t: int
    n_x: int
    t_max: float
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_t < 1 or self.n_x < 3:
            raise ValueError("need n_t >= 1 and n_x >= 3")
        # before any array is built, so n_x is capped too
        if (self.n_t + 1) * self.n_x > MAX_GRID_NODES:
            raise ValueError("need (n_t + 1)*n_x <= %d nodes, got %d"
                             % (MAX_GRID_NODES, (self.n_t + 1) * self.n_x))
        if not self.dt > 0:
            raise ValueError("need dt = t_max/n_t > 0, got %r" % self.dt)
        x = self.x
        if not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
            raise ValueError("need finite, strictly increasing x nodes")

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


class PenaltyParams(Record, frozen=True):
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


class Violation(Record, frozen=True):
    kind: str  # non-finite-coefficient | obstacle-crossing | terminal-sandwich
               # | negative-diffusion
    t_index: int
    x_index: int
    t: float
    x: float
    detail: str


class ValidationReport(Record):
    ok: bool
    violations: list = Factory(list)
    f_lipschitz_y: float = 0.0
    f_lipschitz_z: float = 0.0
    warnings: list = Factory(list)
    plan: RunPlan | None = None  # the RunPlan of validate_problem's tables

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
    gives the tables at a grid's reported steps a block of rows at a time.

    The driver is split (``expr.split``) into a residual tree in y and z and
    its maximal subtrees free of both, which are fields like the others,
    named by ``driver_fields``; ``f`` evaluates the residual on their values
    at one time.
    """

    def __init__(self, spec, x):
        self.x = np.asarray(x, dtype=float)
        self.driver, self.subtrees = ex.split(spec.f, ("y", "z"))
        self.driver_fields = tuple("_k%d" % i for i in range(len(self.subtrees)))
        self.exprs = {name: getattr(spec, name) for name in _FINITE_FIELDS}
        self.exprs.update(zip(self.driver_fields, self.subtrees))
        self.fields = {}  # name -> compiled field in t, compiled at its first use
        self._driver = ex.compile_expr(self.driver)
        self._bind = {}  # the driver's bindings, rebound by every call of f
        self.static = {}  # name -> row of a t-free field
        for name, e in self.exprs.items():
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
            if name not in self.fields:
                self.fields[name] = ex.compile_expr(self.exprs[name])
            a = self.fields[name](bind)
        return broadcast(a, np.broadcast_shapes(t.shape, self.x.shape)) if column else a

    @property
    def block_rows(self):
        """Rows in a full block of ``blocks``."""
        return max(1, _BLOCK_NODES // self.x.size)

    def blocks(self, names, grid):
        """Yield (times, tables) over the reported steps of ``grid`` in
        backward order, a block of steps at a time.  Step k runs from
        t_{i+1} back to t_i, i = n_t-1-k, and both solvers read its
        coefficients at t_i: times is the 1-D array of the block's t_i and
        tables[k] is self(names[k], times[:, None]), whose row r is
        self(names[k], times[r]) bitwise.

        A block holds about _BLOCK_NODES nodes per field, and at least one
        step; only one block's times and tables exist at a time.  A block in
        which a field is undefined is cut to its first step, so the error
        raises only after the steps before it were yielded, as it would in a
        step-by-step evaluation.
        """
        k = 0
        while k < grid.n_t:
            times = grid.dt * (grid.n_t - 1 - np.arange(k, min(k + self.block_rows, grid.n_t)))
            try:
                tables = [self(name, times[:, None]) for name in names]
            except ValueError:
                times = times[:1]
                tables = [self(name, times[:, None]) for name in names]
            yield times, tables
            k += len(times)

    @property
    def reads_z(self):
        """Whether the driver reads z; if not, ``f`` may take None for it."""
        return "z" in ex.variables(self.driver)

    def f(self, ks, y, z):
        """The driver at y and z, where ``ks`` holds the values of the
        ``driver_fields`` at one time (a row of each table, say); a driver
        free of some arguments may come back with a smaller shape that
        broadcasts against y, or as a scalar."""
        bind = self._bind
        bind["y"], bind["z"] = y, z
        bind.update(zip(self.driver_fields, ks))
        try:
            return self._driver(bind)
        except ex.DomainError as err:
            # name the node as spec.f reads it
            raise ex.DomainError(err.message, ex.join(err.node, self.subtrees)) from None


def broadcast(a, shape):
    """``a`` broadcast to ``shape`` as a view, or ``a`` itself if it has
    that shape already: np.broadcast_to costs a few microseconds even then."""
    return a if a.shape == shape else np.broadcast_to(a, shape)


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
    coeffs = Coefficients(spec, x)
    t = np.linspace(0.0, t_max, 5)[:, None]
    ks = [coeffs(name, t)[:, :, None, None] for name in coeffs.driver_fields]
    y = np.broadcast_to(np.array([-2.0, 0.0, 2.0])[:, None], (5, np.size(x), 3, 3))
    return np.broadcast_to(coeffs.f(ks, y + dy, y.swapaxes(2, 3) + dz), y.shape)


class RunPlan(Record, frozen=True):
    """The maxima of sigma, b and l on a reporting grid that a run's step
    sizes and margins read: the PDE's substeps (``pde.substeps``), the
    lattice's ghost margin (``lattice.ghost_cells``) and the contamination
    cone.  ``validate_problem`` builds it from the tables it evaluates, so a
    run evaluates sigma, b and l on the whole grid once.

    sigma_high  the band's upper endpoint
    sigma2      max sigma^2 over the rows t < T, the times a PDE step reads
    pde_drift   max |2 l sigma_high^2 + b| over the rows t < T
    sigma       max |sigma| over every row
    drift       per band endpoint (low, high), max |b + l sig^2| over every row

    Each is the maximum of the same elementwise values that a table of the
    whole grid, or of its rows t < T, gives, so it is that table's maximum
    bit for bit.
    """
    sigma_high: float
    sigma2: float
    pde_drift: float
    sigma: float
    drift: tuple

    @classmethod
    def of(cls, spec, grid, tables=None):
        """The plan of ``spec`` on ``grid`` from ``tables``, sigma, b and
        l at the column ``grid.t[:, None]``, or from tables evaluated here."""
        if tables is None:
            coeffs = Coefficients(spec, grid.x)
            tables = [coeffs(name, grid.t[:, None]) for name in ("sigma", "b", "l")]
        # tables free of t are cut to one row, which then stands for the
        # rows t < T that a PDE step reads as well
        sv, bv, lv = t_free_rows(*tables)
        steps = slice(0, max(1, len(sv) - 1))
        band = spec.band
        hi2 = band.sigma_high ** 2
        buf = np.empty(sv.shape)
        at_steps = buf[steps]
        # the maxima are of the values the solvers' formulas give, not
        # warnings about them
        with np.errstate(over="ignore", invalid="ignore"):
            sigma2 = float(np.max(np.square(sv[steps], out=at_steps)))
            np.multiply(2.0, lv[steps], out=at_steps)
            at_steps *= hi2
            at_steps += bv[steps]
            pde_drift = float(np.max(np.abs(at_steps, out=at_steps)))
            sigma = float(np.max(np.abs(sv, out=buf)))
            drift = []
            for sig in (band.sigma_low, band.sigma_high):
                np.multiply(lv, sig ** 2, out=buf)
                buf += bv
                drift.append(float(np.max(np.abs(buf, out=buf))))
        return cls(band.sigma_high, sigma2, pde_drift, sigma, tuple(drift))


def validate_problem(spec: ProblemSpec, grid: Grid,
                     kappa_f: float = DEFAULT_KAPPA_F) -> ValidationReport:
    """Check the standing assumptions on the grid.

    Verifies that b, l, sigma, h, h' and phi are finite, h <= h' at every
    node, the terminal sandwich h(T,.) <= phi <= h'(T,.), and sigma >= 0;
    estimates empirical Lipschitz constants of f in (y, z) by sampled
    difference quotients and warns when they exceed the configured kappa_f.
    The report's ``plan`` is the RunPlan of the tables it checks.  Returns
    the violations it finds; an expression undefined at a node it
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

    report.plan = RunPlan.of(spec, grid, [table[name] for name in ("sigma", "b", "l")])

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


def contamination_cone_width(spec: ProblemSpec, grid: Grid, plan=None) -> np.ndarray:
    """Diagnostic cone width sigma_high * max|sigma(t,x)| * sqrt(T - t) per
    slice; the max is read from ``plan``, the RunPlan of (spec, grid), or
    from one built here.  T - t is clamped at 0: the last time dt*n_t can
    round above T, where the cone is 0, not nan."""
    plan = plan if plan is not None else RunPlan.of(spec, grid)
    return plan.sigma_high * plan.sigma * np.sqrt(np.maximum(grid.t_max - grid.t, 0.0))


def uncontaminated_mask(spec: ProblemSpec, grid: Grid, plan=None) -> np.ndarray:
    """Boolean (n_t+1, n_x) mask of nodes outside the boundary cone; ``plan``
    is as in contamination_cone_width."""
    cone = contamination_cone_width(spec, grid, plan)[:, None]
    x = grid.x[None, :]
    return (x >= grid.x_min + cone) & (x <= grid.x_max - cone)
