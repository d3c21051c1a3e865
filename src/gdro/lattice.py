"""Backward induction on a Markov-chain approximation of the controlled SDE.

Each node takes an adversarial maximum of one-step expectations over the two
volatility-band endpoints.  The one-step kernel per control puts mass on the
grid nodes x_{j-k}, x_j, x_{j+k} (plus a one-cell upwind shift for drift)
with weights matching the control's displacement mean exactly and its
variance exactly, so no interpolation bias enters and quadratic slices
propagate without error.  All weights are non-negative, which keeps the
scheme monotone; beyond the domain edges probes clamp to the edge value
(constant extrapolation).

Sweeps run on an internally widened x-grid (both band endpoints' drift
reach plus a few adversarial standard deviations, from the maxima of the
run plan, gcore.RunPlan) so edge clamping cannot pollute the reported
window; the returned fields cover the requested grid.

One sweep advances a batch of cells through one backward time loop.  A cell
is a set of penalties plus a constant shift of the lower obstacle h; the
kernel, the coefficients and the ghost margin depend only on the problem,
the grid and t, so the cells share them and differ only in u, the penalties
and h.  A batched field equals the cell's single sweep bitwise.

The coefficients sigma, b, l, h and h', and the driver's subtrees free of y
and z, come from tables evaluated once per block of time rows
(``Coefficients.blocks``), and each endpoint's kernel (drift weight,
diffusion weight and gather indices) is built once per block from them.  A
step then only gathers and combines, reading row r of each kernel table,
and evaluates the rest of the driver on a row of those tables.  It writes
each output of the whole batch with one assignment into per-block buffers.

A Batch says what the sweep keeps.  Once per block, the buffers are copied
into the fields of the cells it keeps (a run's main cell), whose z is formed
from the block's sigma table, and reduced, for
the ladder cells and the probes, to what a ladder row or a probe gap
reads (CellSummary): maxima over the nodes, and a ladder cell's two asc
sums over t, which run backward in t with the sweep.  So a ladder cell costs
a few rows of nodes, not a field, and a run's main cell, probes and ladders
are one batch at every grid.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .gcore import (EXPLICIT, NODEWISE_IMPLICIT, DEFAULT_KAPPA_F, PROJECTION,
                    Coefficients, Grid, PenaltyParams, ProblemSpec, RunPlan, StabilityError,
                    broadcast, first_true, obstacle_fields, t_free_rows, uncontaminated_mask)
from .record import Record
from .scheme import (LadderRow, NonFiniteField, ObstacleStep, SolutionField, central_diff,
                     ceil_eps, obstacle_update, strictly_ascending, z_field)

#: widened-domain margin, in adversarial diffusive standard deviations
MARGIN_SIGMAS = 6.0
#: largest allowed one-cell upwind drift weight |mu|/dx per step
MAX_DRIFT_WEIGHT = 0.5
#: the coefficient fields the one-step kernel depends on
_KERNEL_FIELDS = ("sigma", "b", "l")


class _Kernel(Record, frozen=True):
    """One band endpoint's one-step kernel at a set of nodes, one row per
    time: the drift weight s = |mu|/dx, the diffusion weight p, and the
    nodes the mass moves to (up and dn at the stencil span, drift_to one
    cell in the direction of mu), clamped to the lattice."""
    s: np.ndarray
    p: np.ndarray
    up: np.ndarray
    dn: np.ndarray
    drift_to: np.ndarray


def _kernels(sv, bv, lv, idx, band, dt, dx, n_nodes, t, x):
    """The kernels of the low and high band endpoint from coefficient tables
    whose rows are at the times ``t`` and whose columns are at the nodes
    ``idx``, with coordinates ``x``.

    Returns (kernels, error).  The kernels cover the rows before the first
    row where a drift weight exceeds MAX_DRIFT_WEIGHT, and ``error`` is the
    StabilityError naming that row's first such node (None if no row has
    one).  Rows from that one on are not built.  Tables that are broadcast
    views of one row (fields free of t, see Coefficients) give a kernel
    built from that row and broadcast back to every row.
    """
    n_rows = len(t)
    sv, bv, lv = t_free_rows(sv, bv, lv)
    endpoints = (band.sigma_low, band.sigma_high)
    mus = [(bv + lv * sig ** 2) * dt for sig in endpoints]
    weights = [np.abs(mu) / dx for mu in mus]
    worst = np.fmax(*weights)
    node = first_true(worst > MAX_DRIFT_WEIGHT)
    error = None
    if node is not None:
        r, j = node
        error = StabilityError(
            "drift displacement per step exceeds %.2g cells at t=%.9g x=%.9g: "
            "|mu|/dx = %.6g > %.2g; refine the time grid"
            % (MAX_DRIFT_WEIGHT, t[r], x[j], worst[r, j], MAX_DRIFT_WEIGHT))
        n_rows = r
        sv, mus, weights = sv[:r], [mu[:r] for mu in mus], [s[:r] for s in weights]
    kernels = []
    for sig, mu, s in zip(endpoints, mus, weights):
        variance = (sig * sv) ** 2 * dt
        span = np.sqrt(variance / (1.0 - s)) / dx
        k = np.maximum(1, ceil_eps(span).astype(np.int64))
        kernels.append(_Kernel(*(broadcast(a, (n_rows, idx.size)) for a in (
            s, variance / (2.0 * (k * dx) ** 2),
            np.minimum(idx + k, n_nodes - 1), np.maximum(idx - k, 0),
            np.minimum(np.maximum(idx + np.where(mu >= 0, 1, -1), 0), n_nodes - 1)))))
    return kernels, error


def _endpoint_expectation(u_next, here, kernel, r):
    """One-step expectation of u_next under row r of one endpoint's kernel,
    where ``here`` is u_next at the kernel's nodes (one row per cell of a
    batch, or one 1-D row).  The weights are read as (1, nodes) rows, so a
    one-cell batch meets only operands of its own shape; the result has at
    least two dimensions."""
    up = u_next.take(kernel.up[r], axis=-1)
    dn = u_next.take(kernel.dn[r], axis=-1)
    shifted = u_next.take(kernel.drift_to[r], axis=-1)
    p, s = kernel.p[r:r + 1], kernel.s[r:r + 1]
    # delta form: constant slices propagate with zero rounding error
    return here + p * ((up - here) + (dn - here)) + s * (shifted - here)


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
    kernels, error = _kernels(*(coeffs(name, t)[None, idx] for name in _KERNEL_FIELDS), idx,
                              spec.band, grid.dt, grid.dx, grid.n_x, [t], grid.x[idx])
    if error is not None:
        raise error
    here = u_next.take(idx)
    e_low, e_high = (_endpoint_expectation(u_next, here, k, 0)[0] for k in kernels)
    value = np.maximum(e_low, e_high)
    choice = (e_high > e_low).astype(np.int8)  # ties resolve to the low endpoint
    defects = np.stack([e_low - value, e_high - value])
    if scalar:
        return float(value[0]), int(choice[0]), (float(defects[0, 0]), float(defects[1, 0]))
    return value, choice, defects


def ghost_cells(plan, grid):
    """Ghost-margin width: either endpoint's drift reach plus MARGIN_SIGMAS
    deviations, from the maxima of ``plan`` (a gcore.RunPlan)."""
    reach = (max(plan.drift) * grid.t_max
             + MARGIN_SIGMAS * plan.sigma_high * plan.sigma * np.sqrt(grid.t_max))
    cells = ceil_eps(reach / grid.dx)
    if not cells <= 200_000:
        raise StabilityError("widened lattice domain would need %.0f ghost cells" % cells)
    return int(cells)


class SweepCell(Record, frozen=True):
    """One member of a batched sweep: its penalties, and a constant added to
    the lower obstacle h (an ε-probe's perturbation)."""
    penalties: PenaltyParams
    h_shift: float = 0.0


def _ladder_cell(n, m, penalty_mode, kappa_f):
    """The ladder cell (n, m), or the ValueError of its invalid penalties."""
    try:
        return SweepCell(PenaltyParams(n, m, penalty_mode, kappa_f))
    except ValueError as err:
        return err


class Ladder(Record, frozen=True):
    """A ladder of penalized sweeps: per m in ``m_list``, the column of the
    cells (n, m), n in ``n_list``, each built once into ``columns``.  Each
    column is ordered in n; a reflected ladder (m_list (PROJECTION,)) also
    measures each rung's z gap to its finest rung, and any other ladder is
    ordered in m as well."""
    n_list: tuple
    m_list: tuple
    penalty_mode: str
    kappa_f: float

    def __post_init__(self):
        n_list, m_list = tuple(self.n_list), tuple(self.m_list)
        vars(self).update(n_list=n_list, m_list=m_list, columns=tuple(
            tuple(_ladder_cell(n, m, self.penalty_mode, self.kappa_f) for n in n_list)
            for m in m_list))

    @property
    def reflected(self):
        return self.m_list == (PROJECTION,)


class Batch(tuple):
    """The distinct cells of one sweep, as a tuple, and what the sweep keeps
    of them: the SolutionField of each cell in ``keep``, and the reductions
    the ``ladders`` and the ``probes``, pairs (base, probe), read (see
    CellSummary).  ``plan`` is the gcore.RunPlan of the sweep's (spec,
    grid), if the caller has one; else the sweep builds it."""

    def __new__(cls, cells, keep=(), probes=(), ladders=(), plan=None):
        batch = super().__new__(cls, cells)
        batch.keep, batch.probes, batch.ladders = tuple(keep), tuple(probes), tuple(ladders)
        batch.plan = plan
        return batch

    @classmethod
    def of(cls, ladders=(), keep=(), probes=(), plan=None):
        """The batch of the cells ``keep``, the probes' cells and the valid
        cells of ``ladders``, in that order, each once."""
        cells = [*keep, *(c for pair in probes for c in pair),
                 *(c for ladder in ladders for column in ladder.columns for c in column
                   if isinstance(c, SweepCell))]
        return cls(dict.fromkeys(cells), keep, probes, ladders, plan)

    def only(self, cells):
        """This batch restricted to ``cells``."""
        return Batch(cells, self.keep, self.probes, self.ladders, self.plan)


class CellSummary(Record):
    """What a Batch sweep keeps of one cell.

    field       its SolutionField if the batch keeps it, else None
    bad         (t_index, x_index) of its first non-finite u, as
                require_finite finds it (None if finite, or if the batch
                reads no reductions)
    violations  (sup (h - u)^+, sup (u - h')^+) of a ladder cell
    asc         asc_residuals of a ladder cell
    gaps        (kind, other cell) -> gap: "order" sup (u - u_other)^+,
                "z" the masked sup |z - z_other| of a reflected rung, and
                "probe" sup |u - u_other| of a probe's base
    """
    field: SolutionField | None
    bad: tuple | None
    violations: tuple | None
    asc: tuple | None
    gaps: dict


class _Reductions:
    """The maxima and sums a Batch asks of its cells ``live``, taken one
    block of time slices at a time.

    The ordering pairs are each ladder column's neighbouring rungs, and each
    cell against the same n in the previous m-column, both live; the z pairs
    are each live rung of a reflected column against its finest live rung.
    Every quantity is a running one: maxima over the slices, and per ladder
    cell and node the sums over t of the asc products (u - h)*a_plus and
    (h' - u)*a_minus, which add the slices one at a time backward in t, as
    asc_residuals does, whatever the block size.
    """

    def __init__(self, spec, grid, live, batch, plan):
        self.row = row = {c: b for b, c in enumerate(live)}
        ladder, order, z = {}, {}, {}  # dicts as ordered sets
        for lad in batch.ladders:
            columns = [[c if isinstance(c, SweepCell) and c in row else None for c in column]
                       for column in lad.columns]
            for j, column in enumerate(columns):
                for k, c in enumerate(column):
                    if c is None:
                        continue
                    ladder[c] = None
                    if k and column[k - 1] is not None:
                        order[c, column[k - 1]] = None
                    if j and columns[j - 1][k] is not None:
                        order[columns[j - 1][k], c] = None
                valid = [c for c in column if c is not None]
                if lad.reflected and valid:
                    z.update(((c, valid[-1]), None) for c in valid)
        probe = list(dict.fromkeys((a, b) for a, b in batch.probes if a in row and b in row))
        self.ladder = list(ladder)
        self.pairs = {"order": list(order), "z": list(z), "probe": probe}
        self.active = bool(ladder or probe)
        self.bad = [None] * len(live)
        self.max = {kind: np.full(len(pairs), -np.inf) for kind, pairs in self.pairs.items()}
        self.index = {kind: [np.array([row[p[s]] for p in self.pairs[kind]], dtype=np.intp)
                             for s in (0, 1)] for kind in ("order", "probe")}
        self.cols = np.array([row[c] for c in ladder], dtype=np.intp)
        if ladder:
            self.h, self.hp = obstacle_fields(spec, grid)
            self.plus, self.minus = np.zeros((2, len(ladder), grid.n_x))
            self.low, self.up = np.full(len(ladder), -np.inf), np.full(len(ladder), -np.inf)
        if z:
            # z of the cells in a z pair, which index_z indexes
            zcells = {c: k for k, c in enumerate(dict.fromkeys(c for pair in z for c in pair))}
            self.zcells = np.array([row[c] for c in zcells], dtype=np.intp)
            self.index_z = [np.array([zcells[p[s]] for p in z], dtype=np.intp) for s in (0, 1)]
            self.mask = uncontaminated_mask(spec, grid, plan)
            self.dx = grid.dx

    def add(self, u, a_plus, a_minus, top, sigma):
        """Reduce the slices top-1, top-2, ... of the batch, which rows 0, 1,
        ... of the (rows, cells, nodes) arrays hold, and of ``sigma``, the
        (rows, nodes) table of sigma at those slices."""
        rows = slice(top - len(u), top)

        def at(table):  # a grid table's slices in the rows' order, per cell
            return table[rows][::-1, None]

        bad = ~np.isfinite(u)
        if bad.any():
            for b in np.flatnonzero(bad.any(axis=(0, 2))):
                if self.bad[b] is None:  # else a later slice was bad
                    r = int(np.flatnonzero(bad[:, b].any(axis=1))[0])
                    self.bad[b] = (top - 1 - r, int(np.argmax(bad[r, b])))
        if self.ladder:
            # the ladder cells' u is gathered anew for each difference, so
            # that no copy of it stays alive beside them
            h, hp = at(self.h), at(self.hp)
            self.low = np.maximum(self.low, _sup_positive(h - u[:, self.cols]))
            self.up = np.maximum(self.up, _sup_positive(u[:, self.cols] - hp))
            for acc, d, a in ((self.plus, u[:, self.cols] - h, a_plus),
                              (self.minus, hp - u[:, self.cols], a_minus)):
                d *= a[:, self.cols]
                # numpy sums a leading axis row by row: latest slice first
                d[0] += acc
                d.sum(axis=0, out=acc)
        # each gap is reduced before the next one's arrays exist
        if self.pairs["order"]:
            hi, lo = self.index["order"]
            d = u[:, hi]
            d -= u[:, lo]
            self._max("order", _sup_positive(d))
        if self.pairs["z"]:
            z = sigma[:, None] * central_diff(u[:, self.zcells], self.dx)
            a, b = self.index_z
            d = np.where(at(self.mask), z[:, a] - z[:, b], 0.0)
            self._max("z", np.abs(d, out=d).max(axis=(0, 2)))
        if self.pairs["probe"]:
            a, b = self.index["probe"]
            d = u[:, a]
            d -= u[:, b]
            self._max("probe", np.abs(d, out=d).max(axis=(0, 2)))

    def _max(self, kind, gaps):
        self.max[kind] = np.maximum(self.max[kind], gaps)

    def summaries(self, fields):
        """A CellSummary per live cell, with ``fields`` {row: field} of the
        kept rows."""
        gaps = [{} for _ in self.bad]
        for kind, pairs in self.pairs.items():
            for (a, b), gap in zip(pairs, self.max[kind].tolist()):
                gaps[self.row[a]][kind, b] = gap
        ladder = {self.row[c]: k for k, c in enumerate(self.ladder)}
        out = []
        for b, bad in enumerate(self.bad):
            k = ladder.get(b)
            if k is None:
                out.append(CellSummary(fields.get(b), bad, None, None, gaps[b]))
                continue
            asc = tuple(float(np.max(np.abs(acc[k]))) for acc in (self.plus, self.minus))
            out.append(CellSummary(fields.get(b), bad, (float(self.low[k]), float(self.up[k])),
                                   asc, gaps[b]))
        return out


def _sup_positive(d):
    """sup d^+ per cell of a (rows, cells, nodes) array, overwriting ``d``."""
    return np.maximum(d, 0.0, out=d).max(axis=(0, 2))


def _run_sweep(spec, grid, cells):
    """Sweep ``cells``, a Batch or a tuple of cells whose fields are all
    kept, through one backward time loop.

    Returns, per cell, its CellSummary (for a tuple, its SolutionField) or
    a StabilityError: that of its own step-size check, else that of the
    ghost margin or the drift weight, which depend on (spec, grid) alone and
    so fail every cell alike.  Any other error raises for the whole batch.
    """
    batch = cells if isinstance(cells, Batch) else Batch(cells, cells)
    results = {}
    for cell in batch:
        try:
            cell.penalties.check_explicit_cfl(grid.dt)
        except StabilityError as err:
            results[cell] = err
    live = [c for c in batch if c not in results]
    if live:
        try:
            results.update(_sweep_live(spec, grid, live, batch))
        except StabilityError as err:
            results.update(dict.fromkeys(live, err))
    if batch is not cells:
        results = {c: r.field if isinstance(r, CellSummary) else r for c, r in results.items()}
    return [results[c] for c in cells]


def _sweep_live(spec, grid, cells, batch):
    """(cell, CellSummary) pairs of ``cells``, which pass their step-size
    checks, swept through one backward time loop as members of ``batch``."""
    dt, dx = grid.dt, grid.dx

    # cells sharing a penalty mode and lower projection take adjacent rows,
    # so each such group is one obstacle_update on a slice of the batch
    def mode(cell):
        return cell.penalties.penalty_mode, cell.penalties.project_lower
    live = sorted(cells, key=mode)

    # one value per member, as a (B, 1) column, or as a 0-d array for a
    # group of one, which then meets only (1, nodes) rows: numpy's
    # same-shape path, not its broadcasting one
    def column(values):
        a = np.array(values, dtype=float)
        return a.reshape(()) if a.size == 1 else a[:, None]

    groups, lo = [], 0
    for key, members in groupby(live, key=mode):
        members = list(members)
        rows = slice(lo, lo + len(members))
        lo += len(members)
        # adding -0.0 leaves every h, -0.0 included, bitwise unchanged
        groups.append((rows, ObstacleStep(dt, column([c.penalties.n_upper for c in members]),
                                          column([c.penalties.m_value for c in members]), *key),
                       column([c.h_shift or -0.0 for c in members])))

    plan = batch.plan if batch.plan is not None else RunPlan.of(spec, grid)
    mc = ghost_cells(plan, grid)
    nxe = grid.n_x + 2 * mc
    # core coordinates must match grid.x bitwise so clamped nodes satisfy
    # u == h exactly; hence x_min + dx*(j - mc), not (x_min - mc*dx) + dx*j
    xg = grid.x_min + dx * (np.arange(nxe) - mc)
    core = slice(mc, nxe - mc)
    coeffs = Coefficients(spec, xg)
    band = spec.band

    # each kept cell's field owns its arrays, so a consumer keeping one
    # field does not keep the batch; the field of kept row b stores the
    # core of row b
    keep = set(batch.keep)
    kept = [b for b, c in enumerate(live) if c in keep]
    outs = [SolutionField.empty(grid) for _ in kept]
    reductions = _Reductions(spec, grid, live, batch, plan)
    u = np.broadcast_to(coeffs("phi"), (len(live), nxe)).copy()
    # sigma at T on the reporting grid; at the steps' t_i the tables' core
    # columns give it, as x_min + dx*(j - mc) is grid.x there bitwise
    sigma_end = Coefficients(spec, grid.x)("sigma", grid.t[-1])
    for b, out in zip(kept, outs):
        out.u[grid.n_t] = u[b, core]
        out.z[grid.n_t] = z_field(sigma_end, grid, out.u[grid.n_t])
    if reductions.active:
        zero = np.zeros((1, len(live), grid.n_x))  # no increments at T
        reductions.add(u[None, :, core], zero, zero, grid.n_t + 1, sigma_end[None])

    # the coefficients and kernels come in blocks of time rows
    # k = n_t-1-i, in loop order; a block's kernels cover the rows before
    # its first failing one, whose error is raised once they are swept.  A
    # step writes the batch's core into the buffers, row r of a block for
    # slice i0-1-r, which are copied into each kept field and reduced once
    # per block; the defect and the choice, which are not reduced, are made
    # for the kept rows alone.  The obstacle rows of a group are made per
    # step: as block tables, with a cell axis, they would hold several times
    # a coefficient table
    idx = np.arange(nxe)
    reads_z = coeffs.reads_z  # a driver free of z gets None, not a product per step
    mine = None if len(kept) == len(live) else np.array(kept, dtype=np.intp)
    names = ("u", "a_plus", "a_minus", "k_defect", "sigma_choice")
    rows_per_block = min(grid.n_t, coeffs.block_rows)
    bufs = [np.empty((rows_per_block, len(kept) if name in names[3:] else len(live), grid.n_x),
                     dtype=np.int8 if name == "sigma_choice" else float) for name in names]
    u_buf, plus_buf, minus_buf, defect_buf, choice_buf = bufs
    i0 = grid.n_t
    for times, (sv, bv, lv, hv, hpv, *ks) in coeffs.blocks(
            _KERNEL_FIELDS + ("h", "h_prime") + coeffs.driver_fields, grid):
        kernels, error = _kernels(sv, bv, lv, idx, band, dt, dx, nxe, times, xg)
        n_rows = len(kernels[0].s)
        for r in range(n_rows):
            # rows of the tables as (1, nodes) slices, as in _endpoint_expectation
            row = slice(r, r + 1)
            z_tilde = sv[row] * central_diff(u, dx) if reads_z else None
            e_low, e_high = (_endpoint_expectation(u, u, k, r) for k in kernels)
            c = np.maximum(e_low, e_high)
            base = c + dt * coeffs.f([a[row] for a in ks], c, z_tilde)
            parts = [obstacle_update(base[rows], c[rows], hv[row] + shift, hpv[row], step)
                     for rows, step, shift in groups]
            u, a_plus, a_minus = (parts[0] if len(parts) == 1 else
                                  [np.concatenate(a) for a in zip(*parts)])
            u_buf[r] = u[:, core]
            plus_buf[r] = a_plus[:, core]
            minus_buf[r] = a_minus[:, core]
            if mine is not None:
                e_low, e_high, c = e_low[mine], e_high[mine], c[mine]
            defect_buf[r] = np.minimum(e_low - c, e_high - c)[:, core]
            choice_buf[r] = (e_high > e_low)[:, core]  # ties resolve to the low endpoint
        sigma = sv[:n_rows, core]
        rows = slice(i0 - n_rows, i0)
        for q, (b, out) in enumerate(zip(kept, outs)):
            for name, buf, col in zip(names, bufs, (b, b, b, q, q)):
                getattr(out, name)[rows] = buf[:n_rows][::-1, col]
            out.z[rows] = z_field(sigma[::-1], grid, out.u[rows])
        if reductions.active:
            reductions.add(u_buf[:n_rows], plus_buf[:n_rows], minus_buf[:n_rows], i0, sigma)
        i0 -= n_rows
        if error is not None:
            raise error
    return zip(live, reductions.summaries(dict(zip(kept, outs))))


def sweep_cells(spec: ProblemSpec, grid: Grid, cells) -> list:
    """Per cell, what _run_sweep returns for it, or the error that stopped
    its sweep.

    ``cells`` is a Batch, or cells whose fields are all kept; their distinct
    cells go through one batched sweep.  A StabilityError of the whole
    batch is every cell's own.  If the sweep raises a ValueError, each cell
    is swept on its own, so an error only some cells' values raise (a
    driver outside its domain at one cell's y) stays with those cells; the
    cells of a Batch that survive are then swept again as one batch, so that
    the reductions between them exist.
    """
    planned = isinstance(cells, Batch)
    todo = cells if planned else tuple(dict.fromkeys(cells))
    if not todo:
        return []
    try:
        known = dict(zip(todo, _run_sweep(spec, grid, todo)))
    except ValueError as err:
        if len(todo) == 1:
            known = dict.fromkeys(todo, err)
        else:
            known = {c: sweep_cells(spec, grid, todo.only([c]) if planned else [c])[0]
                     for c in todo}
            alive = [c for c in todo if not isinstance(known[c], Exception)]
            if planned and len(alive) > 1:
                known.update(zip(alive, _run_sweep(spec, grid, todo.only(alive))))
    return [known[c] for c in cells]


def _field_or_raise(result) -> SolutionField:
    """A sweep_cells result as a field; an error is raised."""
    if isinstance(result, Exception):
        raise result
    return result


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
    return _field_or_raise(sweep_cells(spec, grid, [SweepCell(penalties)])[0])


def reflected_sweep(spec: ProblemSpec, grid: Grid, n_upper: float,
                    penalty_mode: str = EXPLICIT,
                    kappa_f: float = DEFAULT_KAPPA_F) -> SolutionField:
    """Sweep with exact lower reflection and a penalized upper constraint.

    The projection max(h, .) is applied after the upper-penalty update, so
    pushing increments a_plus are nonzero only at nodes sitting exactly on
    the lower obstacle (the discrete minimality property).
    """
    return penalized_sweep(spec, grid, PenaltyParams(
        n_upper=n_upper, m_lower=PROJECTION, penalty_mode=penalty_mode, kappa_f=kappa_f))


def _gap(swept, hi, lo):
    """The ordering gap sup (u_hi - u_lo)^+ a sweep kept, 0.0 if either
    cell is invalid or failed."""
    summary = swept.get(hi)  # None for the ValueError of invalid penalties
    if not isinstance(summary, CellSummary):
        return 0.0
    return summary.gaps.get(("order", lo), 0.0)


def ladder_column(ladder: Ladder, j: int, swept: dict) -> list:
    """The LadderRows of column ``j`` of ``ladder``, from ``swept``, which
    maps each cell of a Batch holding the ladder to its sweep_cells result.

    A cell with invalid penalties or a failed sweep gets a row holding the
    error; a non-finite cell raises NonFiniteField, the first in n order.
    mono_gap_n is taken against the previous n and mono_gap_m against the
    same n in the previous column, each 0.0 where that cell holds an error
    (or for the first n, the first column); a reflected ladder's mono_gap_m
    is nan and its z_gap is that to its finest valid rung.  A projection
    column is labelled m = inf."""
    m_lower = ladder.m_list[j]
    m = np.inf if m_lower == PROJECTION else m_lower
    column = ladder.columns[j]
    left = ladder.columns[j - 1] if j else None
    results = [swept[c] if isinstance(c, SweepCell) else c for c in column]
    valid = [c for c, r in zip(column, results) if not isinstance(r, Exception)]
    rows = []
    for k, (n, cell, result) in enumerate(zip(ladder.n_list, column, results)):
        if isinstance(result, Exception):
            rows.append(LadderRow(n=n, m=m, error=str(result)))
            continue
        if result.bad is not None:
            raise NonFiniteField({"n": n, "m": m}, *result.bad)
        row = LadderRow(n=n, m=m, mono_gap_n=_gap(swept, cell, column[k - 1]) if k else 0.0)
        row.sup_lower_violation, row.sup_upper_violation = result.violations
        row.asc_plus, row.asc_minus = result.asc
        if ladder.reflected:
            row.z_gap = result.gaps["z", valid[-1]]
        else:
            row.mono_gap_m = _gap(swept, left[k], cell) if j else 0.0
        rows.append(row)
    return rows


class DoubleLadderReport(Record):
    n_list: list
    m_list: list
    cells: list  # rows indexed by n, columns by m


def double_report(ladder: Ladder, swept: dict) -> DoubleLadderReport:
    """The DoubleLadderReport of ``ladder`` from ``swept`` (see
    ladder_column); the columns raise NonFiniteField in m order."""
    columns = [ladder_column(ladder, j, swept) for j in range(len(ladder.m_list))]
    return DoubleLadderReport(n_list=list(ladder.n_list), m_list=list(ladder.m_list),
                              cells=[[column[k] for column in columns]
                                     for k in range(len(ladder.n_list))])


def double_ladder(spec: ProblemSpec, grid: Grid, n_list, m_list,
                  penalty_mode: str = NODEWISE_IMPLICIT,
                  kappa_f: float = DEFAULT_KAPPA_F) -> DoubleLadderReport:
    """Penalized sweeps over the (n, m) product, with ordering diagnostics.

    Every cell is one batched sweep that keeps no field, only each cell's
    ladder row and its gaps to the neighbouring cells in n and in m.
    Per-cell sweep failures are recorded in the cell and the ladder carries
    on; a non-finite field raises NonFiniteField.  Lists must be strictly
    ascending; an empty list gives an empty report.
    """
    n_list = [float(v) for v in n_list]
    m_list = [float(v) for v in m_list]
    if not (strictly_ascending(n_list) and strictly_ascending(m_list)):
        raise ValueError("n_list and m_list must be strictly ascending")
    ladder = Ladder(n_list, m_list, penalty_mode, kappa_f)
    batch = Batch.of([ladder])
    return double_report(ladder, dict(zip(batch, sweep_cells(spec, grid, batch))))
