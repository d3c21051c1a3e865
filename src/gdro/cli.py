"""Config ingestion, run orchestration, and bit-stable CSV/JSON emission.

Usage:
    gdro solve --config run.json [--method pde|lattice|both] [--assert]
               [--out DIR] [--threads N]

Exit codes: 0 success, 2 input validation failure (including an expression
undefined at a node it is evaluated on) or an output directory that cannot
be made or written, 3 step-size/stability rejection or a non-finite solved
field, 4 assertion-suite failure under --assert.
Diagnostics go to stderr as key=value lines; numeric output files are
written with 17 significant digits so doubles round-trip exactly and reruns
are byte-identical.  ``--threads`` is accepted for compatibility and has no
effect: each solver is single-threaded.  On a large enough grid, with two
usable CPUs and ``os.fork``, a run sweeps the lattice's main batch in a
forked child while the parent solves the PDE; on a smaller one, from
_LANE_NODES nodes, the solves and then the field CSVs run in two lanes.
Every schedule runs through ``_run_jobs``, which reports the in-process
error and runs every job in-process where it cannot fork, so outputs, exit
codes and diagnostics are those of the in-process run.  The PDE's step-size
caps are checked from validation's run plan before either solver starts, so
a run they reject forks no child.

``main`` registers ``gc.freeze`` with ``atexit``, once per process.  At
interpreter exit it moves every object still alive, mostly what numpy, the
standard library and gdro built at import, to the permanent generation, so
finalization neither traverses nor frees that object graph one object at a
time; the OS takes the memory back.  Garbage collection during and after
``main`` in the calling process, output bytes, exit codes and stderr
records are unchanged: every file is closed before ``main`` returns.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import pickle
import signal
import sys
import tempfile
from contextlib import ExitStack
from itertools import compress

import numpy as np

from . import catalog as cat
from . import expr as ex
from .convergence import (ConvergenceReport, asc_residuals, asc_residuals_global,
                          interior_gap, monotone_report)
from .gcore import (PROJECTION, Grid, PenaltyParams, ProblemSpec, StabilityError,
                    contamination_cone_width, obstacle_fields, validate_problem)
from .lattice import (Batch, DoubleLadderReport, Ladder, SweepCell, _field_or_raise,
                      double_report, sweep_cells)
from .pde import (PdeSchemeParams, complementarity_residual,
                  solve_double_obstacle_direct, solve_penalized_pde, substeps)
from .record import Factory, Record, replace
from .scheme import NonFiniteField, require_finite, strictly_ascending

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STABILITY = 3
EXIT_ASSERT = 4

METHODS = ("pde", "lattice", "both")
EMITS = ("field", "report", "residual")

_PROBLEM_REQUIRED = ("horizon", "x_min", "x_max", "sigma_low", "sigma_high")
_PROBLEM_EXPRS = ("b", "l", "sigma", "f", "phi", "h", "h_prime")
#: the variables each coefficient may take (ProblemSpec)
_EXPR_VARIABLES = {"b": "tx", "l": "tx", "sigma": "tx", "f": "txyz", "phi": "x",
                   "h": "tx", "h_prime": "tx"}


class ConfigError(ValueError):
    """Schema violation; ``pointer`` is the JSON pointer to the bad value."""

    def __init__(self, message, pointer):
        super().__init__(message, pointer)
        self.message, self.pointer = message, pointer

    def __str__(self):
        return "%s at %s" % (self.message, self.pointer or "/")


def _diag(record, **fields):
    parts = [record] + ["%s=%s" % (k, v) for k, v in fields.items()]
    print(" ".join(parts), file=sys.stderr)


class RunConfig(Record):
    spec: ProblemSpec
    grid: Grid
    method: str
    penalties: PenaltyParams
    ladders: dict
    output_dir: str
    emit: tuple
    entry: object = None  # CatalogEntry when resolved from the catalog


class RunResults(Record):
    grid: Grid
    fields: dict = Factory(dict)   # method -> SolutionField
    direct_field: object = None
    residual_sup: float | None = None
    cross_gap: float | None = None
    ladder_report: ConvergenceReport | None = None
    double_report: DoubleLadderReport | None = None
    m_ladder: list | None = None
    stability_gaps: list = Factory(list)


def _object(value, pointer, known, unknown, expected="expected an object"):
    """``value`` if it is a config object whose keys are all in ``known``;
    else ConfigError ``expected`` at ``pointer``, or ``unknown`` at the
    first unknown key's own pointer."""
    if not isinstance(value, dict):
        raise ConfigError(expected, pointer)
    for key in value:
        if key not in known:
            raise ConfigError(unknown, "%s/%s" % (pointer, key))
    return value


def _require(obj, key, pointer):
    if key not in obj:
        raise ConfigError("missing required key", pointer)
    return obj[key]


def _as_number(value, pointer):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", pointer)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the doubles
        raise ConfigError("expected a number within the range of a double",
                          pointer) from None


def _as_finite(value, pointer):
    number = _as_number(value, pointer)
    if not math.isfinite(number):
        raise ConfigError("expected a finite number", pointer)
    return number


def _as_not_nan(value, pointer):
    number = _as_number(value, pointer)
    if math.isnan(number):
        raise ConfigError("expected a number, not NaN", pointer)
    return number


def _as_int(value, pointer):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", pointer)
    return value


def _parse_problem(value):
    if isinstance(value, str):
        try:
            entry = cat.get_entry(value)
        except KeyError as err:
            raise ConfigError(str(err), "/problem") from None
        return cat.build_spec(entry), entry
    _object(value, "/problem", _PROBLEM_REQUIRED + _PROBLEM_EXPRS + ("name",),
            "unknown problem key", "expected a catalog name or an object")
    kwargs = {}
    for key in _PROBLEM_REQUIRED:
        kwargs[key] = _as_finite(_require(value, key, "/problem/%s" % key),
                                 "/problem/%s" % key)
    for key in _PROBLEM_EXPRS:
        if key in value:
            if not isinstance(value[key], str):
                raise ConfigError("expected an expression string", "/problem/%s" % key)
            kwargs[key] = value[key]
    kwargs["name"] = value.get("name", "inline")
    if not isinstance(kwargs["name"], str):
        raise ConfigError("expected a string", "/problem/name")
    try:
        spec = ProblemSpec.from_strings(**kwargs)
    except ex.ParseError as err:
        raise ConfigError("bad expression: %s" % err, "/problem") from None
    except ValueError as err:
        raise ConfigError(str(err), "/problem") from None
    for key in _PROBLEM_EXPRS:
        extra = sorted(ex.variables(getattr(spec, key)) - set(_EXPR_VARIABLES[key]))
        if extra:
            raise ConfigError("%s may only use %s, not %s" % (
                key, ", ".join(_EXPR_VARIABLES[key]), ", ".join(extra)),
                "/problem/%s" % key)
    return spec, None


def _parse_penalties(value, entry):
    defaults = dict(entry.penalties) if entry is not None else {}
    if value is None:
        return PenaltyParams(**defaults)
    _object(value, "/penalties", ("n_upper", "m_lower", "penalty_mode", "kappa_f"),
            "unknown penalties key")
    merged = dict(defaults)
    if "n_upper" in value:
        merged["n_upper"] = _as_finite(value["n_upper"], "/penalties/n_upper")
    if "m_lower" in value:
        m = value["m_lower"]
        if m != "projection":
            m = _as_finite(m, "/penalties/m_lower")
        merged["m_lower"] = m
    if "penalty_mode" in value:
        merged["penalty_mode"] = value["penalty_mode"]
    if "kappa_f" in value:
        merged["kappa_f"] = _as_finite(value["kappa_f"], "/penalties/kappa_f")
    try:
        return PenaltyParams(**merged)
    except ValueError as err:
        raise ConfigError(str(err), "/penalties") from None


def _parse_ladders(value):
    if value is None:
        return {}
    out = {}
    for key, seq in _object(value, "/ladders", ("n_list", "m_list", "epsilon_list"),
                            "unknown ladders key").items():
        if not isinstance(seq, list):
            raise ConfigError("expected an array", "/ladders/%s" % key)
        out[key] = [_as_not_nan(v, "/ladders/%s/%d" % (key, i))
                    for i, v in enumerate(seq)]
        if key != "epsilon_list" and not strictly_ascending(out[key]):
            raise ConfigError("expected a strictly ascending list", "/ladders/%s" % key)
    return out


#: the most cell-nodes, cells x (n_t+1)*n_x, a run's lattice batch may hold.
#: Its cells are counted before any is built: the main cell, one per
#: eps-probe and one per ladder entry, a repeat or an invalid rung included.
#: A cell whose field the sweep does not keep was measured at about 4.6 bytes
#: per cell-node (double-obstacle-sine at 200x161 with 100 and 300 reflected
#: rungs peaked at 45.4 and 73.9 MiB), so a batch at the cap needs about
#: 0.3 GiB.  A cell also costs about 5.5 KiB whatever its grid (20,000 rungs
#: at 20x3 peaked at 136.5 MiB), so it counts as at least _CELL_NODES_FLOOR,
#: and a batch of such cells at the cap needs about 0.7 GiB
MAX_CELL_NODES = 2 ** 26
_CELL_NODES_FLOOR = 512


def _check_cell_nodes(grid, ladders):
    """Raise ConfigError at /ladders if the run's lattice batch would hold
    more than MAX_CELL_NODES cell-nodes."""
    n, m = (len(ladders.get(key, [])) for key in ("n_list", "m_list"))
    cells = 1 + len(ladders.get("epsilon_list", [])) + n * (1 + m) + m
    nodes = cells * max((grid.n_t + 1) * grid.n_x, _CELL_NODES_FLOOR)
    if nodes > MAX_CELL_NODES:
        raise ConfigError("the run's %d lattice cells need %d cell-nodes (cap %d)"
                          % (cells, nodes, MAX_CELL_NODES), "/ladders")


def parse_config(data) -> RunConfig:
    _object(data, "", ("problem", "grid", "method", "penalties", "ladders", "output_dir", "emit"),
            "unknown key", "config must be a single JSON object")

    spec, entry = _parse_problem(_require(data, "problem", "/problem"))
    gobj = _object(_require(data, "grid", "/grid"), "/grid", ("n_t", "n_x"), "unknown grid key")
    n_t = _as_int(_require(gobj, "n_t", "/grid/n_t"), "/grid/n_t")
    n_x = _as_int(_require(gobj, "n_x", "/grid/n_x"), "/grid/n_x")
    try:
        grid = Grid.for_problem(spec, n_t, n_x)
    except ValueError as err:
        raise ConfigError(str(err), "/grid") from None

    method = data.get("method", "both")
    if method not in METHODS:
        raise ConfigError("expected one of {pde, lattice, both}", "/method")

    penalties = _parse_penalties(data.get("penalties"), entry)
    ladders = _parse_ladders(data.get("ladders"))
    _check_cell_nodes(grid, ladders)

    emit = data.get("emit", ["field", "report"])
    if not isinstance(emit, list) or any(e not in EMITS for e in emit):
        raise ConfigError("expected a subset of {field, report, residual}", "/emit")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("expected a string", "/output_dir")

    return RunConfig(spec=spec, grid=grid, method=method, penalties=penalties,
                     ladders=ladders, output_dir=output_dir, emit=tuple(emit), entry=entry)


def load_config(path) -> RunConfig:
    """Parse a JSON run config; raises ConfigError with a JSON pointer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("invalid JSON: %s" % err, "") from None
    return parse_config(data)


def _fmt(v):
    return "%.17g" % v


#: grid nodes per CSV block, each filled as one template (set by measurement)
_BLOCK_NODES = 1024


def _cells(column):
    """The conversion and ``%`` arguments of a block's float ``column``: its
    one "%.17g" text, which holds no "%", and None where all its bit patterns
    are equal; "%s" and texts where at most half of them are distinct, each
    formatted once by "%.17g"; else "%.17g" and the column itself."""
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if len(distinct) == 1:
        return "%.17g" % column[0], None
    if 2 * len(distinct) > len(bits):
        return "%.17g", column
    texts = "\n".join(["%.17g"] * len(distinct)) % tuple(distinct.view(np.float64).tolist())
    return "%s", np.array(texts.split("\n"), dtype=object)[np.searchsorted(distinct, bits)]


def _write_csv(path, header, blocks):
    """Write a CSV: ``header``, then each block ``(heads, values)``.

    ``heads`` lists the block's slices as ``(lead, keys)``: row r of a slice
    is ``lead + keys[r]`` and the slice's next row of the 2-D array
    ``values``, each entry as "%.17g" (17 significant digits, so every double
    round-trips exactly), all filled into one template per block; a column
    with one value in the block is written into the template as its text.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for heads, values in blocks:
            if not len(values):
                continue
            conversions, columns = zip(*map(_cells, values.T))
            columns = [c for c in columns if c is not None]
            cells = np.empty((len(values), len(columns)), dtype=object)
            for k, column in enumerate(columns):
                cells[:, k] = column
            row = ",".join(conversions) + "\n"
            fh.write("".join(lead + (row + lead).join(keys) + row for lead, keys in heads if keys)
                     % tuple(cells.ravel().tolist()))


def _grid_slices(grid, columns, keep):
    """The ``_write_csv`` blocks of the (n_t+1, n_x) arrays ``columns``: as
    many whole time slices as fit in ``_BLOCK_NODES`` nodes, at least one,
    each slice i led by "t_i," and keyed by "x_j," at the nodes the mask
    ``keep`` marks.  x is formatted once per call and t once per slice; the
    values are gathered one block at a time."""
    x_keys = ["%.17g," % v for v in grid.x.tolist()]
    times = grid.t.tolist()
    step = max(1, _BLOCK_NODES // grid.n_x)
    for i0 in range(0, grid.n_t + 1, step):
        rows = slice(i0, i0 + step)
        values = np.stack([c[rows] for c in columns], axis=-1, dtype=float)
        heads = [("%.17g," % t, list(compress(x_keys, nodes)))
                 for t, nodes in zip(times[rows], keep[rows].tolist())]
        yield heads, values[keep[rows]]


def write_field_csv(path, fld, grid):
    """Write ``t,x,u,z,a_plus,a_minus,k_defect,sigma_choice`` at every node
    of ``fld``, slice by slice in t and in x within a slice."""
    _write_csv(path, ("t", "x", "u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"),
               _grid_slices(grid, (fld.u, fld.z, fld.a_plus, fld.a_minus,
                                   fld.k_defect, fld.sigma_choice),
                            np.ones(fld.u.shape, dtype=bool)))


def write_report_csv(path, ladder_rows, rate_slope):
    """Write one row per ladder row, each ending in the fitted ``rate_slope``
    (nan when there is none), as a single slice with no t/x lead."""
    slope = rate_slope if rate_slope is not None else float("nan")
    values = np.array([(r.n, r.m, r.sup_upper_violation, r.sup_lower_violation,
                        r.mono_violation, r.asc_plus, r.asc_minus, slope)
                       for r in ladder_rows], dtype=float)
    _write_csv(path, ("n", "m", "sup_upper_violation", "sup_lower_violation",
                      "mono_violation", "asc_plus", "asc_minus", "rate_slope"),
               [([("", [""] * len(values))], values)])


def write_residual_csv(path, r_grid, grid):
    """Write ``t,x,r`` at the nodes where the residual ``r_grid`` is not nan."""
    _write_csv(path, ("t", "x", "r"), _grid_slices(grid, (r_grid,), ~np.isnan(r_grid)))


def _ladder_rows(results):
    rows = []
    if results.ladder_report is not None:
        rows.extend(results.ladder_report.rows)
    if results.m_ladder:
        rows.extend(results.m_ladder)
    if results.double_report is not None:
        for cell_row in results.double_report.cells:
            rows.extend(cell_row)
    return rows


def _ladders(penalties, ladders):
    """The run's reflected n-ladder, its double ladder over n_list x m_list
    and its m-ladder, the row (n_upper,) x m_list, each None where the run
    has none."""
    mode, kappa = penalties.penalty_mode, penalties.kappa_f
    n_list, m_list = ladders.get("n_list"), ladders.get("m_list")
    reflected = double = row = None
    if n_list is not None:
        reflected = Ladder(n_list, (PROJECTION,), mode, kappa)
    if m_list is not None:
        if n_list is not None:
            double = Ladder(n_list, m_list, mode, kappa)
        row = Ladder((penalties.n_upper,), m_list, mode, kappa)
    return reflected, double, row


def _probe_gap(swept, base, probe, eps):
    """The probe's output gap sup |u_probe - u_base|; a non-finite probe
    raises NonFiniteField."""
    if swept[probe].bad is not None:
        raise NonFiniteField({"eps": eps}, *swept[probe].bad)
    return swept[base].gaps["probe", probe]


def _m_ladder(row, swept):
    """Rows of the m-ladder ``row``, which the report lists without
    ordering gaps."""
    return [replace(c, mono_gap_n=np.nan, mono_gap_m=np.nan)
            for c in double_report(row, swept).cells[0]]


def _generic_assertions(results, spec, grid, penalties):
    out = []
    for method, fld in sorted(results.fields.items()):
        out.append(cat.AssertionResult(
            "nonnegative-increments-%s" % method,
            bool(np.min(fld.a_plus) >= -1e-12 and np.min(fld.a_minus) >= -1e-12),
            float(min(np.min(fld.a_plus), np.min(fld.a_minus))), 0.0))
        out.append(cat.AssertionResult(
            "defect-sign-%s" % method, bool(np.max(fld.k_defect) <= 0.0),
            float(np.max(fld.k_defect)), 0.0))
    if penalties.project_lower and "lattice" in results.fields:
        ap, _ = asc_residuals(results.fields["lattice"], spec, grid)
        out.append(cat.AssertionResult("pushing-minimality", ap == 0.0, ap, 0.0))
    if results.direct_field is not None:
        h, hp = obstacle_fields(spec, grid)
        u = results.direct_field.u
        sandwich = float(max(np.max(h - u), np.max(u - hp)))
        out.append(cat.AssertionResult("direct-sandwich", sandwich <= 0.0, sandwich, 0.0))
    return out


#: reporting-grid nodes, (n_t+1)*n_x, from which a run's lattice batch is
#: swept in a forked child.  The fork costs CPU time (copied pages, two busy
#: cores) and pays in wall time only once both solves are long; the gate sits
#: above every catalog default grid (at most 80,601 nodes), so those runs
#: sweep their batch in-process
_FORK_NODES = 90_000

#: reporting-grid nodes from which a run below _FORK_NODES takes two lanes
#: where both are long: the lattice batch and the direct PDE in a child
#: beside the penalized PDE, and the lattice field's CSV in a child beside
#: the other output files.  Against in-process runs of gheat-convex that
#: emit field, report and residual, the lanes lost wall time at 861 nodes,
#: broke even at 1,701 and won from 3,321 (40 alternating pairs each,
#: CHANGES.md).  Every catalog default grid is above the gate; the tier-1
#: runs that record a sweep or count forks are below it or emit neither a
#: field nor the residual
_LANE_NODES = 5_000


def _fork_pays(grid, nodes):
    """Whether a run on ``grid`` forks a lane gated at ``nodes``
    reporting-grid nodes (_FORK_NODES or _LANE_NODES): with ``os.fork``,
    two usable CPUs and at least ``nodes`` nodes."""
    if not hasattr(os, "fork") or (grid.n_t + 1) * grid.n_x < nodes:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2


def _in_order(jobs, indices):
    """``{i: jobs[i]()}`` over ``indices``, up to the first job that raises,
    whose Exception stands as its result."""
    results = {}
    for i in indices:
        try:
            results[i] = jobs[i]()
        except Exception as err:  # raised once every process has stopped
            results[i] = err
            break
    return results


def _run_jobs(jobs, child=()):
    """The results of ``jobs``, callables listed in their in-process order;
    those whose index is in ``child`` run in a forked child, the others here.

    Each process runs its jobs in order and stops at its first failing job,
    and the error raised is that of the first failing job in list order, as
    if every job had run here.  The child, which always takes the lattice's
    side, pickles its results into an unlinked temporary file opened before
    the fork, and exits; this process reads the file once it has reaped the
    child, so the child never waits for a reader.  On any other exception
    here the child is killed; it is always reaped.  With no ``child``, or
    where the temporary file or the fork raises OSError, every job runs
    here in order.
    """
    with ExitStack() as stack:
        try:
            fh = stack.enter_context(tempfile.TemporaryFile()) if child else None
            pid = os.fork() if child else None
        except OSError:  # no temporary file or no fork: the in-process run
            pid = None
        if pid is None:
            return [job() for job in jobs]
        if pid == 0:  # the parent reads the file, never the exit status
            try:
                pickle.dump(_in_order(jobs, child), fh, pickle.HIGHEST_PROTOCOL)
                fh.flush()
            finally:
                os._exit(0)
        try:
            results = _in_order(jobs, [i for i in range(len(jobs)) if i not in child])
            os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        fh.seek(0)
        try:
            results.update(pickle.load(fh))
        except (EOFError, pickle.UnpicklingError) as err:
            raise RuntimeError("the lattice child exited without a result") from err
    for i in sorted(results):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(jobs))]


# 0*inf or inf-inf in a solve gives a nan that the non-finite-field check
# reports, and a residual that overflows is written as null; numpy's
# RuntimeWarning about either would only be noise on stderr
@np.errstate(invalid="ignore", over="ignore")
def run(config: RunConfig, assert_mode: bool = False,
        out_dir: str | None = None) -> int:
    """Execute one configured run; returns the process exit code."""
    spec, grid, penalties = config.spec, config.grid, config.penalties
    out_path = out_dir if out_dir is not None else config.output_dir

    ladders = dict(config.ladders)
    if assert_mode and config.entry is not None and not ladders:
        ladders = dict(config.entry.ladders)
        try:
            _check_cell_nodes(grid, ladders)
        except ConfigError as err:
            _diag("config", status="error", detail='"%s"' % err)
            return EXIT_VALIDATION

    results = RunResults(grid=grid)
    try:
        report = validate_problem(spec, grid, kappa_f=penalties.kappa_f)
        for warning in report.warnings:
            _diag("warn", msg='"%s"' % warning)
        if not report.ok:
            v = report.first_violation
            _diag("validate", status="fail", kind=v.kind, t_index=v.t_index,
                  x_index=v.x_index, t=_fmt(v.t), x=_fmt(v.x), detail='"%s"' % v.detail)
            return EXIT_VALIDATION
        _diag("validate", status="ok", f_lipschitz_y=_fmt(report.f_lipschitz_y),
              f_lipschitz_z=_fmt(report.f_lipschitz_z))
        # the PDE solves' step-size caps read only the plan's maxima, so a
        # run they reject stops here, before a lattice sweep or a fork
        plan = report.plan
        if config.method != "lattice":
            substeps(plan, grid, penalties)
        if "residual" in config.emit:
            substeps(plan, grid, penalties, direct=True)

        # the main lattice solve, the eps-probes, which shift its h, and the
        # ladders' cells are one batch, which keeps only the main field (under
        # --method pde only the probes' base) and the others' summaries
        epsilons = ladders.get("epsilon_list", [])
        reflected, double, row = _ladders(penalties, ladders)
        main = SweepCell(penalties)
        batch = Batch.of([lad for lad in (reflected, double, row) if lad is not None],
                         [main] if config.method != "pde" or epsilons else [],
                         [(main, SweepCell(penalties, eps)) for eps in epsilons], plan)
        params = PdeSchemeParams(grid=grid, penalty=penalties)

        def lattice_batch():
            swept = dict(zip(batch, sweep_cells(spec, grid, batch)))
            for cell in batch.keep + tuple(probe for _, probe in batch.probes):
                _field_or_raise(swept[cell])
            return swept

        def penalized():
            if config.method != "lattice":
                return solve_penalized_pde(spec, params, plan=plan)

        def direct():
            if "residual" in config.emit:
                return solve_double_obstacle_direct(spec, params, plan=plan)

        # the two sides share nothing until the cross gap, so a large enough
        # run sweeps its batch in a child while the PDE solves here, and a
        # smaller one that solves both PDEs moves the direct one to the child
        pdes = (config.method != "lattice", "residual" in config.emit)
        child = ((0,) if batch.keep and any(pdes) and _fork_pays(grid, _FORK_NODES) else
                 (0, 2) if batch.keep and all(pdes) and _fork_pays(grid, _LANE_NODES) else ())
        swept, pde_field, results.direct_field = _run_jobs([lattice_batch, penalized, direct],
                                                           child)
        base = swept[main].field if batch.keep else None
        if base is not None and config.method != "pde":
            results.fields["lattice"] = base
        if pde_field is not None:
            results.fields["pde"] = pde_field
        if config.method == "both":
            results.cross_gap = interior_gap(spec, grid, base.u, pde_field.u, plan)
        r_grid = None
        if results.direct_field is not None:
            r_grid, results.residual_sup = complementarity_residual(
                results.direct_field, spec, grid, plan)

        solved = dict(results.fields, direct=results.direct_field)
        for method, fld in sorted(solved.items()):
            if fld is not None:
                require_finite(fld, method=method)
        if batch.probes and "lattice" not in results.fields:
            require_finite(base, n=penalties.n_upper,
                           m=np.inf if penalties.project_lower else penalties.m_value)
        results.stability_gaps = [_probe_gap(swept, *pair, eps)
                                  for eps, pair in zip(epsilons, batch.probes)]

        if reflected is not None:
            results.ladder_report = monotone_report(reflected, swept)
        if double is not None:
            results.double_report = double_report(double, swept)
        if "m_list" in ladders:
            results.m_ladder = _m_ladder(row, swept)
    except NonFiniteField as err:
        # the first node the backward solve made non-finite
        i, j = err.t_index, err.x_index
        label = {k: v if isinstance(v, str) else _fmt(v) for k, v in err.label.items()}
        _diag("stability", status="rejected", kind="non-finite-field", **label,
              t_index=i, x_index=j, t=_fmt(grid.t[i]), x=_fmt(grid.x[j]))
        return EXIT_STABILITY
    except StabilityError as err:
        _diag("stability", status="rejected", detail='"%s"' % err)
        return EXIT_STABILITY
    except ex.DomainError as err:
        # an expression undefined at a node validation did not sample, such
        # as the lattice's ghost cells or a driver value off the sample
        _diag("validate", status="fail", kind="domain-error", detail='"%s"' % err)
        return EXIT_VALIDATION

    fields = results.fields if "field" in config.emit else {}

    def write_field(method):
        if method in fields:
            write_field_csv(os.path.join(out_path, "field_%s.csv" % method), fields[method], grid)

    def write_rest():
        ladder_rows = _ladder_rows(results)
        if "report" in config.emit and ladder_rows:
            slope = (results.ladder_report.rate_slope
                     if results.ladder_report is not None else None)
            write_report_csv(os.path.join(out_path, "report.csv"), ladder_rows, slope)
        if r_grid is not None:
            write_residual_csv(os.path.join(out_path, "residual.csv"), r_grid, grid)
        _write_summary(os.path.join(out_path, "summary.json"), config, results, plan)

    try:
        os.makedirs(out_path, exist_ok=True)
        # the lattice field's CSV, the first file, is written in a child
        # while the others are written here
        _run_jobs([lambda: write_field("lattice"), lambda: write_field("pde"), write_rest],
                  (0,) if len(fields) == 2 and _fork_pays(grid, _LANE_NODES) else ())
    except OSError as err:
        _diag("output", status="error", detail='"%s"' % err)
        return EXIT_VALIDATION

    if assert_mode:
        checks = _generic_assertions(results, spec, grid, penalties)
        if config.entry is not None:
            checks.extend(cat.run_assertions(config.entry, results))
        failed = 0
        for c in checks:
            _diag("assert", name=c.name, status="PASS" if c.ok else "FAIL",
                  value=_fmt(c.value), budget=_fmt(c.budget))
            failed += 0 if c.ok else 1
        if failed:
            _diag("assert-suite", status="fail", failed=failed, total=len(checks))
            return EXIT_ASSERT
        _diag("assert-suite", status="ok", total=len(checks))
    return EXIT_OK


def _write_summary(path, config, results, plan):
    grid = config.grid
    anchor_x = config.entry.anchor_x if config.entry is not None else \
        0.5 * (grid.x_min + grid.x_max)
    j = int(np.argmin(np.abs(grid.x - anchor_x)))
    summary = {
        "problem": config.spec.name,
        "method": config.method,
        "contamination_cone_t0": float(contamination_cone_width(config.spec, grid, plan)[0]),
        "grid": {"n_t": grid.n_t, "n_x": grid.n_x, "dt": grid.dt, "dx": grid.dx},
        "penalties": {"n_upper": config.penalties.n_upper,
                      "m_lower": ("projection" if config.penalties.project_lower
                                  else config.penalties.m_value),
                      "penalty_mode": config.penalties.penalty_mode,
                      "kappa_f": config.penalties.kappa_f},
        "anchor_x": float(grid.x[j]),
        "anchor_values": {m: float(f.u[0, j]) for m, f in sorted(results.fields.items())},
        "cross_gap": results.cross_gap,
        "residual_sup": results.residual_sup,
        "rate_slope": (results.ladder_report.rate_slope
                       if results.ladder_report is not None else None),
        "stability_gaps": results.stability_gaps,
    }
    obstacles = obstacle_fields(config.spec, grid)
    for method, fld in sorted(results.fields.items()):
        ap, am = asc_residuals(fld, config.spec, grid, obstacles)
        gp, gm = asc_residuals_global(fld, config.spec, grid, obstacles)
        summary["asc_%s" % method] = {"plus": ap, "minus": am,
                                      "plus_global": gp, "minus_global": gm}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _json_safe(value):
    """``value`` with every non-finite float, which JSON cannot hold (a
    residual that overflows, say), replaced by None, written as null."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)  # one registration however often main runs
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(prog="gdro",
                                     description="double-obstacle solvers under volatility uncertainty")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a configured solve")
    solve.add_argument("--config", required=True, help="path to a JSON run config")
    solve.add_argument("--method", choices=METHODS, help="override the config method")
    solve.add_argument("--assert", dest="assert_mode", action="store_true",
                       help="run the problem's assertion suite; exit 4 on failure")
    solve.add_argument("--out", help="output directory (overrides config output_dir)")
    solve.add_argument("--threads", type=int,
                       help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, ConfigError) as err:
        _diag("config", status="error", detail='"%s"' % err)
        return EXIT_VALIDATION
    if args.method:
        config.method = args.method
    return run(config, assert_mode=args.assert_mode, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
