"""Config ingestion, run orchestration, and bit-stable CSV/JSON emission.

Usage:
    gdro solve --config run.json [--method pde|lattice|both] [--assert]
               [--out DIR] [--threads N]

Exit codes: 0 success, 2 input validation failure (including an expression
undefined at a node it is evaluated on), 3 step-size/stability rejection or
a non-finite solved field, 4 assertion-suite failure under --assert.
Diagnostics go to stderr as key=value lines; numeric output files are
written with 17 significant digits so doubles round-trip exactly and reruns
are byte-identical.  ``--threads`` is accepted for compatibility and has no
effect: each solver is single-threaded.  On a large enough grid, with two
usable CPUs and ``os.fork``, a run sweeps the lattice's main batch in a
forked child while the parent solves the PDE; outputs, exit codes and
diagnostics are those of the in-process run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field as dc_field, replace
from itertools import compress

import numpy as np

from . import catalog as cat
from . import expr as ex
from .convergence import (ConvergenceReport, asc_residuals, asc_residuals_global,
                          interior_gap, monotone_ladder, probe_output_gap)
from .gcore import (Grid, PenaltyParams, ProblemSpec, StabilityError,
                    contamination_cone_width, obstacle_fields, validate_problem)
from .lattice import DoubleLadderReport, SweepCell, _field_or_raise, double_ladder, sweep_cells
from .pde import (PdeSchemeParams, complementarity_residual,
                  solve_double_obstacle_direct, solve_penalized_pde)
from .scheme import NonFiniteField, require_finite, strictly_ascending

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STABILITY = 3
EXIT_ASSERT = 4

METHODS = ("pde", "lattice", "both")
EMITS = ("field", "report", "residual")

_PROBLEM_REQUIRED = ("horizon", "x_min", "x_max", "sigma_low", "sigma_high")
_PROBLEM_EXPRS = ("b", "l", "sigma", "f", "phi", "h", "h_prime")


class ConfigError(ValueError):
    """Schema violation; ``pointer`` is the JSON pointer to the bad value."""

    def __init__(self, message, pointer):
        super().__init__("%s at %s" % (message, pointer or "/"))
        self.pointer = pointer


def _diag(record, **fields):
    parts = [record] + ["%s=%s" % (k, v) for k, v in fields.items()]
    print(" ".join(parts), file=sys.stderr)


@dataclass
class RunConfig:
    spec: ProblemSpec
    grid: Grid
    method: str
    penalties: PenaltyParams
    ladders: dict
    output_dir: str
    emit: tuple
    problem_name: str | None = None
    entry: object = None  # CatalogEntry when resolved from the catalog


@dataclass
class RunResults:
    grid: Grid
    fields: dict = dc_field(default_factory=dict)   # method -> SolutionField
    direct_field: object = None
    residual_sup: float | None = None
    cross_gap: float | None = None
    ladder_report: ConvergenceReport | None = None
    double_report: DoubleLadderReport | None = None
    m_ladder: list | None = None
    stability_gaps: list = dc_field(default_factory=list)


def _require(obj, key, pointer):
    if key not in obj:
        raise ConfigError("missing required key", pointer)
    return obj[key]


def _as_number(value, pointer):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", pointer)
    return float(value)


def _as_finite(value, pointer):
    number = _as_number(value, pointer)
    if not math.isfinite(number):
        raise ConfigError("expected a finite number", pointer)
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
    if not isinstance(value, dict):
        raise ConfigError("expected a catalog name or an object", "/problem")
    known = set(_PROBLEM_REQUIRED) | set(_PROBLEM_EXPRS) | {"name"}
    for key in value:
        if key not in known:
            raise ConfigError("unknown problem key", "/problem/%s" % key)
    kwargs = {}
    for key in _PROBLEM_REQUIRED:
        kwargs[key] = _as_number(_require(value, key, "/problem/%s" % key),
                                 "/problem/%s" % key)
    for key in _PROBLEM_EXPRS:
        if key in value:
            if not isinstance(value[key], str):
                raise ConfigError("expected an expression string", "/problem/%s" % key)
            kwargs[key] = value[key]
    kwargs["name"] = value.get("name", "inline")
    try:
        return ProblemSpec.from_strings(**kwargs), None
    except ex.ParseError as err:
        raise ConfigError("bad expression: %s" % err, "/problem") from None
    except ValueError as err:
        raise ConfigError(str(err), "/problem") from None


def _parse_penalties(value, entry):
    defaults = dict(entry.penalties) if entry is not None else {}
    if value is None:
        return PenaltyParams(**defaults)
    if not isinstance(value, dict):
        raise ConfigError("expected an object", "/penalties")
    known = {"n_upper", "m_lower", "penalty_mode", "kappa_f"}
    for key in value:
        if key not in known:
            raise ConfigError("unknown penalties key", "/penalties/%s" % key)
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
    if not isinstance(value, dict):
        raise ConfigError("expected an object", "/ladders")
    out = {}
    for key in value:
        if key not in ("n_list", "m_list", "epsilon_list"):
            raise ConfigError("unknown ladders key", "/ladders/%s" % key)
        seq = value[key]
        if not isinstance(seq, list):
            raise ConfigError("expected an array", "/ladders/%s" % key)
        out[key] = [_as_number(v, "/ladders/%s/%d" % (key, i))
                    for i, v in enumerate(seq)]
        if key != "epsilon_list" and not strictly_ascending(out[key]):
            raise ConfigError("expected a strictly ascending list", "/ladders/%s" % key)
    return out


def parse_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a single JSON object", "")
    known = {"problem", "grid", "method", "penalties", "ladders", "output_dir", "emit"}
    for key in data:
        if key not in known:
            raise ConfigError("unknown key", "/%s" % key)

    spec, entry = _parse_problem(_require(data, "problem", "/problem"))
    gobj = _require(data, "grid", "/grid")
    if not isinstance(gobj, dict):
        raise ConfigError("expected an object", "/grid")
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

    emit = data.get("emit", ["field", "report"])
    if not isinstance(emit, list) or any(e not in EMITS for e in emit):
        raise ConfigError("expected a subset of {field, report, residual}", "/emit")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("expected a string", "/output_dir")

    return RunConfig(spec=spec, grid=grid, method=method, penalties=penalties,
                     ladders=ladders, output_dir=output_dir, emit=tuple(emit),
                     problem_name=entry.name if entry is not None else None,
                     entry=entry)


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


def _write_csv(path, header, slices):
    """Write a CSV: ``header``, then each slice ``(lead, keys, values)``.

    Row r of a slice is ``lead + keys[r]`` followed by row r of the 2-D array
    ``values``, each entry as "%.17g": 17 significant digits, so every double
    round-trips exactly.  A slice's rows form one template, filled by a
    single ``%``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, keys, values in slices:
            if keys:
                row = ",".join(["%.17g"] * values.shape[1]) + "\n"
                fh.write((lead + (row + lead).join(keys) + row)
                         % tuple(values.ravel().tolist()))


def _grid_slices(grid, columns, keep):
    """The ``_write_csv`` slices of the (n_t+1, n_x) arrays ``columns``, one
    per time index i, led by "t_i," and keyed by "x_j," at the nodes the mask
    ``keep`` marks.  t is formatted once per slice and x once per call; the
    values are gathered one slice at a time."""
    x_keys = ["%.17g," % v for v in grid.x.tolist()]
    values = np.empty((grid.n_x, len(columns)))
    for i, t in enumerate(grid.t.tolist()):
        for k, c in enumerate(columns):
            values[:, k] = c[i]
        nodes = keep[i]
        yield "%.17g," % t, list(compress(x_keys, nodes.tolist())), values[nodes]


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
                        r.mono_violation, r.asc_plus, r.asc_minus, r.cross_gap, slope)
                       for r in ladder_rows], dtype=float)
    _write_csv(path, ("n", "m", "sup_upper_violation", "sup_lower_violation",
                      "mono_violation", "asc_plus", "asc_minus", "cross_gap",
                      "rate_slope"),
               [("", [""] * len(values), values)])


def write_residual_csv(path, r_grid, grid):
    """Write ``t,x,r`` at the nodes where the residual ``r_grid`` is not nan."""
    _write_csv(path, ("t", "x", "r"), _grid_slices(grid, (r_grid,), ~np.isnan(r_grid)))


def _perturb_lower(spec, eps):
    """The problem with h + eps: what the probe cell SweepCell(penalties,
    eps) solves, which shifts h in the sweep instead."""
    return replace(spec, h=ex.BinOp("+", spec.h, ex.Num(eps)), name=spec.name + "+eps")


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


def _m_ladder(spec, grid, penalties, ladders, swept):
    """Rows of the m-ladder at the configured n_upper, and the double ladder
    over n_list x m_list (None without an n_list) that shares its sweeps."""
    def ladder(n_list):
        return double_ladder(spec, grid, n_list, ladders["m_list"],
                             penalty_mode=penalties.penalty_mode,
                             kappa_f=penalties.kappa_f, swept=swept)

    double = ladder(ladders["n_list"]) if "n_list" in ladders else None
    if double is not None and penalties.n_upper in double.n_list:
        cells = double.cells[double.n_list.index(penalties.n_upper)]
    else:
        cells = ladder([penalties.n_upper]).cells[0]
    # the report lists m-ladder rows without ordering gaps
    return [replace(c, mono_gap_n=np.nan, mono_gap_m=np.nan) for c in cells], double


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
#: stay in-process
_FORK_NODES = 90_000


def _fork_pays(grid):
    """Whether a run on ``grid`` sweeps its lattice batch in a forked child."""
    if not hasattr(os, "fork") or (grid.n_t + 1) * grid.n_x < _FORK_NODES:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2


def _beside_child(child_work, work):
    """``(child_work(), work())``, with child_work run in a forked child.

    The child sends its result, or the Exception that stopped it, through a
    pipe as a pickle.  Errors surface as if child_work had run first: the
    child's before this process's own.  On any other exception here the
    child is killed; it is always reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = child_work()
            except Exception as err:  # sent to the parent, which raises it
                result = err
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            try:
                mine = work()
            except Exception as err:  # raised after any error of the child's
                mine = err
            try:
                theirs = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError) as err:
                raise RuntimeError("the lattice child exited without a result") from err
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    for result in (theirs, mine):
        if isinstance(result, Exception):
            raise result
    return theirs, mine


def run(config: RunConfig, assert_mode: bool = False,
        out_dir: str | None = None) -> int:
    """Execute one configured run; returns the process exit code."""
    spec, grid, penalties = config.spec, config.grid, config.penalties
    out_path = out_dir if out_dir is not None else config.output_dir

    ladders = dict(config.ladders)
    if assert_mode and config.entry is not None and not ladders:
        ladders = dict(config.entry.ladders)

    results = RunResults(grid=grid)
    # 0*inf or inf-inf in a solve gives a nan that the non-finite-field check
    # below reports; numpy's RuntimeWarning about it would only be noise
    with np.errstate(invalid="ignore", over="ignore"):
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

            # the main lattice solve and the eps-probes, which shift its h,
            # are one batch; under --method pde it is only the probes' base
            epsilons = ladders.get("epsilon_list", [])
            main_cell = SweepCell(penalties)
            cells = ([main_cell] + [SweepCell(penalties, eps) for eps in epsilons]
                     if config.method != "pde" or epsilons else [])
            params = PdeSchemeParams(grid=grid, penalty=penalties)

            def lattice_batch():
                return [_field_or_raise(r) for r in sweep_cells(spec, grid, cells)]

            def pde_solves():
                pde = direct = None
                if config.method != "lattice":
                    pde = solve_penalized_pde(spec, params)
                if "residual" in config.emit:
                    direct = solve_double_obstacle_direct(spec, params)
                return pde, direct

            # the two sides share nothing until the cross gap, so a large
            # enough run sweeps its batch in a child while the PDE solves here
            if (cells and (config.method != "lattice" or "residual" in config.emit)
                    and _fork_pays(grid)):
                batch, (pde_field, results.direct_field) = _beside_child(
                    lattice_batch, pde_solves)
            else:
                batch = lattice_batch()
                pde_field, results.direct_field = pde_solves()
            swept, probes = {}, []
            if batch:
                base, *probes = batch
                swept[main_cell] = base
                if config.method != "pde":
                    results.fields["lattice"] = base
            del batch  # so that del probes below frees the probe fields
            if pde_field is not None:
                results.fields["pde"] = pde_field
            if config.method == "both":
                results.cross_gap = interior_gap(spec, grid, base.u, pde_field.u)
            r_grid = None
            if results.direct_field is not None:
                r_grid, results.residual_sup = complementarity_residual(
                    results.direct_field, spec, grid)

            solved = dict(results.fields, direct=results.direct_field)
            for method, fld in sorted(solved.items()):
                if fld is not None:
                    require_finite(fld, method=method)
            if probes and "lattice" not in results.fields:
                require_finite(base, n=penalties.n_upper,
                               m=np.inf if penalties.project_lower else penalties.m_value)
            results.stability_gaps = [probe_output_gap(base, require_finite(p, eps=eps))
                                      for eps, p in zip(epsilons, probes)]
            del probes  # the ladders run without the probe fields

            if "n_list" in ladders:
                results.ladder_report = monotone_ladder(
                    spec, grid, ladders["n_list"], penalty_mode=penalties.penalty_mode,
                    kappa_f=penalties.kappa_f, swept=swept)
            if "m_list" in ladders:
                results.m_ladder, results.double_report = _m_ladder(
                    spec, grid, penalties, ladders, swept)
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

    os.makedirs(out_path, exist_ok=True)
    if "field" in config.emit:
        for method, fld in sorted(results.fields.items()):
            write_field_csv(os.path.join(out_path, "field_%s.csv" % method), fld, grid)
    ladder_rows = _ladder_rows(results)
    if "report" in config.emit and ladder_rows:
        slope = (results.ladder_report.rate_slope
                 if results.ladder_report is not None else None)
        write_report_csv(os.path.join(out_path, "report.csv"), ladder_rows, slope)
    if r_grid is not None:
        write_residual_csv(os.path.join(out_path, "residual.csv"), r_grid, grid)
    _write_summary(os.path.join(out_path, "summary.json"), config, results)

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


def _write_summary(path, config, results):
    grid = config.grid
    anchor_x = config.entry.anchor_x if config.entry is not None else \
        0.5 * (grid.x_min + grid.x_max)
    j = int(np.argmin(np.abs(grid.x - anchor_x)))
    summary = {
        "problem": config.problem_name or config.spec.name,
        "method": config.method,
        "contamination_cone_t0": float(contamination_cone_width(config.spec, grid)[0]),
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
    for method, fld in sorted(results.fields.items()):
        ap, am = asc_residuals(fld, config.spec, grid)
        gp, gm = asc_residuals_global(fld, config.spec, grid)
        summary["asc_%s" % method] = {"plus": ap, "minus": am,
                                      "plus_global": gp, "minus_global": gm}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
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
