"""Span tracing of gdro's layers from outside the package.

``Tracer.install`` wraps the public functions listed in ``PROBES`` and puts
each wrapper into every ``gdro`` module namespace that holds the original
function, so calls through ``from .gcore import obstacle_fields`` are seen
as well as calls through ``gcore.obstacle_fields``.  Spans are kept in
memory as ``(name, start, end, parent, run_id, attrs)`` and written out once
the run ends; ``layer_metrics`` turns them into the per-layer metrics.

Spans opened in worker threads take the innermost span open in the main
thread as their parent, since that span is the one waiting for them.  A
span's self time is its duration minus the part of it covered by its
children's intervals.  ``g_eval`` spans serve only to count the PDE's node
steps, so their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time

#: probe name -> (module, public function); one span per call
PROBES = {
    "expr.eval": ("gdro.expr", "eval_expr"),
    "gcore.validate": ("gdro.gcore", "validate_problem"),
    "gcore.obstacle_fields": ("gdro.gcore", "obstacle_fields"),
    "gcore.g_eval": ("gdro.gcore", "g_eval"),
    "lattice.penalized_sweep": ("gdro.lattice", "penalized_sweep"),
    "lattice.reflected_sweep": ("gdro.lattice", "reflected_sweep"),
    "lattice.double_ladder": ("gdro.lattice", "double_ladder"),
    "pde.penalized": ("gdro.pde", "solve_penalized_pde"),
    "pde.direct": ("gdro.pde", "solve_double_obstacle_direct"),
    "pde.residual": ("gdro.pde", "complementarity_residual"),
    "convergence.ladder": ("gdro.convergence", "monotone_ladder"),
    "convergence.probe": ("gdro.convergence", "stability_probe"),
    "convergence.asc_residuals": ("gdro.convergence", "asc_residuals"),
    "convergence.obstacle_violations": ("gdro.convergence", "obstacle_violations"),
    "catalog.assert": ("gdro.catalog", "run_assertions"),
    "cli.load_config": ("gdro.cli", "load_config"),
    "cli.write_field": ("gdro.cli", "write_field_csv"),
    "cli.write_report": ("gdro.cli", "write_report_csv"),
    "cli.write_residual": ("gdro.cli", "write_residual_csv"),
}

LATTICE_SWEEPS = ("lattice.penalized_sweep", "lattice.reflected_sweep")
PDE_SOLVES = ("pde.penalized", "pde.direct")
CSV_WRITERS = ("cli.write_field", "cli.write_report", "cli.write_residual")

NAME, START, END, PARENT, RUN, ATTRS = range(6)


def _sweep_attrs(fn):
    """Identity and computed node-step count of each call of a lattice sweep."""
    signature = inspect.signature(fn)

    def attrs(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        arguments.pop("threads", None)
        grid = arguments["grid"]
        return {"key": repr(sorted(arguments.items())), "nodes": grid.n_t * grid.n_x}

    return attrs


def _size_attrs(fn):
    return lambda args, kwargs: {"size": int(getattr(args[0], "size", 1))}


def _path_attrs(fn):
    return lambda args, kwargs: {"path": args[0]}


#: probe name -> factory of the function that records a call's attributes
_ATTRS = {name: _sweep_attrs for name in LATTICE_SWEEPS}
_ATTRS["gcore.g_eval"] = _size_attrs
_ATTRS.update({name: _path_attrs for name in CSV_WRITERS})


class Tracer:
    """Create it in the thread that runs the solve: that is the main thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        make_attrs = _ATTRS[name](fn) if name in _ATTRS else None
        spans, run_id, clock, lock = self.spans, self.run_id, time.perf_counter, self._lock

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            attrs = None
            if make_attrs is not None:
                try:
                    attrs = make_attrs(args, kwargs)
                except (TypeError, LookupError, AttributeError):
                    pass  # a changed signature must not break the traced call
            span = [name, clock(), None, parent, run_id, attrs]
            with lock:  # worker threads append too; the index must be this span's
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every probe in every loaded gdro module that refers to it."""
        for mod_name, _ in PROBES.values():
            try:
                importlib.import_module(mod_name)
            except ImportError:
                pass  # a probe the package no longer has reads as zero
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "gdro" or k.startswith("gdro."))]
        for name, (mod_name, attr) in PROBES.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "attrs"],
                       "spans": self.spans}, fh)


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


class _Group:
    """The spans of some probes: their outermost calls and total time."""

    def __init__(self, spans, *names):
        names = set(names)
        self.members = [i for i, s in enumerate(spans) if s[NAME] in names]
        self.outer = [i for i in self.members if not _has_ancestor(spans, i, names)]
        self.calls = len(self.outer)
        self.total_s = sum(spans[i][END] - spans[i][START] for i in self.outer)


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed by their BENCHMARK.json names."""
    children = {}
    for i, s in enumerate(spans):
        # g_eval spans only count PDE node steps; their time stays the caller's
        if s[PARENT] is not None and s[NAME] != "gcore.g_eval":
            children.setdefault(s[PARENT], []).append(i)

    def self_s(group):
        return sum((spans[i][END] - spans[i][START])
                   - _union_length([(spans[c][START], spans[c][END])
                                    for c in children.get(i, ())])
                   for i in group.members)

    def total_s(*names):
        return _Group(spans, *names).total_s

    ev = _Group(spans, "expr.eval")
    obst = _Group(spans, "gcore.obstacle_fields")
    sweeps = _Group(spans, *LATTICE_SWEEPS)
    solves = _Group(spans, *PDE_SOLVES)
    writers = _Group(spans, *CSV_WRITERS)

    def attrs(indices, key):
        return [spans[i][ATTRS][key] for i in indices if spans[i][ATTRS] is not None]

    lattice_nodes = sum(attrs(sweeps.outer, "nodes"))
    unique = len(set(attrs(sweeps.outer, "key")))
    pde_nodes = sum(attrs([i for i, s in enumerate(spans) if s[NAME] == "gcore.g_eval"
                           and _has_ancestor(spans, i, PDE_SOLVES)], "size"))
    sweep_self, solve_self = self_s(sweeps), self_s(solves)
    written = sum(os.path.getsize(p) for p in attrs(writers.outer, "path")
                  if os.path.exists(p))

    return {
        "expr.eval_calls": ev.calls,
        "expr.eval_s": ev.total_s,
        "gcore.validate_s": total_s("gcore.validate"),
        "cli.load_config_s": total_s("cli.load_config"),
        "gcore.obstacle_fields_calls": obst.calls,
        "gcore.obstacle_fields_s": obst.total_s,
        "lattice.sweep_calls": sweeps.calls,
        "lattice.unique_sweep_ratio": unique / sweeps.calls if sweeps.calls else 0.0,
        "lattice.node_steps": lattice_nodes,
        "lattice.sweep_s": sweep_self,
        "lattice.step_us": 1e6 * sweep_self / lattice_nodes if lattice_nodes else 0.0,
        "lattice.double_ladder_s": total_s("lattice.double_ladder"),
        "pde.solve_calls": solves.calls,
        "pde.node_steps": pde_nodes,
        "pde.solve_s": solve_self,
        "pde.step_us": 1e6 * solve_self / pde_nodes if pde_nodes else 0.0,
        "pde.residual_s": total_s("pde.residual"),
        "convergence.ladder_s": total_s("convergence.ladder"),
        "convergence.probe_s": total_s("convergence.probe"),
        "convergence.diag_s": total_s("convergence.asc_residuals",
                                      "convergence.obstacle_violations"),
        "catalog.assert_s": total_s("catalog.assert"),
        "cli.write_s": writers.total_s,
        "cli.write_mb_per_s": written / 1e6 / writers.total_s if writers.total_s else 0.0,
    }
