"""Start-up and exit time of gdro, and wall time, peak RSS and CPU time of every catalog entry's run.

    python3 tools/run_cost.py [--root DIR]

Imports the package from ``DIR/src`` (default: this checkout).  The first
line is the time ``import gdro.cli`` takes in a fresh interpreter: the
median and the quartiles over 11 child processes, after one warm-up child
that writes the bytecode cache.  The second is gdro's own share of it: the
same in children that first import every other module a fresh
``import gdro.cli`` loads (numpy and the standard library modules).  The
third is the exit time: the median and the quartiles over 11 children, each
a small ``gdro solve`` through ``gdro.cli.main`` that prints
``time.monotonic()`` once ``main`` returns, of the time from that print to
this process's ``os.wait4`` reaping the child.  It covers the interpreter's
finalization and the process's teardown.  The quartiles show how far one
checkout's children spread, so a difference between two checkouts smaller
than that spread is noise.
Then runs ``gdro solve --assert --method both`` on each catalog entry at its
default grid, and on the ``varcoef-forked`` inline run of
``tools/catalog_digests.py``, emitting the report only, and once more on
gheat-convex at its default grid emitting field, report and residual
(``gheat-convex-emit``), one child process at a time, and prints one line
per run: its grid, the child's exit code, its wall time from start to
reaping (in s), its peak resident set size (``ru_maxrss``, in MiB) and its
user plus system CPU time (in s), as ``os.wait4`` reports them for that
child and its forked children.  Every catalog entry has sigma, b and l free
of t and a grid below the fork gate (``cli._FORK_NODES``) and above the
lane gate (``cli._LANE_NODES``); emitting the report only, it forks no
child, while ``gheat-convex-emit`` takes both lanes, so its CPU time counts
two busy processes and only its wall time shows what the lanes buy.
``varcoef-forked`` has sigma, b and l varying in t and x, on the grid of the
benchmark's varcoef-pde workload, above the fork gate.  The children run
without ``PYTHONDONTWRITEBYTECODE``, so they do not recompile the package
each time, and with ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` at 1, as the benchmark's solve processes do, so a run
that forks nothing takes about as much CPU time as wall time.  To compare
two checkouts:

    python3 tools/run_cost.py --root ../old
    python3 tools/run_cost.py

The numbers describe the machine they were taken on; peak RSS also moves by
a fraction of a MiB with the directory a run starts from.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from catalog_digests import INLINE

_LIST_ENTRIES = ("import json; from gdro.catalog import CATALOG; "
                 "print(json.dumps({k: list(e.grid) for k, e in sorted(CATALOG.items())}))")
#: the time of ``import gdro.cli`` after importing the modules named in argv
_IMPORT = ("import importlib, sys, time\nfor m in sys.argv[1:]: importlib.import_module(m)\n"
           "t = time.perf_counter(); import gdro.cli; print(time.perf_counter() - t)")
#: the modules besides gdro's that ``import gdro.cli`` loads, in load order
_DEPENDENCIES = ("import sys, gdro.cli; print(' '.join(m for m in sys.modules"
                 " if m.partition('.')[0] != 'gdro'))")
#: ``gdro.cli.main`` on argv, then the CLOCK_MONOTONIC time it returned at
_SOLVE = ("import sys, time\nfrom gdro.cli import main\nrc = main(sys.argv[1:])\n"
          "print(time.monotonic())\nsys.exit(rc)")
#: the run the exit time is taken on
_EXIT_RUN = {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
             "method": "both", "emit": ["report"]}
#: child processes per start-up or exit time
_CHILDREN = 11
#: the inline runs measured beside the catalog entries
_INLINE_RUNS = ("varcoef-forked",)


def child_env(root):
    """The environment of the children: the package from ``root/src``,
    bytecode written and read, and the BLAS and OpenMP thread pools at one
    thread, as in the benchmark's solve processes (``perfbench/run.py``)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _child(root, code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env(root),
                          check=True, capture_output=True, text=True).stdout


def startup_s(root, own=False):
    """The quartiles of the time of ``import gdro.cli`` in _CHILDREN child
    processes, after one warm-up child; with ``own``, in children that have
    already imported every other module it loads."""
    args = _child(root, _DEPENDENCIES).split() if own else ()
    times = [float(_child(root, _IMPORT, *args)) for _ in range(1 + _CHILDREN)]
    return statistics.quantiles(times[1:], n=4)


def _reap(proc):
    """Wait for ``proc`` with ``os.wait4``; its resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return usage


def exit_s(root, work):
    """The quartiles, over _CHILDREN ``gdro solve`` children, of the time
    from the return of ``main`` to the child's reaping."""
    config = os.path.join(work, "exit.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(_EXIT_RUN, fh)
    times = []
    for _ in range(_CHILDREN):
        proc = subprocess.Popen([sys.executable, "-c", _SOLVE, "solve", "--config", config,
                                 "--out", os.path.join(work, "exit")],
                                env=child_env(root), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        with proc.stdout:
            _reap(proc)
            reaped = time.monotonic()
            returned = float(proc.stdout.read())  # one line: fits the pipe before exit
        if proc.returncode:
            raise RuntimeError("exit-time run exited %d" % proc.returncode)
        times.append(reaped - returned)
    return statistics.quantiles(times, n=4)


def run_costs(root, work):
    """Yield (run, n_t, n_x, exit code, wall s, peak RSS in MiB, CPU s) per
    catalog entry, then per inline run of _INLINE_RUNS, then for
    gheat-convex-emit."""
    env = child_env(root)
    listing = subprocess.run([sys.executable, "-c", _LIST_ENTRIES], env=env,
                             check=True, capture_output=True, text=True)
    runs = {name: {"problem": name, "grid": {"n_t": n_t, "n_x": n_x}}
            for name, (n_t, n_x) in json.loads(listing.stdout).items()}
    runs.update((name, INLINE[name]) for name in _INLINE_RUNS)
    runs["gheat-convex-emit"] = dict(runs["gheat-convex"], emit=["field", "report", "residual"])
    for name, run in runs.items():
        config = os.path.join(work, name + ".json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"method": "both", "emit": ["report"], **run}, fh)
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-m", "gdro.cli", "solve", "--config", config,
                                 "--out", os.path.join(work, name), "--assert"],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        usage = _reap(proc)
        yield (name, run["grid"]["n_t"], run["grid"]["n_x"], proc.returncode,
               time.monotonic() - start, usage.ru_maxrss / 1024.0,
               usage.ru_utime + usage.ru_stime)


def _ms(quartiles):
    q1, median, q3 = (1e3 * q for q in quartiles)
    return "%.1f ms (median of %d processes, quartiles %.1f-%.1f)" % (median, _CHILDREN, q1, q3)


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout whose src/ is run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    print("start-up: import gdro.cli " + _ms(startup_s(root)))
    print("start-up: gdro's own import, its dependencies loaded, "
          + _ms(startup_s(root, own=True)))
    with tempfile.TemporaryDirectory() as work:
        print("exit: main's return to the reaping of a gdro solve child "
              + _ms(exit_s(root, work)))
        print("%-22s %9s %5s %8s %12s %8s" % ("run", "grid", "exit", "wall_s", "peak_rss_mb",
                                               "cpu_s"))
        for name, n_t, n_x, code, wall, rss, cpu in run_costs(root, work):
            print("%-22s %9s %5d %8.3f %12.2f %8.3f" % (name, "%dx%d" % (n_t, n_x), code, wall,
                                                       rss, cpu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
