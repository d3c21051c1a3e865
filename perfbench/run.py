"""gdro benchmark: whole `gdro solve` processes on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the workload's config, warms the import path once, then
starts one `gdro solve` process after another (a closed loop, one at a
time) until ``--seconds`` are used, at least three.  Every process is
checked: exit code 0, ``assert-suite status=ok``, a finite cross-solver gap
inside the scheme budget, and output bytes equal to those of the other
processes of the run.

With ``--trace 0`` a calibration process (child.py's fixed reference
kernel, which does not use gdro) runs before the first solve and after each
one.  Each solve's times are scaled by ``REF_CALIBRATION_S`` over the mean
time of the two calibrations beside it, so a shared host that slows down
for minutes moves both and the ratio stays put.  The end-to-end metrics are
medians of these scaled times over the processes; the raw medians are
printed and recorded too.  With ``--trace 1`` half the time goes to
untraced processes and half to traced ones, without calibration, and the
per-layer metrics are medians over the traced processes.  See README.md
for the metrics.

All human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, with the environment and every sample, goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "cross_gap": "abs"}
#: printed with the end-to-end metrics but not part of the JSON result:
#: fail_frac is 0 on a healthy run, residual_sup exists on one workload, and
#: the raw times and the calibration time drift with the host's load
REPORTED_ONLY = {"fail_frac": "ratio", "residual_sup": "abs", "raw_wall_s": "s",
                 "raw_cpu_s": "s", "raw_setup_s": "s", "calibration_s": "s"}
PER_LAYER = {
    "expr.eval_calls": "count", "expr.eval_s": "s",
    "gcore.validate_s": "s", "cli.load_config_s": "s",
    "gcore.obstacle_fields_calls": "count", "gcore.obstacle_fields_s": "s",
    "lattice.sweep_calls": "count", "lattice.unique_sweep_ratio": "ratio",
    "lattice.node_steps": "count", "lattice.sweep_s": "s", "lattice.step_us": "us",
    "lattice.double_ladder_s": "s",
    "pde.solve_calls": "count", "pde.node_steps": "count", "pde.solve_s": "s",
    "pde.step_us": "us", "pde.residual_s": "s",
    "convergence.ladder_s": "s", "convergence.probe_s": "s", "convergence.diag_s": "s",
    "catalog.assert_s": "s",
    "cli.write_s": "s", "cli.output_bytes": "bytes", "cli.write_mb_per_s": "MB/s",
    "parallel.speedup_2t": "ratio",
    "trace.overhead_s": "s",
}
#: the catalog's cross-gap budget factor, applied here to every workload
CROSS_GAP_FACTOR = 5.0
#: both solvers are exact on quadratic data (emit-heavy), where the gap is
#: rounding (~1e-12); the metric reads gaps below this floor as the floor
CROSS_GAP_FLOOR = 1e-9
#: no new process starts after this many seconds of a run, and any process
#: still running at RUN_LIMIT_S is killed, so a run ends within 180 s
HARD_STOP_S = 120.0
RUN_LIMIT_S = 170.0
MIN_SAMPLES = 3
#: about the wall time of one calibration process on an idle core of a 2-vCPU Xeon
#: VM; scaled times read as seconds on a machine that runs it this fast
REF_CALIBRATION_S = 0.25


@dataclass
class Sample:
    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float = math.nan
    main_s: float = math.nan
    digest: str = ""
    output_bytes: int = 0
    summary: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: mean wall and CPU time of the calibration processes before and after
    cal_wall_s: float = math.nan
    cal_cpu_s: float = math.nan

    @property
    def ok(self):
        return not self.errors


def _spawn(mode, marks, args, work, deadline):
    """Run one child to completion or to ``deadline`` (monotonic s).

    Returns (exit code, start time, wall s, rusage, stderr).
    """
    # -I keeps PYTHON* variables out; numpy's BLAS pools would add threads
    cmd = [sys.executable, "-I", CHILD, ROOT, mode, marks] + args
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    err_path = marks + ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return proc.returncode, t0, wall, usage, stderr


def _digest(out_dir):
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), size


def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_summary(summary):
    errors = []
    gap = summary.get("cross_gap")
    grid = summary.get("grid", {})
    if not _finite(gap):
        errors.append("cross_gap missing or not finite")
    elif not (_finite(grid.get("dt")) and _finite(grid.get("dx"))):
        errors.append("grid steps missing from summary.json")
    elif gap > CROSS_GAP_FACTOR * (grid["dt"] + grid["dx"] ** 2):
        errors.append("cross_gap %.3g exceeds the scheme budget" % gap)
    if not all(_finite(v) for v in summary.get("anchor_values", {}).values()):
        errors.append("non-finite anchor value")
    residual = summary.get("residual_sup")
    if residual is not None and not _finite(residual):
        errors.append("residual_sup not finite")
    return errors


def run_solve(mode, workload, config_path, work, k, deadline):
    marks = os.path.join(work, "%s-%d.json" % (mode, k))
    out_dir = os.path.join(work, "out-%d" % k)
    rc, t0, wall, usage, stderr = _spawn(mode, marks, workload.cli_args(config_path, out_dir),
                                         work, deadline)
    s = Sample(mode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if rc != 0:
        s.errors.append("exit code %d: %s" % (rc, stderr.strip()[-400:]))
    if "assert-suite status=ok" not in stderr:
        s.errors.append("no 'assert-suite status=ok' line")
    try:
        with open(marks, encoding="utf-8") as fh:
            m = json.load(fh)
        s.setup_s = m["setup_end"] - t0
        s.main_s = m["main_end"] - t0
        s.layers = m.get("layers", {})
    except (OSError, ValueError, KeyError) as err:
        s.errors.append("no timing marks: %s" % err)
    if os.path.isdir(out_dir):
        s.digest, s.output_bytes = _digest(out_dir)
        try:
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
                s.summary = json.load(fh)
            s.errors.extend(_check_summary(s.summary))
        except (OSError, ValueError) as err:
            s.errors.append("unreadable summary.json: %s" % err)
        shutil.rmtree(out_dir)
    else:
        s.errors.append("no output directory")
    return s


def run_calibration(work, k, deadline):
    """One calibration process: (wall s, CPU s, error or None)."""
    marks = os.path.join(work, "calibrate-%d.json" % k)
    rc, _, wall, usage, stderr = _spawn("calibrate", marks, [], work, deadline)
    error = None if rc == 0 else "calibration exit code %d: %s" % (rc, stderr.strip()[-400:])
    return wall, usage.ru_utime + usage.ru_stime, error


def measure(mode, workload, config_path, work, budget_s, min_samples, run_start, start_k=0,
            calibrate=False):
    """Closed loop: the next process starts when the previous one exits.

    With ``calibrate`` a calibration process runs before the first solve and
    after each solve, and each sample records the mean of the two beside it.
    """
    samples = []
    deadline = run_start + RUN_LIMIT_S
    t0 = time.monotonic()
    before = run_calibration(work, start_k, deadline) if calibrate else None
    rounds = []
    while True:
        r0 = time.monotonic()
        k = start_k + len(samples)
        s = run_solve(mode, workload, config_path, work, k, deadline)
        if calibrate:
            after = run_calibration(work, k + 1, deadline)
            s.cal_wall_s = (before[0] + after[0]) / 2
            s.cal_cpu_s = (before[1] + after[1]) / 2
            s.errors.extend(e for e in (before[2], after[2]) if e)
            before = after
        samples.append(s)
        now = time.monotonic()
        rounds.append(now - r0)
        if now - run_start > HARD_STOP_S or (len(samples) >= min_samples
                                             and now - t0 + statistics.median(rounds)
                                             > budget_s):
            return samples


def _speedup(workload_config_path, work, deadline):
    marks = os.path.join(work, "speedup.json")
    rc, _, _, _, stderr = _spawn("speedup", marks, ["--config", workload_config_path], work,
                                 deadline)
    if rc != 0:
        return None, "speed-up probe failed: %s" % stderr.strip()[-400:]
    with open(marks, encoding="utf-8") as fh:
        return json.load(fh), None


def _median(values):
    values = [v for v in values if _finite(v)]
    return statistics.median(values) if values else math.nan


def _git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": _git_commit(),
            "platform": platform.platform()}


def _print_metrics(title, values, units):
    print(title)
    for name, unit in units.items():
        v = values.get(name)
        print("  %-28s %s %s" % (name, "n/a" if v is None else "%.6g" % v, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gdro", "cli.py")):
        print("no gdro sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    work = os.path.join(OUT, "work", tag)
    results_dir = os.path.join(OUT, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(args.seed), fh, indent=2, sort_keys=True)

    run_start = time.monotonic()
    rc, _, _, _, stderr = _spawn("import", os.path.join(work, "import.json"), [], work,
                                 run_start + RUN_LIMIT_S)
    if rc != 0:
        print("cannot import gdro: %s" % stderr.strip()[-400:], file=sys.stderr)
        return 2
    if args.trace:
        plain = measure("plain", workload, config_path, work, args.seconds / 2, 2, run_start)
        traced = measure("trace", workload, config_path, work, args.seconds / 2, 1, run_start,
                         start_k=len(plain))
    else:
        plain = measure("plain", workload, config_path, work, args.seconds, MIN_SAMPLES,
                        run_start, calibrate=True)
        traced = []
    samples = plain + traced

    digests = collections.Counter(s.digest for s in samples if s.digest)
    reference = digests.most_common(1)[0][0] if digests else ""
    for s in samples:
        if s.digest and s.digest != reference:
            s.errors.append("output bytes differ from the other processes of the run")
    failed = sum(not s.ok for s in samples)
    good = [s for s in plain if s.ok]
    summary = good[0].summary if good else {}

    e2e = {}
    extra = {"fail_frac": failed / len(samples), "residual_sup": summary.get("residual_sup")}
    if good:
        e2e = {"peak_rss_mb": _median(s.peak_rss_mb for s in good),
               "cross_gap": max(summary["cross_gap"], CROSS_GAP_FLOOR)}
        if not args.trace:
            e2e.update(wall_s=_median(s.wall_s * REF_CALIBRATION_S / s.cal_wall_s for s in good),
                       cpu_s=_median(s.cpu_s * REF_CALIBRATION_S / s.cal_cpu_s for s in good),
                       setup_s=_median(s.setup_s * REF_CALIBRATION_S / s.cal_wall_s
                                       for s in good))
        extra.update(raw_wall_s=_median(s.wall_s for s in good),
                     raw_cpu_s=_median(s.cpu_s for s in good),
                     raw_setup_s=_median(s.setup_s for s in good))
        if not args.trace:
            extra["calibration_s"] = _median(s.cal_wall_s for s in good)

    run_errors = []
    layers = {}
    speedup = None
    good_traced = [s for s in traced if s.ok]
    if args.trace and good_traced and good:
        for name in PER_LAYER:
            vals = [s.layers.get(name) for s in good_traced]
            if all(v is not None for v in vals):
                # counts repeat exactly; keep them whole numbers
                layers[name] = vals[0] if len(set(vals)) == 1 else _median(vals)
        layers["cli.output_bytes"] = good_traced[0].output_bytes
        emit_cfg = os.path.join(work, "emit-heavy.json")
        with open(emit_cfg, "w", encoding="utf-8") as fh:
            json.dump(WORKLOADS["emit-heavy"].config(args.seed), fh)
        speedup, error = _speedup(emit_cfg, work, run_start + RUN_LIMIT_S)
        if error:
            run_errors.append(error)
        else:
            layers["parallel.speedup_2t"] = speedup["speedup_2t"]
        layers["trace.overhead_s"] = (_median(s.main_s for s in good_traced)
                                      - _median(s.main_s for s in good))
    run_s = time.monotonic() - run_start

    metrics_out = layers if args.trace else e2e
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = (failed == 0 and not run_errors and bool(good) and set(metrics_out) == set(wanted)
               and all(_finite(v) for v in metrics_out.values()))
    env = environment()

    print("gdro benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (workload.name, args.seed, args.seconds, args.trace))
    print("  processes: %d plain, %d traced; failed %d; run took %.1f s"
          % (len(plain), len(traced), failed, run_s))
    print("  output digest: sha256:%s" % reference)
    _print_metrics("end-to-end (median over untraced processes; wall_s, cpu_s and setup_s "
                   "scaled to the reference calibration time):",
                   dict(e2e, **extra), dict(END_TO_END, **REPORTED_ONLY))
    if args.trace:
        _print_metrics("per-layer (median over traced processes):", layers, PER_LAYER)
        if speedup:
            print("  speed-up base: emit-heavy solvers %.4g s at 1 thread, %.4g s at 2"
                  % (speedup["solver_1t_s"], speedup["solver_2t_s"]))
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()))
    for s in samples:
        for e in s.errors:
            print("  failure (%s): %s" % (s.mode, e))
    for e in run_errors:
        print("  failure: %s" % e)

    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "digest": reference,
                   "config": workload.config(args.seed), "correct": correct,
                   "end_to_end": dict(e2e, **extra), "per_layer": layers,
                   "speedup_probe": speedup,
                   "samples": [s.__dict__ for s in samples]},
                  fh, indent=1, default=str)
    spans = sorted(n for n in os.listdir(work) if n.endswith("-spans.json"))
    if spans:  # one traced process's spans are enough to inspect a run
        shutil.move(os.path.join(work, spans[0]),
                    os.path.join(results_dir, "%s-spans.json" % tag))
    shutil.rmtree(work, ignore_errors=True)

    units = dict(END_TO_END, **PER_LAYER)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics_out.items() if _finite(v)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
