"""One benchmark child process: a single `gdro solve` through gdro.cli.main.

    python3 -I child.py ROOT MODE MARKS_JSON [gdro arguments...]

MODE is one of:

- ``calibrate`` run a fixed reference kernel that does not touch gdro;
- ``import``  import gdro and exit (warms the file cache and bytecode);
- ``plain``   run the solve, recording only when ``validate_problem``
              returns, which ends set-up and precedes the first solver call;
- ``trace``   run the solve with every layer probe of tracer.py installed;
- ``speedup`` time the solvers of the config's problem at 1 and 2 threads.

MARKS_JSON receives the CLOCK_MONOTONIC times the parent needs (set-up end,
end of ``main``) and, when tracing, the per-layer metrics.  The exit code is
the solve's own.
"""

from __future__ import annotations

import json
import os
import sys
import time


#: kernel rounds; the calibration process takes about 0.25 s on an idle core
CALIBRATION_ROUNDS = 6000


def _calibrate():
    """The reference work that run.py times next to every solve.

    It mixes the two kinds of work a gdro sweep does: small numpy row
    operations and interpreted integer loops.  It depends on nothing in the
    repository, so only the machine's speed moves its time.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 201)
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(CALIBRATION_ROUNDS):
        y = np.minimum(np.sin(x + 0.001 * k) * 0.5 + np.maximum(x, 0.1 * k), 2.0)
        acc += float(y[k % x.size])
        for i in range(150):
            acc += (i * k) % 7
    return {"kernel_s": time.perf_counter() - t0, "checksum": acc}


def _speedup(config_path):
    from gdro import (PdeSchemeParams, penalized_sweep, solve_double_obstacle_direct,
                      solve_penalized_pde)
    from gdro.cli import load_config

    cfg = load_config(config_path)
    params = PdeSchemeParams(grid=cfg.grid, penalty=cfg.penalties)

    def solver_s(threads):
        t0 = time.perf_counter()
        penalized_sweep(cfg.spec, cfg.grid, cfg.penalties, threads=threads)
        solve_penalized_pde(cfg.spec, params, threads=threads)
        solve_double_obstacle_direct(cfg.spec, params, threads=threads)
        return time.perf_counter() - t0

    one, two = solver_s(1), solver_s(2)
    return {"solver_1t_s": one, "solver_2t_s": two, "speedup_2t": one / two}


def main(argv):
    root, mode, marks_path, gdro_args = argv[0], argv[1], argv[2], argv[3:]
    if mode == "calibrate":
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(_calibrate(), fh)
        return 0
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gdro.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print("gdro imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    marks = {}
    rc = 0
    if mode == "speedup":
        marks.update(_speedup(gdro_args[gdro_args.index("--config") + 1]))
    elif mode in ("plain", "trace"):
        tracer = None
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer, layer_metrics
            work, marks_file = os.path.split(os.path.splitext(marks_path)[0])
            tracer = Tracer("%s/%s" % (os.path.basename(work), marks_file))
            tracer.install()
        validate = cli.validate_problem

        def marked_validate(*args, **kwargs):
            try:
                return validate(*args, **kwargs)
            finally:
                marks.setdefault("setup_end", time.monotonic())

        cli.validate_problem = marked_validate
        try:
            rc = cli.main(gdro_args)
        finally:
            marks["main_end"] = time.monotonic()
            cli.validate_problem = validate
        if tracer is not None:
            tracer.uninstall()
            marks["layers"] = layer_metrics(tracer.spans)
            tracer.dump(os.path.splitext(marks_path)[0] + "-spans.json")
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
