"""The benchmark's workloads: one `gdro solve --assert` config each.

Each workload stresses a different layer (README.md gives the reasons):

- ``emit-heavy``    CSV emission and the thread-chunked PDE solves;
- ``ladder-assert`` repeated lattice sweeps of the catalog's penalty ladders;
- ``varcoef-pde``   expression evaluation at every step and PDE substep.

Only ``varcoef-pde`` depends on the seed.  The seed picks phases and
amplitudes inside fixed ranges, while the grid, the penalties and the sigma
amplitude stay fixed, so every seed costs nearly the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: Lipschitz bound on f in (y, z) that the generated problems stay below (gdro's default)
KAPPA_F = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    config: Callable[[int], dict]  # seed -> `gdro solve` config object

    def cli_args(self, config_path: str, out_dir: str) -> list:
        return ["solve", "--config", config_path, "--out", out_dir,
                "--threads", str(self.threads), "--assert"]


def _num(v: float) -> str:
    # 12 decimals keeps the literal exact enough and the expression readable
    return "%.12f" % v


def varcoef_problem(seed: int) -> dict:
    """Smooth inline problem whose coefficients all vary in t and x.

    The seed moves each amplitude by up to 1% and each phase by up to 0.015
    around fixed centres.  The ranges keep the problem valid for every seed:

    - ``h = -0.4 + a_h sin(x + t + p)`` and ``h' = 0.4 + a_hp sin(x - t + q)``
      with amplitudes below 0.1, so ``h <= -0.3 < 0.3 <= h'``;
    - ``phi`` has amplitude below 0.1, so ``h(T) <= phi <= h'(T)``;
    - ``f`` has |df/dy| and |df/dz| near 0.3 and 0.1, well below ``KAPPA_F``;
    - ``sigma = 1 + 0.2 sin(...)`` has a fixed amplitude, so the PDE substep
      count and the lattice stencil spans do not depend on the seed.

    The narrow ranges keep the cross-solver gap, which the benchmark reports,
    comparable between seeds.
    """
    rng = random.Random(seed)

    def amp(centre):
        return _num(centre * rng.uniform(0.99, 1.01))

    def phase(centre):
        return _num(centre + rng.uniform(-0.015, 0.015))

    return {
        "name": "varcoef-%d" % seed,
        "horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
        "sigma_low": 0.5, "sigma_high": 1.0,
        "b": "%s*sin(x + t + %s)" % (amp(0.1), phase(0.5)),
        "l": "%s*cos(x - 2*t + %s)" % (amp(0.04), phase(1.0)),
        "sigma": "1 + 0.2*sin(0.5*x + t + %s)" % phase(2.0),
        "f": "%s*sin(x + %s)*cos(t + %s) - %s*y + %s*z*cos(x + t)"
             % (amp(1.0), phase(3.0), phase(0.3), amp(0.3), amp(0.1)),
        "phi": "%s*sin(x + %s)" % (amp(0.08), phase(1.5)),
        "h": "-0.4 + %s*sin(x + t + %s)" % (amp(0.08), phase(2.5)),
        "h_prime": "0.4 + %s*sin(x - t + %s)" % (amp(0.08), phase(4.0)),
    }


def _emit_heavy(seed):
    return {"problem": "gheat-convex", "grid": {"n_t": 160, "n_x": 81},
            "method": "both", "emit": ["field", "report", "residual"]}


def _ladder_assert(seed):
    return {"problem": "double-obstacle-sine", "grid": {"n_t": 80, "n_x": 65},
            "method": "both", "emit": ["report"]}


def _varcoef_pde(seed):
    return {"problem": varcoef_problem(seed), "grid": {"n_t": 500, "n_x": 201},
            "method": "both", "emit": [],
            "penalties": {"n_upper": 64.0, "m_lower": 64.0,
                          "penalty_mode": "nodewise-implicit", "kappa_f": KAPPA_F}}


WORKLOADS = {w.name: w for w in (Workload("emit-heavy", 2, _emit_heavy),
                                  Workload("ladder-assert", 1, _ladder_assert),
                                  Workload("varcoef-pde", 1, _varcoef_pde))}
