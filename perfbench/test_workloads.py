"""The generated varcoef-pde problems are valid and solve to finite fields,
and run.py reports the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench/test_workloads.py

Kept beside the benchmark, outside the package's ``tests/``, so the
package's own test suite does not pay for these full-size solves.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gdro import (PdeSchemeParams, penalized_sweep, solve_penalized_pde,  # noqa: E402
                  validate_problem)
from gdro.cli import main, parse_config  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import KAPPA_F, WORKLOADS  # noqa: E402

VARCOEF = WORKLOADS["varcoef-pde"]


def test_benchmark_json_matches_run_py():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


def test_seed_fixes_the_inputs():
    assert VARCOEF.config(3) == VARCOEF.config(3)
    assert VARCOEF.config(3) != VARCOEF.config(4)


def test_work_does_not_depend_on_the_seed():
    a, b = VARCOEF.config(1), VARCOEF.config(2)
    assert a["grid"] == b["grid"] and a["penalties"] == b["penalties"]
    fixed_amplitude = "1 + 0.2*sin(0.5*x + t + "
    assert a["problem"]["sigma"].startswith(fixed_amplitude)
    assert b["problem"]["sigma"].startswith(fixed_amplitude)


@pytest.mark.parametrize("seed", range(20))
def test_generated_problem_validates(seed):
    cfg = parse_config(VARCOEF.config(seed))
    report = validate_problem(cfg.spec, cfg.grid, kappa_f=KAPPA_F)
    assert report.ok, report.first_violation
    assert not report.warnings
    assert max(report.f_lipschitz_y, report.f_lipschitz_z) < KAPPA_F


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_problem_solves_to_finite_fields(seed, tmp_path):
    config = VARCOEF.config(seed)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out), "--assert",
                 "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert math.isfinite(summary["cross_gap"])
    assert all(math.isfinite(v) for v in summary["anchor_values"].values())

    cfg = parse_config(config)
    fields = [penalized_sweep(cfg.spec, cfg.grid, cfg.penalties),
              solve_penalized_pde(cfg.spec, PdeSchemeParams(grid=cfg.grid,
                                                            penalty=cfg.penalties))]
    for fld in fields:
        for name in ("u", "z", "a_plus", "a_minus", "k_defect"):
            assert np.all(np.isfinite(getattr(fld, name))), name
