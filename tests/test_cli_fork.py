"""The forked paths of ``gdro solve``: the lattice's main batch swept in a child
process while the parent solves the PDE, and below that gate the two lanes,
the lattice batch and the direct PDE in a child beside the penalized PDE,
then the lattice field's CSV in a child beside the other output files.  All
of them run through ``cli._run_jobs``, whose order contract is tested on its
own, and which runs every job in-process where it cannot fork.

The grids of these tests are below both gates, so each test lowers one of
them to 0 and compares the forked run with the same run in-process.
"""

import errno
import itertools
import json
import os
import pickle
import signal
import time

import pytest

import gdro.cli
import gdro.lattice
from gdro.cli import EXIT_OK, EXIT_STABILITY, EXIT_VALIDATION, ConfigError, main
from gdro.expr import ParseError, parse_expr
from gdro.gcore import Grid, StabilityError
from gdro.scheme import NonFiniteField

UNCERTAIN_SINE = {
    "horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
    "sigma_low": 0.5, "sigma_high": 1.0, "phi": "0.1*sin(x)", "h": "-1", "h_prime": "1",
}


@pytest.fixture
def forks(monkeypatch):
    """Lower the gate to 0 and record each fork of a run."""
    monkeypatch.setattr(gdro.cli, "_FORK_NODES", 0)
    if not gdro.cli._fork_pays(Grid(n_t=1, n_x=3, t_max=1.0, x_min=0.0, x_max=1.0), 0):
        pytest.skip("needs os.fork and two usable CPUs")
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def _run(tmp_path, payload, out):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return main(["solve", "--config", str(path), "--out", str(tmp_path / out)])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def lanes(monkeypatch, forks):
    """Restore the fork gate, lower the lane gate to 0 and record each fork."""
    monkeypatch.setattr(gdro.cli, "_FORK_NODES", 1 << 62)
    monkeypatch.setattr(gdro.cli, "_LANE_NODES", 0)
    return forks


def _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks,
                            gate="_FORK_NODES", count=1, outs=("seq", "fork")):
    """(exit code, stderr) of the run in-process, then forked ``count`` times
    with ``gate`` lowered, each into its directory of ``outs``."""
    with monkeypatch.context() as m:
        m.setattr(gdro.cli, gate, 1 << 62)
        rc = _run(tmp_path, payload, outs[0])
    assert forks == []
    seq = rc, capsys.readouterr().err
    rc = _run(tmp_path, payload, outs[1])
    assert forks == [1] * count
    _no_child_left()
    return seq, (rc, capsys.readouterr().err)


@pytest.mark.parametrize("method, emit", [
    ("both", ["field", "report", "residual"]), ("pde", ["field", "report"])])
def test_forked_run_is_byte_identical(tmp_path, monkeypatch, capsys, forks, method, emit):
    # the main cell, the probes and the ladders' cells are one batch, which
    # the forked run sweeps in the child and none here
    batches = []
    run_sweep = gdro.lattice._run_sweep
    monkeypatch.setattr(gdro.lattice, "_run_sweep",
                        lambda *args: batches.append(args[2]) or run_sweep(*args))
    payload = {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
               "method": method, "emit": emit,
               "ladders": {"n_list": [4, 8], "m_list": [10, 100], "epsilon_list": [0.1, 0.01]}}
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks)
    assert seq == fork and seq[0] == EXIT_OK
    # main cell, probes, reflected rungs, double ladder, m-row at n_upper = 64
    assert [len(b) for b in batches] == [1 + 2 + 2 + 2 * 2 + 2]
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fork").iterdir())
    assert "summary.json" in names and "report.csv" in names
    for name in names:
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "fork" / name).read_bytes()


def _slow_sweeps(monkeypatch):
    # the child's sweep starts late, so the parent's PDE fails first in wall time
    sweep_cells = gdro.cli.sweep_cells

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return sweep_cells(*args, **kwargs)

    monkeypatch.setattr(gdro.cli, "sweep_cells", slow)


@pytest.mark.parametrize("payload, code, record", [
    # sqrt of a negative value only in the lattice's ghost cells; the PDE solves
    ({"problem": dict(UNCERTAIN_SINE, sigma="sqrt(x + 3.2)"),
      "grid": {"n_t": 20, "n_x": 41}, "method": "both", "emit": ["residual"]},
     EXIT_VALIDATION, 'validate status=fail kind=domain-error detail="sqrt of negative value'),
    # the lattice's drift weight fails at its first step, for the main cell
    # and the n-ladder's rungs of its batch alike; the PDE, which reads sigma
    # at the reported times only, solves it in 68 substeps per step
    ({"problem": dict(UNCERTAIN_SINE, phi="0.1*sin(3*x)", b="40*t*t*(1 + 0.1*x)",
                      sigma="1 + 3*pos(sin(62.83185307179586*t))"),
      "grid": {"n_t": 20, "n_x": 121}, "method": "both", "emit": [],
      "ladders": {"n_list": [4, 8]}},
     EXIT_STABILITY, 'stability status=rejected detail="drift displacement per step'),
    # a non-finite probe, found after both sides return
    ({"problem": dict(UNCERTAIN_SINE, f="2*sin(x) - 0.3*y", h="-0.4 + 0.1*sin(x + t)",
                      h_prime="0.4 + 0.1*sin(x - t)"),
      "grid": {"n_t": 20, "n_x": 33}, "method": "pde",
      "penalties": {"n_upper": 64, "m_lower": 64, "penalty_mode": "nodewise-implicit"},
      "ladders": {"epsilon_list": [0.1, float("inf")]}},
     EXIT_STABILITY, "stability status=rejected kind=non-finite-field eps=inf t_index=19"),
    # a subtree of the driver free of y and z, undefined between the
    # validation's sample times; both solvers raise once they reach t = 0.6
    ({"problem": dict(UNCERTAIN_SINE, f="0.1*sqrt(abs(t - 0.6) - 0.04)*sin(x) - 0.3*y"),
      "grid": {"n_t": 20, "n_x": 33}, "method": "both", "emit": ["residual"]},
     EXIT_VALIDATION, 'validate status=fail kind=domain-error detail="sqrt of negative value '
                      "in 'sqrt((abs((t - 0.6)) - 0.04))'\""),
], ids=["ghost-cell-domain-error", "lattice-and-pde-stability", "non-finite-probe",
        "driver-subtree-domain-error"])
def test_forked_failure_matches_in_process(tmp_path, monkeypatch, capsys, forks,
                                           payload, code, record):
    _slow_sweeps(monkeypatch)
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks)
    assert seq == fork
    assert fork[0] == code and record in fork[1]
    assert not (tmp_path / "fork").exists()


def test_pde_failure_still_raised_after_lattice_success(tmp_path, monkeypatch, capsys, forks):
    def failing(*args, **kwargs):
        raise StabilityError("pde rejected")

    monkeypatch.setattr(gdro.cli, "solve_penalized_pde", failing)
    rc = _run(tmp_path, {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
                         "method": "both"}, "fork")
    assert forks == [1] and rc == EXIT_STABILITY
    assert 'stability status=rejected detail="pde rejected"' in capsys.readouterr().err
    _no_child_left()


def test_child_without_result_raises(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(gdro.cli, "sweep_cells", lambda *args: os._exit(0))
    with pytest.raises(RuntimeError, match="the lattice child exited without a result"):
        _run(tmp_path, {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
                        "method": "both"}, "fork")
    _no_child_left()


def test_parent_interrupt_kills_child(tmp_path, monkeypatch, forks):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    killed = []
    kill = os.kill
    monkeypatch.setattr(gdro.cli, "sweep_cells", lambda *args: time.sleep(60))
    monkeypatch.setattr(gdro.cli, "solve_penalized_pde", interrupted)
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(sig) or kill(pid, sig))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
                        "method": "both"}, "fork")
    assert time.monotonic() - start < 30
    assert killed == [signal.SIGKILL]
    _no_child_left()


LANE_RUN = {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
            "method": "both", "emit": ["field", "report", "residual"],
            "ladders": {"n_list": [4, 8], "m_list": [10, 100], "epsilon_list": [0.1, 0.01]}}


def test_lanes_are_byte_identical(tmp_path, monkeypatch, capsys, lanes):
    # the solve lane, then the emit lane
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, LANE_RUN, lanes,
                                        gate="_LANE_NODES", count=2)
    assert seq == fork and seq[0] == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert names == ["field_lattice.csv", "field_pde.csv", "report.csv", "residual.csv",
                     "summary.json"]
    assert names == sorted(p.name for p in (tmp_path / "fork").iterdir())
    for name in names:
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "fork" / name).read_bytes()


@pytest.mark.parametrize("call, error", [
    ((os, "fork"), BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ((gdro.cli.tempfile, "TemporaryFile"), OSError(errno.ENOSPC, "No space left on device")),
], ids=["fork", "temporary-file"])
@pytest.mark.parametrize("schedule, gate, emit, attempts", [
    ("forks", "_FORK_NODES", ["field", "report", "residual"], 1),
    ("lanes", "_LANE_NODES", ["field", "report", "residual"], 2),
    ("lanes", "_LANE_NODES", ["field", "report"], 1),
], ids=["forked-batch", "solve-and-emit-lanes", "emit-lane"])
def test_run_that_cannot_fork_runs_in_process(tmp_path, monkeypatch, capsys, request,
                                              call, error, schedule, gate, emit, attempts):
    # each schedule falls back to the in-process run, with no record of its own
    forks = request.getfixturevalue(schedule)
    failed = []

    def fail(*args):
        failed.append(1)
        raise error

    monkeypatch.setattr(*call, fail)
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys,
                                        dict(LANE_RUN, emit=emit), forks, gate=gate, count=0)
    assert seq == fork and seq[0] == EXIT_OK
    assert failed == [1] * attempts
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert "field_lattice.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "fork").iterdir())
    for name in names:
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "fork" / name).read_bytes()


def _rejected(detail):
    def solve(*args, **kwargs):
        raise StabilityError(detail)
    return solve


@pytest.mark.parametrize("failing, reported", [
    (("solve_penalized_pde", "solve_double_obstacle_direct"), "solve_penalized_pde"),
    (("solve_double_obstacle_direct",), "solve_double_obstacle_direct"),
    (("sweep_cells", "solve_double_obstacle_direct"), "sweep_cells")],
    ids=["penalized-and-direct", "direct", "lattice-and-direct"])
def test_lane_errors_surface_in_process_order(tmp_path, monkeypatch, capsys, lanes,
                                              failing, reported):
    # the child sweeps the lattice and then solves the direct PDE, whose
    # error is raised only after the penalized solve here has succeeded
    for name in failing:
        monkeypatch.setattr(gdro.cli, name, _rejected(name))
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, LANE_RUN, lanes,
                                        gate="_LANE_NODES")
    assert seq == fork and fork[0] == EXIT_STABILITY
    records = [line for line in fork[1].splitlines() if line.startswith("stability")]
    assert records == ['stability status=rejected detail="%s"' % reported]


def test_emit_lane_child_error_matches_in_process(tmp_path, monkeypatch, capsys, lanes):
    # the child's field_lattice.csv fails; the same directory serves both runs,
    # so the record names the same path.  The parent's files may be written
    (tmp_path / "out" / "field_lattice.csv").mkdir(parents=True)
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, LANE_RUN, lanes,
                                        gate="_LANE_NODES", count=2, outs=("out", "out"))
    assert seq == fork and fork[0] == EXIT_VALIDATION
    assert 'output status=error detail="[Errno 21] Is a directory: ' in fork[1]
    assert "field_lattice.csv" in fork[1].splitlines()[-1]


def test_run_below_the_lane_gate_forks_nothing(tmp_path, monkeypatch, lanes):
    monkeypatch.setattr(gdro.cli, "_LANE_NODES", 21 * 33 + 1)
    assert _run(tmp_path, LANE_RUN, "out") == EXIT_OK
    assert lanes == []
    _no_child_left()


def _job(i, failing):
    def job():
        if i in failing:
            raise ValueError("job %d failed" % i)
        return 10 * i
    return job


def _subsets(items):
    return [set(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_jobs_keeps_the_in_process_order(monkeypatch):
    # every split of three jobs between the two processes, with every set of
    # failing jobs: the in-process results, or the first failing job's error
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    for child, failing in itertools.product(_subsets(range(3)), _subsets(range(3))):
        jobs = [_job(i, failing) for i in range(3)]
        if failing:
            with pytest.raises(ValueError, match="job %d failed" % min(failing)):
                gdro.cli._run_jobs(jobs, tuple(sorted(child)))
        else:
            assert gdro.cli._run_jobs(jobs, tuple(sorted(child))) == [0, 10, 20]
        _no_child_left()
    assert len(forked) == 7 * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_stops_at_its_first_failing_job(tmp_path):
    marker = tmp_path / "ran"
    jobs = [_job(0, {0}), _job(1, ()), marker.touch]
    with pytest.raises(ValueError, match="job 0 failed"):
        gdro.cli._run_jobs(jobs, (0, 2))
    assert not marker.exists()
    _no_child_left()


def _parse_error():
    with pytest.raises(ParseError) as caught:
        parse_expr("x +* 2")
    return caught.value


@pytest.mark.parametrize("make, attrs", [
    (_parse_error, ("position",)),
    (lambda: ConfigError("expected a number", "/grid/n_t"), ("pointer",)),
    (lambda: NonFiniteField({"n": 4.0, "m": float("inf")}, 12, 3),
     ("label", "t_index", "x_index")),
], ids=["ParseError", "ConfigError", "NonFiniteField"])
def test_errors_survive_pickling(make, attrs):
    # the child's result, an error included, reaches the parent as a pickle
    err = make()
    back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(err)
    assert str(back) == str(err)
    for name in attrs:
        assert getattr(back, name) == getattr(err, name)
