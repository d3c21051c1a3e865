"""The forked path of ``gdro solve``: the lattice's main batch swept in a child
process while the parent solves the PDE.

Tier-1 grids are below the fork gate, so these tests lower it to 0 and
compare each forked run with the same run in-process.
"""

import json
import os
import signal
import time

import pytest

import gdro.cli
from gdro.cli import EXIT_OK, EXIT_STABILITY, EXIT_VALIDATION, main
from gdro.gcore import Grid, StabilityError

UNCERTAIN_SINE = {
    "horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
    "sigma_low": 0.5, "sigma_high": 1.0, "phi": "0.1*sin(x)", "h": "-1", "h_prime": "1",
}


@pytest.fixture
def forks(monkeypatch):
    """Lower the gate to 0 and record each fork of a run."""
    monkeypatch.setattr(gdro.cli, "_FORK_NODES", 0)
    if not gdro.cli._fork_pays(Grid(n_t=1, n_x=3, t_max=1.0, x_min=0.0, x_max=1.0)):
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


def _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks):
    """(exit code, stderr) of the run in-process, then forked."""
    with monkeypatch.context() as m:
        m.setattr(gdro.cli, "_FORK_NODES", 1 << 62)
        rc = _run(tmp_path, payload, "seq")
    assert forks == []
    seq = rc, capsys.readouterr().err
    rc = _run(tmp_path, payload, "fork")
    assert forks == [1]
    _no_child_left()
    return seq, (rc, capsys.readouterr().err)


@pytest.mark.parametrize("method, emit", [
    ("both", ["field", "report", "residual"]), ("pde", ["field", "report"])])
def test_forked_run_is_byte_identical(tmp_path, monkeypatch, capsys, forks, method, emit):
    payload = {"problem": "double-obstacle-sine", "grid": {"n_t": 20, "n_x": 33},
               "method": method, "emit": emit,
               "ladders": {"n_list": [4, 8], "m_list": [10, 100], "epsilon_list": [0.1, 0.01]}}
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks)
    assert seq == fork and seq[0] == EXIT_OK
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
    # the lattice's drift weight fails at its first step, and the PDE's
    # explicit bound between reported times fails too: the lattice is reported
    ({"problem": dict(UNCERTAIN_SINE, phi="0.1*sin(3*x)", b="40*t*t*(1 + 0.1*x)",
                      sigma="1 + 3*pos(sin(62.83185307179586*t))"),
      "grid": {"n_t": 20, "n_x": 121}, "method": "both", "emit": []},
     EXIT_STABILITY, 'stability status=rejected detail="drift displacement per step'),
    # a non-finite probe, found after both sides return
    ({"problem": dict(UNCERTAIN_SINE, f="2*sin(x) - 0.3*y", h="-0.4 + 0.1*sin(x + t)",
                      h_prime="0.4 + 0.1*sin(x - t)"),
      "grid": {"n_t": 20, "n_x": 33}, "method": "pde",
      "penalties": {"n_upper": 64, "m_lower": 64, "penalty_mode": "nodewise-implicit"},
      "ladders": {"epsilon_list": [0.1, float("inf")]}},
     EXIT_STABILITY, "stability status=rejected kind=non-finite-field eps=inf t_index=19"),
], ids=["ghost-cell-domain-error", "lattice-and-pde-stability", "non-finite-probe"])
def test_forked_failure_matches_in_process(tmp_path, monkeypatch, capsys, forks,
                                           payload, code, record):
    _slow_sweeps(monkeypatch)
    seq, fork = _in_process_then_forked(tmp_path, monkeypatch, capsys, payload, forks)
    assert seq == fork
    assert fork[0] == code and record in fork[1]
    assert not (tmp_path / "fork").exists()


def test_pde_failure_still_raised_after_lattice_success(tmp_path, monkeypatch, capsys, forks):
    def failing(*args):
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
    def interrupted(*args):
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
