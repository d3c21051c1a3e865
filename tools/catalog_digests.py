"""SHA-256 digests of every catalog entry's CLI outputs.

    python3 tools/catalog_digests.py [--root DIR] [--work DIR]

Runs ``gdro solve --assert --method both`` on each catalog entry at its
default grid and on the inline problems of ``INLINE``, which may set a method
of their own, emitting field, report and residual files, with the package imported from ``DIR/src`` (default:
this checkout).  Prints one line per output file, ``<entry> <file>
<sha256>``, plus each run's exit code.  Two checkouts whose printouts match
produce byte-identical outputs, which is the contract a
behaviour-preserving refactor must keep:

    python3 tools/catalog_digests.py --root ../old > old.txt
    python3 tools/catalog_digests.py > new.txt
    diff old.txt new.txt

Uses only the standard library; the solves run in child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

_LIST_ENTRIES = ("import json; from gdro.catalog import CATALOG; "
                 "print(json.dumps({k: list(e.grid) for k, e in sorted(CATALOG.items())}))")


#: a problem whose every coefficient varies in t and x
_VARCOEF = {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
            "sigma_low": 0.5, "sigma_high": 1.0,
            "b": "0.1*sin(x + t + 0.5)", "l": "0.04*cos(x - 2*t + 1)",
            "sigma": "1 + 0.2*sin(0.5*x + t + 2)",
            "f": "sin(x + 3)*cos(t + 0.3) - 0.3*y + 0.1*z*cos(x + t)",
            "phi": "0.08*sin(x + 1.5)", "h": "-0.4 + 0.08*sin(x + t + 2.5)",
            "h_prime": "0.4 + 0.08*sin(x - t + 4)"}

#: inline runs.  varcoef-inline has both ladders and the stability probes: no
#: catalog entry has a t-dependent sigma, b or l, so only these runs change
#: the solvers' coefficient tables and lattice kernels from one time row to
#: the next.  varcoef-ladder-errors runs the ladder rows that hold an error,
#: which no catalog entry has: an invalid rung (n = -1), rungs failing the
#: explicit CFL check (n = 64, and (16, 20) of the double ladder), and an
#: n_upper outside n_list, so the m-ladder is a row of its own.
#: zero-intensity runs nodewise-implicit penalties at intensity 0: n = 0 in
#: the main cell, the probe and the m-ladder, and m = 0 in a double-ladder
#: column.  Its n_list holds no 0, which has no log for the rate fit.
#: varcoef-forked has the grid of the varcoef-pde benchmark workload, above
#: cli._FORK_NODES where no catalog default grid is, so its lattice batch,
#: main cell and probe, is swept in a forked child beside the PDE solves.
#: Every catalog default grid, varcoef-inline and wide-slices are at or
#: above cli._LANE_NODES and below cli._FORK_NODES, so they take both
#: lanes: the lattice batch and the direct PDE in a child beside the
#: penalized PDE, then field_lattice.csv in a child beside the other files
#: (varcoef-forked takes the emit lane too); the inline runs on 41x41
#: nodes, such as varcoef-ladder-errors, and the other small ones stay
#: in-process, so the digests of two checkouts compare every path.
#: driver-split has a driver whose subtrees free of y and z, which both
#: solvers and the residual evaluate as tables with t bound as an array,
#: include one of t alone (exp(-0.5*t), where a Python float's exp may
#: differ from the array's in the last bit), a sqrt and a log defined on the
#: whole grid, and y and z inside max and abs.
#: operators has coefficients and a driver built from "/", "^", unary minus,
#: min, pos and neg, which no other run uses, so each of those node types
#: is evaluated on every solver path: the coefficient tables, the driver's
#: subtrees free of y and z and its residual in y and z.
#: wide-slices has time slices of 1,201 nodes, wider than the CSV writers'
#: block of cli._BLOCK_NODES = 1,024 grid nodes, where no catalog default
#: grid is, so each slice is a block of its own; its last residual slice is
#: all nan, so one block writes no row.  b = l = 0 and sigma = 0.1 keep the
#: PDE's substeps and the lattice margin small.
#: lexical writes the varcoef coefficients with the number forms '.5', '1.'
#: and '4E-2', a power '**', and a tab, a newline and a no-break space, so
#: two checkouts' expression scanners are compared on a full solve.
#: signed-zeros has h = -0*x, which is +0.0 left of x = 0 and -0.0 from it,
#: a terminal value phi = max(h, -1 + 0.1*sin(x)) that sits on h, and the
#: varcoef driver without its source term, so the value stays on h: every
#: obstacle update of both solvers, penalized and direct, meets a tie
#: between +0.0 and -0.0.  It has no ladders and no probes, so each solve is
#: one cell, whose operands have the shape of one (1, nodes) row.
#: peaked-sigma is the one run whose coefficients peak between reported
#: times: sigma is 1 at every t = k/20 and reaches 4 in between, so it pins
#: that both solvers read the coefficients at the reported times only.
#: pde-probes and lattice-residual are the runs of one method: under
#: --method pde the probes keep the main lattice cell only as their base,
#: and under --method lattice the residual solves the direct PDE without the
#: penalized one and --assert checks its pushing minimality.
INLINE = {
    "varcoef-inline": {
        "problem": _VARCOEF,
        "grid": {"n_t": 120, "n_x": 61},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0, 64.0, 256.0], "m_list": [10.0, 100.0],
                    "epsilon_list": [0.1, 0.01]}},
    "varcoef-ladder-errors": {
        "problem": _VARCOEF,
        "grid": {"n_t": 40, "n_x": 41},
        "penalties": {"n_upper": 8.0, "m_lower": 10.0, "penalty_mode": "explicit"},
        "ladders": {"n_list": [-1.0, 4.0, 16.0, 64.0], "m_list": [2.0, 10.0, 20.0],
                    "epsilon_list": [0.1]}},
    "zero-intensity": {
        "problem": _VARCOEF,
        "grid": {"n_t": 40, "n_x": 41},
        "penalties": {"n_upper": 0.0, "m_lower": "projection",
                      "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0], "m_list": [0.0, 10.0], "epsilon_list": [0.1]}},
    "varcoef-forked": {
        "problem": _VARCOEF,
        "grid": {"n_t": 500, "n_x": 201},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"epsilon_list": [0.1]}},
    "driver-split": {
        "problem": dict(_VARCOEF, f="exp(-0.5*t)*(0.3 - 0.3*max(y, -0.2))"
                                    " + 0.1*sqrt(2 + sin(x + t))*abs(z)"
                                    " + 0.5*cos(t + 0.3)*log(1.5 + sin(x))"),
        "grid": {"n_t": 60, "n_x": 41},
        "penalties": {"n_upper": 64.0, "m_lower": "projection",
                      "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0, 64.0], "m_list": [10.0, 100.0],
                    "epsilon_list": [0.1]}},
    "operators": {
        "problem": dict(_VARCOEF, b="-0.1*x/(1 + x^2)", l="0.05*min(1, pos(x - t))",
                        sigma="1 + 0.1*x^2/(4 + x^2)",
                        f="-0.2*y + 0.5*neg(y - 0.1) - 0.2*pos(z)/(1 + t^2)"
                          " + min(0.3, x^2/(1 + t))",
                        phi="0.1*min(x^2, 1) - 0.05", h="-0.4 - 0.05*neg(sin(x + t))",
                        h_prime="0.4 + 0.05*pos(x)/(1 + t^2)"),
        "grid": {"n_t": 60, "n_x": 41},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0, 64.0], "m_list": [10.0, 100.0],
                    "epsilon_list": [0.1]}},
    "wide-slices": {
        "problem": dict(_VARCOEF, b="0", l="0", sigma="0.1"),
        "grid": {"n_t": 20, "n_x": 1201},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0, 64.0]}},
    "lexical": {
        "problem": dict(_VARCOEF, b="0.1*sin(x + t + .5)", l="4E-2*cos(x - 2*t + 1.)",
                        sigma="1 + 0.2*sin(.5*x\t+ t + 2)",
                        f="sin(x + 3)*cos(t + 0.3) - 0.3*y\n + 0.1*z*cos(x + t)**1",
                        phi="0.08*sin(x\u00a0+ 1.5)"),
        "grid": {"n_t": 40, "n_x": 41},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"n_list": [4.0, 16.0], "m_list": [10.0], "epsilon_list": [0.1]}},
    "signed-zeros": {
        "problem": dict(_VARCOEF, h="-0*x", phi="max(-0*x, -1 + 0.1*sin(x))",
                        f="-0.3*y + 0.1*z*cos(x + t)"),
        "grid": {"n_t": 40, "n_x": 41},
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"}},
    "peaked-sigma": {
        "problem": {"horizon": 1.0, "x_min": -3.0, "x_max": 3.0,
                    "sigma_low": 0.5, "sigma_high": 1.0,
                    "sigma": "1 + 3*pos(sin(62.83185307179586*t))", "phi": "0.1*sin(3*x)"},
        "grid": {"n_t": 20, "n_x": 121}},
    "pde-probes": {
        "problem": _VARCOEF,
        "grid": {"n_t": 40, "n_x": 41},
        "method": "pde",
        "penalties": {"n_upper": 64.0, "m_lower": 64.0, "penalty_mode": "nodewise-implicit"},
        "ladders": {"epsilon_list": [0.1, 0.01]}},
    "lattice-residual": {
        "problem": _VARCOEF,
        "grid": {"n_t": 40, "n_x": 41},
        "method": "lattice",
        "penalties": {"n_upper": 8.0, "m_lower": "projection", "penalty_mode": "explicit"},
        "ladders": {"n_list": [4.0, 16.0], "m_list": [10.0]}},
}


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def catalog_digests(root, work):
    """Yield (entry, file, digest) with file '#exit' carrying the exit code."""
    env = _env(root)
    listing = subprocess.run([sys.executable, "-c", _LIST_ENTRIES], env=env,
                             check=True, capture_output=True, text=True)
    configs = {name: {"problem": name, "grid": {"n_t": n_t, "n_x": n_x}}
               for name, (n_t, n_x) in json.loads(listing.stdout).items()}
    for name, run in {**configs, **INLINE}.items():
        out_dir = os.path.join(work, name)
        config = os.path.join(work, name + ".json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"method": "both", "emit": ["field", "report", "residual"], **run}, fh)
        proc = subprocess.run([sys.executable, "-m", "gdro.cli", "solve", "--config", config,
                               "--out", out_dir, "--assert"],
                              env=env, capture_output=True, text=True)
        yield name, "#exit", str(proc.returncode)
        if os.path.isdir(out_dir):
            for fname in sorted(os.listdir(out_dir)):
                yield name, fname, _sha256(os.path.join(out_dir, fname))


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=here, help="checkout whose src/ is run")
    ap.add_argument("--work", help="keep outputs here (default: a temporary directory)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.work:
        os.makedirs(args.work, exist_ok=True)
        rows = list(catalog_digests(root, args.work))
    else:
        with tempfile.TemporaryDirectory() as work:
            rows = list(catalog_digests(root, work))
    for row in rows:
        print(" ".join(row))
    return 0 if all(code == "0" for _, f, code in rows if f == "#exit") else 1


if __name__ == "__main__":
    sys.exit(main())
