"""SHA-256 digests of every catalog entry's CLI outputs.

    python3 tools/catalog_digests.py [--root DIR] [--work DIR]

Runs ``gdro solve --assert --method both`` on each catalog entry at its
default grid and on the inline problems of ``INLINE``, emitting field, report
and residual files, with the package imported from ``DIR/src`` (default:
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
            json.dump({**run, "method": "both", "emit": ["field", "report", "residual"]}, fh)
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
