"""Test helpers built on the package.  ``oracles.py`` stays free of the
solvers; what needs them goes here."""

from dataclasses import replace

from gdro import expr as ex


def perturb_lower(spec, eps):
    """The problem with h + eps: what the probe cell SweepCell(penalties,
    eps) solves, which shifts h in the sweep instead."""
    return replace(spec, h=ex.BinOp("+", spec.h, ex.Num(eps)), name=spec.name + "+eps")
