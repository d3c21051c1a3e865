"""Test helpers built on the package.  ``oracles.py`` stays free of the
solvers; what needs them goes here."""


from gdro import expr as ex
from gdro.record import replace


def perturb_lower(spec, eps):
    """The problem with h + eps: what the probe cell SweepCell(penalties,
    eps) solves, which shifts h in the sweep instead."""
    return replace(spec, h=ex.BinOp("+", spec.h, ex.Num(eps)), name=spec.name + "+eps")
