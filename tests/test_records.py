"""The value types behave as plain records: construction, defaults,
equality, hashing, frozenness, repr and pickling, type by type."""

import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from collections.abc import Hashable

import numpy as np
import pytest

import gdro
from gdro import expr as ex
from gdro.catalog import AssertionResult, CatalogEntry
from gdro.cli import RunConfig, RunResults
from gdro.convergence import ConvergenceReport
from gdro.gcore import (DEFAULT_KAPPA_F, EXPLICIT, NODEWISE_IMPLICIT, PROJECTION, Grid,
                        PenaltyParams, ProblemSpec, RunPlan, ValidationReport, Violation,
                        VolatilityBand)
from gdro.lattice import Batch, CellSummary, DoubleLadderReport, Ladder, SweepCell, _Kernel
from gdro.pde import PdeSchemeParams
from gdro.record import replace
from gdro.scheme import LadderRow, SolutionField

GRID = Grid(4, 5, 1.0, -1.0, 1.0)
PEN = PenaltyParams(8.0, 2.0)
SPEC = ProblemSpec.from_strings(horizon=1.0, x_min=-1.0, x_max=1.0,
                                sigma_low=0.5, sigma_high=1.0)
ARRAYS = [np.full((5, 5), float(k)) for k in range(5)] + [np.zeros((5, 5), dtype=np.int8)]
EXPRS = dict(zip(("b", "l", "sigma", "f", "phi", "h", "h_prime"),
                 (ex.Num(0.0), ex.Num(0.1), ex.Num(1.0), ex.Var("y"), ex.Var("x"),
                  ex.Num(-1.0), ex.Num(1.0))))

#: (type, frozen, every field's value in field order)
CASES = [
    (ex.Expression, True, {}),
    (ex.Num, True, {"value": 1.5}),
    (ex.Var, True, {"name": "x"}),
    (ex.Neg, True, {"operand": ex.Var("x")}),
    (ex.BinOp, True, {"op": "+", "left": ex.Var("x"), "right": ex.Num(2.0)}),
    (ex.Call, True, {"func": "max", "args": (ex.Var("x"), ex.Num(0.0))}),
    (VolatilityBand, True, {"sigma_low": 0.5, "sigma_high": 1.0}),
    (Grid, True, {"n_t": 4, "n_x": 5, "t_max": 1.0, "x_min": -1.0, "x_max": 1.0}),
    (Violation, True, {"kind": "obstacle-crossing", "t_index": 1, "x_index": 2,
                       "t": 0.25, "x": 0.0, "detail": "h > h'"}),
    (SweepCell, True, {"penalties": PEN, "h_shift": 0.01}),
    (PdeSchemeParams, True, {"grid": GRID, "penalty": PEN}),
    (CatalogEntry, True, {"name": "e", "problem": {"horizon": 1.0}, "grid": (4, 5),
                          "penalties": {"n_upper": 8.0}, "anchor_x": 0.0,
                          "ladders": {"n_list": [4, 8]}}),
    (RunPlan, True, {"sigma_high": 1.0, "sigma2": 1.44, "pde_drift": 0.2, "sigma": 1.2,
                     "drift": (0.1, 0.15)}),
    (ValidationReport, False, {"ok": True, "violations": [], "f_lipschitz_y": 0.3,
                               "f_lipschitz_z": 0.1, "warnings": ["w"]}),
    (DoubleLadderReport, False, {"n_list": [4.0], "m_list": [2.0], "cells": [[None]]}),
    (SolutionField, False, dict(zip(("grid", "u", "z", "a_plus", "a_minus", "k_defect",
                                     "sigma_choice"), [GRID] + ARRAYS))),
    (ConvergenceReport, False, {"rows": [1], "rate_slope": -1.0}),
    (AssertionResult, False, {"name": "a", "ok": True, "value": 0.5, "budget": 1.0}),
    (RunConfig, False, {"spec": SPEC, "grid": GRID, "method": "both", "penalties": PEN,
                        "ladders": {}, "output_dir": "out", "emit": ("report",),
                        "entry": None}),
    (RunResults, False, {"grid": GRID, "fields": {"pde": None}, "direct_field": None,
                         "residual_sup": 0.1, "cross_gap": 0.2, "ladder_report": None,
                         "double_report": None, "m_ladder": [], "stability_gaps": [0.0]}),
    (ProblemSpec, True, {"horizon": 1.0, "x_min": -1.0, "x_max": 1.0,
                         "band": VolatilityBand(0.5, 1.0), **EXPRS, "name": "p"}),
    (PenaltyParams, True, {"n_upper": 8.0, "m_lower": PROJECTION,
                           "penalty_mode": NODEWISE_IMPLICIT, "kappa_f": 3.0}),
    (LadderRow, False, {"n": 4.0, "m": np.inf, "sup_upper_violation": 0.1,
                        "sup_lower_violation": 0.0, "mono_gap_n": 0.0, "mono_gap_m": np.nan,
                        "asc_plus": 0.0, "asc_minus": 1e-3, "z_gap": 0.5, "error": None}),
    (_Kernel, True, dict(zip(("s", "p", "up", "dn", "drift_to"), ARRAYS))),
    (CellSummary, False, {"field": None, "bad": (1, 2), "violations": (0.0, 0.5),
                          "asc": (0.0, 0.25), "gaps": {("order", SweepCell(PEN)): 0.1}}),
    (Ladder, True, {"n_list": (4.0, 8.0), "m_list": (10.0, 100.0), "penalty_mode": EXPLICIT,
                    "kappa_f": 5.0}),
]
FROZEN = [case for case in CASES if case[1]]
MUTABLE = [case for case in CASES if not case[1]]


def _ids(case):
    return case[0].__name__


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_positional_and_keyword_construction_agree(case):
    cls, _, values = case
    by_position, by_name = cls(*values.values()), cls(**values)
    assert by_position == by_name
    for name, value in values.items():
        assert getattr(by_position, name) is value
        assert getattr(by_name, name) is value


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_repr_names_every_field(case):
    cls, _, values = case
    want = "%s(%s)" % (cls.__name__, ", ".join("%s=%r" % kv for kv in values.items()))
    assert repr(cls(**values)) == want


def test_repr_of_a_parse():
    assert repr(ex.parse_expr("x + 1")) == "BinOp(op='+', left=Var(name='x'), right=Num(value=1.0))"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_equal_fields_make_equal_records(case):
    cls, _, values = case
    assert cls(**values) == cls(*values.values())
    assert cls(**values) != tuple(values.values())


def test_one_different_field_makes_a_different_record():
    assert ex.Num(1.0) != ex.Num(2.0)
    assert ex.BinOp("+", ex.Var("x"), ex.Num(1.0)) != ex.BinOp("-", ex.Var("x"), ex.Num(1.0))
    assert Grid(4, 5, 1.0, -1.0, 1.0) != Grid(4, 7, 1.0, -1.0, 1.0)
    assert SweepCell(PEN) != SweepCell(PEN, 0.5)
    assert SweepCell(PEN) != SweepCell(PenaltyParams(8.0, 3.0))
    assert AssertionResult("a", True, 0.5, 1.0) != AssertionResult("a", False, 0.5, 1.0)


def test_equal_fields_of_different_types_differ():
    assert ex.Num(1.0) != ex.Var(1.0)
    assert ex.Expression() != ex.Num(1.0)
    assert ex.Neg(ex.Num(1.0)) != ex.Num(1.0)


@pytest.mark.parametrize("case", FROZEN, ids=_ids)
def test_frozen_types_refuse_assignment_and_deletion(case):
    cls, _, values = case
    record = cls(**values)
    for name in [*values, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**values)


@pytest.mark.parametrize("case", FROZEN, ids=_ids)
def test_frozen_types_hash_by_value(case):
    cls, _, values = case
    if all(isinstance(v, Hashable) for v in values.values()):
        assert hash(cls(*values.values())) == hash(cls(**values))
    else:  # a CatalogEntry holds dicts, which do not hash
        with pytest.raises(TypeError):
            hash(cls(**values))


@pytest.mark.parametrize("case", MUTABLE, ids=_ids)
def test_mutable_types_are_unhashable_and_assignable(case):
    cls, _, values = case
    record = cls(**values)
    with pytest.raises(TypeError):
        hash(record)
    name = next(iter(values))
    setattr(record, name, "new")
    assert getattr(record, name) == "new"
    assert record != cls(**values)


def test_two_parses_are_equal_and_hash_equal():
    text = "2*sin(x) - 0.3*y + max(t, -x)^2 + 0.1*z*cos(x + t)"
    a, b = ex.parse_expr(text), ex.parse_expr(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_sweep_cell_is_a_dict_key():
    cells = {SweepCell(PenaltyParams(4.0, 2.0)): "a", SweepCell(PEN, 0.5): "b"}
    assert cells[SweepCell(PenaltyParams(n_upper=4.0, m_lower=2.0))] == "a"
    assert cells[SweepCell(penalties=PEN, h_shift=0.5)] == "b"
    assert SweepCell(PEN) not in cells
    assert list(dict.fromkeys([SweepCell(PEN), SweepCell(PEN, 0.0), SweepCell(PEN)])) == [
        SweepCell(PEN)]


#: (type, the required arguments, the defaults of the other fields)
DEFAULTS = [
    (ValidationReport, (True,),
     {"violations": [], "f_lipschitz_y": 0.0, "f_lipschitz_z": 0.0, "warnings": []}),
    (SweepCell, (PEN,), {"h_shift": 0.0}),
    (PdeSchemeParams, (GRID,), {"penalty": PenaltyParams()}),
    (ConvergenceReport, (), {"rows": [], "rate_slope": None}),
    (RunConfig, (SPEC, GRID, "both", PEN, {}, "out", ()), {"entry": None}),
    (RunResults, (GRID,), {"fields": {}, "direct_field": None, "residual_sup": None,
                           "cross_gap": None, "ladder_report": None, "double_report": None,
                           "m_ladder": None, "stability_gaps": []}),
    (ProblemSpec, (1.0, -1.0, 1.0, VolatilityBand(0.5, 1.0), *EXPRS.values()), {"name": ""}),
    (PenaltyParams, (), {"n_upper": 0.0, "m_lower": 0.0, "penalty_mode": EXPLICIT,
                         "kappa_f": DEFAULT_KAPPA_F}),
]


@pytest.mark.parametrize("case", DEFAULTS, ids=_ids)
def test_defaults_and_fresh_factory_values(case):
    cls, required, defaults = case
    a, b = cls(*required), cls(*required)
    for name, value in defaults.items():
        assert getattr(a, name) == value
        if isinstance(value, (list, dict, PenaltyParams)):  # a default_factory field
            assert getattr(a, name) is not getattr(b, name)


@pytest.mark.parametrize("call", [
    lambda: ex.Num(1.0, 2.0),
    lambda: ex.Num(valu=1.0),
    lambda: ex.Num(1.0, value=1.0),
    lambda: ex.BinOp("+", ex.Num(1.0)),
    lambda: Grid(4, 5),
    lambda: SweepCell(),
    lambda: ValidationReport(),
    lambda: PenaltyParams(8.0, 2.0, EXPLICIT, 5.0, 1.0),
    lambda: ProblemSpec(horizon=1.0, x_min=-1.0, x_max=1.0),
    lambda: LadderRow(4.0),
    lambda: LadderRow(4.0, 1.0, cross_gap=0.0),
    lambda: CellSummary(None, None, None, None),
    lambda: Ladder((4.0,), (10.0,), EXPLICIT),
    lambda: _Kernel(*ARRAYS[:4]),
], ids=["extra", "unknown", "repeated", "missing", "missing-kw", "missing-default", "factory",
        "penalties-extra", "spec-missing", "row-missing", "row-cross-gap", "summary-missing",
        "ladder-missing", "kernel-missing"])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: VolatilityBand(0.0, 1.0),
    lambda: VolatilityBand(sigma_low=2.0, sigma_high=1.0),
    lambda: VolatilityBand(1.0, 1e200),
    lambda: Grid(0, 5, 1.0, -1.0, 1.0),
    lambda: Grid(n_t=4, n_x=2, t_max=1.0, x_min=-1.0, x_max=1.0),
    lambda: Grid(4, 5, 1.0, 1.0, 1.0),
    lambda: PenaltyParams(-1.0),
    lambda: PenaltyParams(m_lower=np.nan),
    lambda: PenaltyParams(penalty_mode="implicit"),
    lambda: PenaltyParams(kappa_f=-1.0),
    lambda: ProblemSpec(0.0, -1.0, 1.0, VolatilityBand(0.5, 1.0), *EXPRS.values()),
    lambda: ProblemSpec(1.0, 1.0, 1.0, VolatilityBand(0.5, 1.0), *EXPRS.values()),
    lambda: ProblemSpec.from_strings(horizon=1.0, x_min=-1e308, x_max=1e308,
                                     sigma_low=0.5, sigma_high=1.0),
], ids=["low", "order", "square", "n_t", "n_x", "x", "n_upper", "m_lower", "mode", "kappa_f",
        "horizon", "span", "infinite-span"])
def test_post_init_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_ladder_row_defaults_are_nan():
    row = LadderRow(4.0, np.inf)
    assert row.error is None
    assert np.isnan([getattr(row, name) for name in LadderRow._fields[2:-1]]).all()
    assert np.isnan(row.mono_violation)


def test_ladder_builds_its_columns_once():
    ladder = Ladder([-1.0, 4.0], [2.0, PROJECTION], EXPLICIT, 5.0)
    assert (ladder.n_list, ladder.m_list) == ((-1.0, 4.0), (2.0, PROJECTION))
    assert ladder == Ladder((-1.0, 4.0), (2.0, PROJECTION), EXPLICIT, 5.0)
    (bad, cell), (bad_reflected, rung) = ladder.columns
    assert isinstance(bad, ValueError) and isinstance(bad_reflected, ValueError)
    assert cell == SweepCell(PenaltyParams(4.0, 2.0, EXPLICIT, 5.0))
    assert rung == SweepCell(PenaltyParams(4.0, PROJECTION, EXPLICIT, 5.0))
    # a batch holds the ladder's own cells, not rebuilt ones
    assert [c is d for c, d in zip(Batch.of([ladder]), (cell, rung))] == [True, True]
    assert not ladder.reflected and Ladder((4.0,), (PROJECTION,), EXPLICIT, 5.0).reflected


NEW_TYPES = (ProblemSpec, PenaltyParams, LadderRow, _Kernel, CellSummary, Ladder)


@pytest.mark.parametrize("case", [c for c in CASES if c[0] in NEW_TYPES], ids=_ids)
def test_records_pickle(case):
    cls, frozen, values = case
    record = cls(**values)
    back = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls and repr(back) == repr(record)
    if frozen and all(isinstance(v, Hashable) for v in values.values()):
        assert back == record and hash(back) == hash(record)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(back, next(iter(values)), 0)


def test_replace_rebuilds_through_init():
    pen = PenaltyParams(8.0, 2.0)
    new = replace(pen, m_lower=PROJECTION, kappa_f=1.0)
    assert new == PenaltyParams(8.0, PROJECTION, EXPLICIT, 1.0) and new.project_lower
    assert pen == PenaltyParams(8.0, 2.0, EXPLICIT, DEFAULT_KAPPA_F)
    assert replace(pen) == pen and replace(pen) is not pen
    with pytest.raises(ValueError):
        replace(pen, n_upper=-1.0)
    with pytest.raises(TypeError):
        replace(pen, n_uper=1.0)
    assert pen == PenaltyParams(8.0, 2.0)

    h = SPEC.h
    spec = replace(SPEC, h=ex.Num(-2.0), name="lower")
    assert (spec.h, spec.name, spec.band) == (ex.Num(-2.0), "lower", SPEC.band)
    assert (SPEC.h, SPEC.name) == (h, "")
    with pytest.raises(ValueError):
        replace(SPEC, x_max=SPEC.x_min)

    row = LadderRow(4.0, 10.0, mono_gap_n=0.5)
    gapless = replace(row, mono_gap_n=np.nan)
    assert np.isnan(gapless.mono_gap_n) and row.mono_gap_n == 0.5

    ladder = replace(Ladder((4.0,), (10.0,), EXPLICIT, 5.0), n_list=[-1.0, 8.0])
    assert isinstance(ladder.columns[0][0], ValueError)
    assert ladder.columns[0][1] == SweepCell(PenaltyParams(8.0, 10.0, EXPLICIT, 5.0))


def test_cell_summary_with_field_pickles():
    field = SolutionField(GRID, *ARRAYS)
    summary = CellSummary(field, (1, 2), (0.0, 0.5), None, {("z", SweepCell(PEN)): 0.25})
    back = pickle.loads(pickle.dumps(summary, pickle.HIGHEST_PROTOCOL))
    assert back.field.grid == GRID
    for name, want in zip(("u", "z", "a_plus", "a_minus", "k_defect", "sigma_choice"), ARRAYS):
        got = getattr(back.field, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (back.bad, back.violations, back.asc) == ((1, 2), (0.0, 0.5), None)
    assert back.gaps == {("z", SweepCell(PEN)): 0.25}


def test_domain_error_with_node_pickles():
    with pytest.raises(ex.DomainError) as caught:
        ex.eval_expr(ex.parse_expr("1/(x - x)"), {"x": 1.0})
    err = caught.value
    assert isinstance(err.node, ex.BinOp)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ex.DomainError
    assert back.node == err.node and hash(back.node) == hash(err.node)
    assert str(back) == str(err)
    with pytest.raises(AttributeError):
        back.node.op = "*"


def _gdro_classes():
    for info in pkgutil.iter_modules(gdro.__path__):
        module = importlib.import_module("gdro." + info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def test_no_dataclass_or_named_tuple():
    found = sorted(cls.__name__ for cls in _gdro_classes() if dataclasses.is_dataclass(cls)
                   or issubclass(cls, tuple) and hasattr(cls, "_fields"))
    assert found == [], (
        "gdro.record.Record is gdro's one record mechanism: a dataclass compiles its methods"
        " with exec when gdro is imported (about 0.4-1.2 ms each), and gdro.record.replace"
        " stands in for dataclasses.replace: %s" % found)


def test_import_leaves_dataclasses_unloaded():
    # neither numpy nor gdro's other stdlib dependencies import dataclasses
    # (nor, through it, copy): gdro.record must not be the one that does
    src = os.path.dirname(os.path.dirname(gdro.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
         " import gdro.cli; print('dataclasses' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]
