"""The library's value types: records are NamedTuples, and the plan, the
tuple type and the principal formula are slotted classes whose equality
reads some of their fields.  None of them is made by ``dataclasses``, and
the package imports the standard library only."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treeplan
from treeplan import expand, parse_formula, parse_node, parse_plan
from treeplan.analysis import Amalgam, DividingVerdict
from treeplan.counting import CountReport, CountRow, DimMeasure
from treeplan.efgame import GameState, Outcome
from treeplan.logic import (
    AsymptoticReport,
    AsymptoticRow,
    Eps,
    Exists,
    Pred,
    PrincipalFormula,
    ProbeReport,
    SolutionClass,
)
from treeplan.plan import TreePlan
from treeplan.trees import CanonicalForm, TupleType

E2, E3 = expand(parse_plan("(1 (inf))"), 2), expand(parse_plan("(1 (inf))"), 3)
A, B = parse_node("0:0"), parse_node("0:1")
ROW_VALUES = (3, 3, Fraction(1), 1.0, 3.0, 1.0, True)
ROW = AsymptoticRow(*ROW_VALUES)
ROW_TEXT = ("AsymptoticRow(n=3, observed=3, delta=Fraction(1, 1), mu=1.0, "
            "predicted=3.0, ratio=1.0, passed=True)")
E2_TEXT, E3_TEXT = "Expansion('(1 (inf))', n=2, size=3)", "Expansion('(1 (inf))', n=3, size=4)"

# (class, field values, the repr the dataclasses gave).
RECORDS = {
    "ProbeReport": (
        ProbeReport, ("eps = eps", 0, 1, ((1, True), (2, True)), True),
        "ProbeReport(formula='eps = eps', rank=0, start=1, "
        "values=((1, True), (2, True)), constant=True)",
    ),
    "SolutionClass": (
        SolutionClass, (A, (0,), (0,), 2, False),
        "SolutionClass(anchor_node=Node('0:0'), sigma=(0,), sigma_p=(0,), count=2, "
        "in_closure=False)",
    ),
    "AsymptoticRow": (AsymptoticRow, ROW_VALUES, ROW_TEXT),
    "AsymptoticReport": (
        AsymptoticReport, ("P[0](x)", (ROW,), True, True, True, True),
        f"AsymptoticReport(formula='P[0](x)', rows=({ROW_TEXT},), classes_stable=True, "
        "class_counts_exact=True, trend_ok=True, top_pass=True)",
    ),
    "DividingVerdict": (
        DividingVerdict, (True, A, frozenset({A}), True),
        "DividingVerdict(divides=True, witness=Node('0:0'), "
        "conjugates=frozenset({Node('0:0')}), two_inconsistent=True)",
    ),
    "Amalgam": (
        Amalgam, (E2, E2, E2, E3, {A: A}, {B: B}),
        f"Amalgam(base={E2_TEXT}, left={E2_TEXT}, right={E2_TEXT}, target={E3_TEXT}, "
        "j1={Node('0:0'): Node('0:0')}, j2={Node('0:1'): Node('0:1')})",
    ),
    "DimMeasure": (DimMeasure, (Fraction(1, 2), 3), "DimMeasure(delta=1/2, mu=1/3^1/2)"),
    "CountReport": (
        CountReport, ((CountRow("(1 (inf))", "P", 1, 2, 2, True),),),
        "CountReport(rows=(CountRow(plan='(1 (inf))', quantity='P', n=1, observed=2, "
        "predicted=2, passed=True),))",
    ),
    "Outcome": (
        Outcome, ("D", "winner=D\n", None),
        "Outcome(winner='D', transcript='winner=D\\n', illegal=None)",
    ),
    "GameState": (
        GameState, (E2, E3, (A,), (B,), 1),
        f"GameState(left={E2_TEXT}, right={E3_TEXT}, picks_left=(Node('0:0'),), "
        "picks_right=(Node('0:1'),), rounds_left=1)",
    ),
    "CanonicalForm": (CanonicalForm, ("(())",), "CanonicalForm(code='(())')"),
    "TreePlan": (
        TreePlan, (frozenset({(), (0,)}), frozenset({(0,)})),
        "TreePlan(nodes=frozenset({(0,), ()}), inf_nodes=frozenset({(0,)}))",
    ),
    "TupleType": (
        TupleType, ("(|0;)", frozenset({A})),
        "TupleType(code='(|0;)', generated=frozenset({Node('0:0')}))",
    ),
    "PrincipalFormula": (
        PrincipalFormula, (parse_formula("x = b0"), {"b0": A}, "member"),
        "PrincipalFormula(formula=Eq(left=Var(name='x'), right=Var(name='b0')), "
        "params={'b0': Node('0:0')}, case='member')",
    ),
}

# The classes whose equality skips fields, which are not tuples.
SLOTTED = (TreePlan, TupleType, PrincipalFormula)


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, name):
        cls, values, _ = RECORDS[name]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(cls.__match_args__, values)))
        assert by_keyword == by_position
        assert [getattr(by_keyword, field) for field in cls.__match_args__] == list(values)

    def test_repr_is_unchanged(self, name):
        cls, values, text = RECORDS[name]
        assert repr(cls(*values)) == text

    def test_fields_cannot_be_assigned(self, name):
        cls, values, _ = RECORDS[name]
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, cls.__match_args__[0], values[0])

    def test_a_missing_or_unknown_field_is_refused(self, name):
        cls, values, _ = RECORDS[name]
        with pytest.raises(TypeError):
            cls(*values[:-1], unknown=values[-1])

    def test_tuples_equal_their_values(self, name):
        cls, values, _ = RECORDS[name]
        if cls in SLOTTED:
            assert cls(*values) != values
        else:
            assert cls(*values) == values and list(cls(*values)) == list(values)


class TestDefaults:
    def test_dividing_verdict(self):
        assert DividingVerdict(False) == DividingVerdict(False, None, None, None)

    def test_outcome(self):
        assert Outcome("S", "winner=S\n").illegal is None

    def test_game_state(self):
        assert GameState(E2, E3) == GameState(E2, E3, (), (), 0)


class TestEqualityRules:
    def test_equal_plans_are_equal_and_hash_equal(self):
        p = parse_plan("(1 (inf (1)) (1))")
        q = TreePlan(frozenset(p.nodes), frozenset(p.inf_nodes))
        assert p is not q and p == q and hash(p) == hash(q)
        assert p != parse_plan("(1 (inf (inf)) (1))")
        assert p != (p.nodes, p.inf_nodes)

    def test_tuple_types_compare_by_code(self):
        t = TupleType("(|0;)", frozenset({A}))
        assert t == TupleType("(|0;)", frozenset({B})) and hash(t) == hash(TupleType("(|0;)", None))
        assert t != TupleType("(|1;)", frozenset({A}))

    def test_principal_formulas_compare_by_formula(self):
        f = PrincipalFormula(parse_formula("x = b0"), {"b0": A}, "member")
        g = PrincipalFormula(parse_formula("x = b0"), {"b0": B}, "free")
        assert f == g and hash(f) == hash(g)
        assert f != PrincipalFormula(parse_formula("x = b1"), {"b1": A}, "member")

    def test_copies_and_pickles_rebuild_through_the_constructor(self):
        f = parse_formula("forall x. P[0](x) -> pred(x) = eps")
        p = parse_plan("(1 (inf (1)) (1))")
        for copy_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert copy_of(f) is f
            assert copy_of(p) == p and copy_of(p).children((0,)) == ((0, 0),)

    def test_a_plan_is_checked_at_construction(self):
        with pytest.raises(treeplan.DomainError):
            TreePlan(frozenset({(0,)}), frozenset())


def test_import_leaves_out_dataclasses():
    # A fresh interpreter without site-packages imports the package and
    # its command line, and no class is made through dataclasses; the
    # field signatures import inspect only when they are asked for.
    src = os.path.dirname(os.path.dirname(treeplan.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import treeplan, treeplan.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False\n"


def test_signatures_name_the_fields():
    # A class that takes its fields through Frozen.__new__ shows them; Pred
    # and TreePlan, which define their own __new__, show that.
    assert str(inspect.signature(Exists)) == "(var, body)"
    assert str(inspect.signature(Eps)) == "()"
    assert str(inspect.signature(TupleType)) == "(code, generated)"
    assert str(inspect.signature(PrincipalFormula)) == "(formula, params, case)"
    assert list(inspect.signature(Pred).parameters) == ["arg", "power"]
    assert inspect.signature(Pred).parameters["power"].default == 1
    assert list(inspect.signature(TreePlan).parameters) == ["nodes", "inf_nodes"]


def test_imports_are_standard_library_at_the_python_floor():
    # Every module of the package parses at the requires-python floor,
    # 3.10, and imports nothing from outside the standard library.
    imported = set()
    for path in sorted(Path(treeplan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in stmt.names)
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
                imported.add(stmt.module.partition(".")[0])
    assert "fractions" in imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
