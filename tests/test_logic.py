import random
import zlib
from fractions import Fraction

import pytest

from treeplan import (
    BudgetError,
    DomainError,
    FormulaSyntaxError,
    ROOT,
    TreePlanError,
    UnboundVariableError,
    classify_solutions,
    evaluate,
    expand,
    formula_text,
    free_vars,
    orbit,
    parse_formula,
    parse_node,
    parse_plan,
    principal_formula,
    pseudofinite_probe,
    qftp,
    qrank,
    solution_set,
)
from treeplan import logic
from treeplan.closure import PickFrame
from treeplan.logic import (
    And,
    Eps,
    Eq,
    Exists,
    Forall,
    Label,
    Leq,
    MeetT,
    Not,
    Or,
    Pred,
    Var,
    asymptotic_check,
    at_least,
    conj,
)
from treeplan.plan import Expansion

from conftest import PLAN_TEXTS, PLANS, classify_solutions_reference, evaluate_reference, random_subset


def node(text):
    return parse_node(text)


class TestParseFormula:
    def test_trivial_equality(self):
        assert parse_formula("eps = eps") == Eq(Eps(), Eps())

    def test_quantifier_scopes_to_the_end(self):
        f = parse_formula("exists x. pred(x) = eps & !(x = eps)")
        assert f == Exists(
            "x", And(Eq(Pred(Var("x")), Eps()), Not(Eq(Var("x"), Eps())))
        )
        assert qrank(f) == 1

    def test_label_atom(self):
        f = parse_formula("P[0.0](x)")
        assert f == Label((0, 0), Var("x"))
        assert parse_formula("P[](x)") == Label((), Var("x"))

    def test_pred_power_sugar(self):
        # One term node for the whole power, however it is written.
        assert parse_formula("pred^2(x) = eps") == Eq(Pred(Var("x"), 2), Eps())
        assert parse_formula("pred(pred(x)) = eps") == Eq(Pred(Var("x"), 2), Eps())
        assert parse_formula("pred^2(pred^3(x)) = eps") == Eq(Pred(Var("x"), 5), Eps())
        assert parse_formula("pred^0(x) = eps") == Eq(Var("x"), Eps())
        with pytest.raises(DomainError):
            Pred(Var("x"), 0)

    def test_precedence(self):
        f = parse_formula("x = eps | x = eps & !(x = eps) -> x = eps")
        # ! > & > | > ->
        text = formula_text(f)
        assert text.endswith("-> x = eps")
        g = parse_formula("x = eps -> x = eps -> x = eps")
        assert formula_text(g) == "x = eps -> x = eps -> x = eps"

    def test_chains_render_flat(self):
        # A left-nested chain renders without parentheses; a right operand
        # of the same connective keeps them, so each text parses back.
        cases = {
            "(x = x & y = y) & z = z": "x = x & y = y & z = z",
            "x = x & (y = y & z = z)": "x = x & (y = y & z = z)",
            "(x = x | y = y) | z = z & x = x": "x = x | y = y | z = z & x = x",
            "(x = x | y = y) & z = z": "(x = x | y = y) & z = z",
        }
        for text, rendered in cases.items():
            f = parse_formula(text)
            assert formula_text(f) == rendered
            assert parse_formula(rendered) == f
        # Far deeper than the recursion limit; comparing such trees would
        # recurse, so the texts are compared.
        text = " & ".join(["x = x"] * 5000)
        assert formula_text(conj([Eq(Var("x"), Var("x"))] * 5000)) == text
        assert formula_text(parse_formula(text)) == text

    def test_roundtrip_through_text(self):
        samples = [
            "exists x. pred(x) = eps & !(x = eps)",
            "forall x. (exists y. meet(x, y) = eps) | x <= eps",
            "P[0](x) -> pred^3(x) = eps",
            "forall v. exists w. !(v = w) & pred(v) = pred(w)",
        ]
        for text in samples:
            f = parse_formula(text)
            assert parse_formula(formula_text(f)) == f

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists x pred(x) = eps")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x = ")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x = eps @")

    def test_formula_file(self):
        from treeplan import parse_formulas

        text = "# two sentences\nforall x. x = x\n\nexists y. !(y = eps)  # note\n"
        fs = parse_formulas(text)
        assert len(fs) == 2
        assert qrank(fs[0]) == 1


class TestQrank:
    def test_atom(self):
        assert qrank(parse_formula("x = y")) == 0

    def test_single_quantifier(self):
        assert qrank(parse_formula("exists x. x = x")) == 1

    def test_parallel_quantifiers(self):
        f = parse_formula("forall x. (exists y. eps = eps) & (exists z. eps = eps)")
        assert qrank(f) == 2
        # Without parentheses the second quantifier nests inside the first.
        g = parse_formula("forall x. exists y. eps = eps & exists z. eps = eps")
        assert qrank(g) == 3


class TestEvaluate:
    def test_root_order(self):
        e = expand(PLANS["single"], 1)
        assert evaluate(e, parse_formula("eps <= eps"))

    def test_leaves_exist(self):
        e = expand(PLANS["A"], 2)
        f = parse_formula("exists x. pred(x) = eps & !(x = eps)")
        assert evaluate(e, f)
        assert not evaluate(expand(PLANS["single"], 1), f)

    def test_unbound(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(UnboundVariableError):
            evaluate(e, parse_formula("x = eps"))

    def test_unknown_label_path(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError):
            evaluate(e, parse_formula("exists x. P[7](x)"))

    def test_meet_and_pred_terms(self):
        e = expand(PLANS["B"], 2)
        env = {"u": node("0:0/0:1"), "v": node("0:0/0:0")}
        assert evaluate(e, parse_formula("meet(u, v) = pred(u)"), env)
        assert evaluate(e, parse_formula("pred^2(u) = eps"), env)

    def test_quantifier_free_formula_builds_no_tree(self):
        # A formula without a quantifier is decided on the bound nodes, on
        # an expansion far over the node budget.
        e = expand(PLANS["B"], 10**6)
        assert evaluate(e, parse_formula("x = x"), {"x": ROOT})
        env = {"x": ROOT, "y": node("0:999999/0:5")}
        assert evaluate(e, parse_formula("pred^2(y) = x & P[0.0](y)"), env)

    def test_a_quantifier_is_decided_far_over_the_build_budget(self, monkeypatch):
        # A quantifier ranges over orbits, not nodes: a rank-3 sentence takes
        # the same value on 10^12 nodes as on 13, and no tree is built.
        f = parse_formula(
            "exists x. exists y. exists z. pred(x) = pred(y) & pred(y) = pred(z)"
            " & !(x = y) & !(y = z) & !(x = z) & !(x = eps) & !(y = eps) & !(z = eps)"
        )
        assert qrank(f) == 3
        small = evaluate(expand(PLANS["B"], 3), f)
        assert small is evaluate_reference(expand(PLANS["B"], 3), f)
        assert small is not evaluate(expand(PLANS["B"], 2), f)

        def no_build(e):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(Expansion, "_build", no_build)
        assert evaluate(expand(PLANS["B"], 10**6), f) is small

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_sentences_keep_their_small_value_far_over_the_build_budget(self, name, monkeypatch):
        # Every corpus plan: each rank-3 sentence takes at n = 4 and at
        # n = 10^6 the value that the reference gives at n = 3.
        sentences = [
            parse_formula(text)
            for text in (
                "exists x. exists y. exists z. pred(x) = pred(y) & pred(y) = pred(z)"
                " & !(x = y) & !(y = z) & !(x = z) & !(x = eps) & !(y = eps) & !(z = eps)",
                "exists x. exists y. !(x = y) & pred(x) = pred(y) & forall z. !(pred(z) = x)",
                "forall x. (exists y. pred(y) = x & !(y = x)) -> exists y. exists z."
                " pred(y) = x & pred(z) = x & !(y = z) & !(y = x) & !(z = x)",
            )
        ]
        assert {qrank(f) for f in sentences} == {3}
        small = [evaluate_reference(expand(PLANS[name], 3), f) for f in sentences]

        def no_build(e):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(Expansion, "_build", no_build)
        for n in (4, 10**6):
            assert [evaluate(expand(PLANS[name], n), f) for f in sentences] == small, n

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_the_fast_keyword_is_accepted_and_ignored(self, name):
        # The benchmark passes fast= in both of its modes, on every corpus plan.
        e = expand(PLANS[name], 3)
        env = {"b": e.nodes()[-1]}
        for text in ("exists x. pred(x) = b", "forall x. meet(x, b) <= pred(b)", "b = b", "!(b = eps)"):
            f = parse_formula(text)
            values = [evaluate(e, f, env, fast=False), evaluate(e, f, env, fast=True), evaluate(e, f, env)]
            assert values == [evaluate_reference(e, f, env)] * 3, text

    def test_inner_quantifier_restores_outer_binding(self):
        e = expand(PLANS["A"], 2)
        f = parse_formula("exists x. (exists x. P[0](x)) & x = eps")
        assert evaluate(e, f)

    def test_quantifier_over_env_variable(self):
        e = expand(PLANS["A"], 2)
        env = {"x": ROOT}
        assert evaluate(e, parse_formula("(exists x. P[0](x)) & x = eps"), env)
        assert not evaluate(e, parse_formula("(forall x. P[0](x)) | !(x = eps)"), env)
        assert env == {"x": ROOT}

    def test_ranges_over_every_env_orbit(self):
        e = expand(PLANS["A"], 3)
        env = {"x": node("0:1"), "y": node("0:2")}
        f = parse_formula("exists x. x = y")
        assert evaluate(e, f, env)
        assert evaluate(e, f, {"y": node("0:2")})

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_sentences_match_the_reference(self, name):
        e = expand(PLANS[name], 3)
        sentences = [
            "forall x. x = x",
            "exists x. !(x = eps)",
            "forall x. exists y. !(x = y)",
            "exists x. exists y. !(x = y) & pred(x) = pred(y)",
            "forall x. forall y. meet(x, y) <= x",
            "exists x. forall y. meet(x, y) = x -> x <= y",
        ]
        for text in sentences:
            f = parse_formula(text)
            assert evaluate(e, f) == evaluate_reference(e, f), text


class TestFrameWalk:
    """Evaluation walks one pick frame: built once per call with a
    quantifier, and stepped by a pick only where a quantifier over it is
    reached."""

    @staticmethod
    def calls(monkeypatch, name):
        seen = []
        method = getattr(PickFrame, name)

        def counted(frame, *args):
            seen.append(args)
            return method(frame, *args)

        monkeypatch.setattr(PickFrame, name, counted)
        return seen

    def test_an_evaluation_builds_one_frame(self, monkeypatch):
        e = expand(PLANS["B"], 3)
        f = parse_formula("forall x. exists y. forall z. meet(x, z) = x -> x <= y & !(y = z)")
        assert qrank(f) == 3
        envs = [{}, {"b": node("0:1/0:2")}]
        expected = [evaluate_reference(e, f, env) for env in envs]
        built = self.calls(monkeypatch, "__init__")
        steps = self.calls(monkeypatch, "step")
        for env, value in zip(envs, expected):
            assert evaluate(e, f, env) == value
            assert len(built) == 1 and steps
            built.clear()

    def test_a_quantifier_free_evaluation_builds_no_frame(self, monkeypatch):
        e = expand(PLANS["B"], 5)
        f = parse_formula("pred^2(y) = x & P[0.0](y) & meet(y, z) = pred(y)")
        envs = [{"x": ROOT, "y": node("0:1/0:2"), "z": node(z)} for z in ("0:1/0:4", "0:3")]
        expected = [evaluate_reference(e, f, env) for env in envs]
        assert expected == [True, False]
        built = self.calls(monkeypatch, "__init__")
        assert [evaluate(e, f, env) for env in envs] == expected
        assert evaluate(e, parse_formula("eps = eps")) is True
        assert built == []

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_quantifier_free_formulas_build_no_frame_on_every_plan(self, name, monkeypatch):
        e = expand(PLANS[name], 2)
        formulas = [
            parse_formula(text)
            for text in (
                "pred(y) = x & !(y = eps)",
                "meet(x, y) = pred^2(y) | x <= pred(y)",
                "!(meet(pred(x), y) = meet(x, pred(y))) -> x = y",
            )
        ]
        envs = [{"x": x, "y": y} for x in e.nodes() for y in e.nodes()]
        expected = [[evaluate_reference(e, f, env) for f in formulas] for env in envs]
        built = self.calls(monkeypatch, "__init__")
        assert [[evaluate(e, f, env) for f in formulas] for env in envs] == expected
        assert built == []

    def test_a_one_quantifier_solution_set_builds_one_frame(self, monkeypatch):
        e = expand(PLANS["B"], 4)
        f, params = parse_formula("exists y. pred(y) = x & !(y = b)"), {"b": node("0:1/0:2")}
        sols = frozenset(v for v in e.nodes() if evaluate_reference(e, f, {**params, "x": v}))
        built = self.calls(monkeypatch, "__init__")
        assert solution_set(e, f, "x", params) == sols
        assert len(built) == 1

    def test_a_quantifier_free_formula_steps_no_frame(self, monkeypatch):
        e = expand(PLANS["B"], 4)
        f, params = parse_formula("P[0.0](x) & !(pred(x) = pred(b))"), {"b": node("0:0/0:0")}
        expected = classify_solutions_reference(e, f, "x", params)
        built = self.calls(monkeypatch, "__init__")
        steps = self.calls(monkeypatch, "step")
        assert classify_solutions(e, f, "x", params) == expected
        assert len(built) == 1 and steps == []

    @pytest.mark.parametrize(
        "text, calls",
        [
            ("exists y. (exists z. z <= y) & exists x. !(meet(x, y) = meet(x, y))", True),
            # The first call runs only for y = b: the second steps the rest.
            ("exists y. (y = b & forall z. z = y) | exists x. !(x = x)", True),
            ("forall y. y = y | (exists z. z <= y) | exists x. x = y", False),
        ],
    )
    def test_sibling_quantifiers_step_once_per_pick(self, monkeypatch, text, calls):
        # Two quantifiers in one body take the frame stepped by the same
        # pick: the first call that runs steps it, the other reuses it, and
        # with no call reached it is not stepped.  Here every pick of y is
        # visited: the frame stepped by b is stepped once by each.
        e, env = expand(PLANS["B"], 3), {"b": node("0:1/0:2")}
        f = parse_formula(text)
        expected = evaluate_reference(e, f, env)
        reps = [a for a, _ in PickFrame(e).step(env["b"]).reps()]
        seen, step = [], PickFrame.step

        def counted(frame, a):
            seen.append((frame, a))
            return step(frame, a)

        monkeypatch.setattr(PickFrame, "step", counted)
        assert evaluate(e, f, env) == expected
        (_, first), *rest = seen
        assert first == env["b"] and all(frame is rest[0][0] for frame, _ in rest)
        assert [a for _, a in rest] == (reps if calls else [])


class TestLazyErrors:
    """An atom raises only when evaluation reaches it, left to right."""

    def test_unbound_variable_in_a_branch_never_reached(self):
        e = expand(PLANS["A"], 2)
        assert evaluate(e, parse_formula("eps = eps | y = eps"))

    def test_unbound_variable_reached_first(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(UnboundVariableError, match="unbound variable 'y'"):
            evaluate(e, parse_formula("y = eps | eps = eps"))

    def test_bad_label_in_a_branch_never_reached(self):
        e = expand(PLANS["A"], 2)
        f = parse_formula("exists x. x = eps | P[9](x)")
        assert evaluate(e, f)
        assert not evaluate(e, parse_formula("!(eps = eps) & P[9](eps)"))
        with pytest.raises(DomainError, match="label path"):
            evaluate(e, parse_formula("eps = eps & P[9](eps)"))

    def test_bad_label_of_a_meet_raises_at_and_off_the_root(self):
        e, f = expand(PLANS["A"], 2), parse_formula("exists z. P[9](meet(x, y))")
        for y in (node("0:0"), node("0:1")):  # meets 0:0 and the root
            with pytest.raises(DomainError, match="label path"):
                evaluate(e, f, {"x": node("0:0"), "y": y})
        guarded = parse_formula("exists z. !(x = y) & P[9](meet(x, y))")
        assert not evaluate(e, guarded, {"x": node("0:0"), "y": node("0:0")})

    def test_env_node_outside_the_expansion(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError, match="unknown node 0:2"):
            evaluate(e, parse_formula("eps = eps"), {"y": node("0:2")})

    def test_solution_set_parameter_outside_the_expansion(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError, match="unknown node 0:2"):
            solution_set(e, parse_formula("x = b"), "x", {"b": node("0:2")})

    def test_non_member_refused_before_any_quantifier(self):
        # Quantifiers list their range unchecked, so the entry check is the
        # one that refuses a bound node outside the expansion.
        e = expand(PLANS["B"], 2)
        f = parse_formula("exists z. pred(z) = y & x <= z")
        for bad in (node("0:2"), node("0:0/0:2"), node("0:*"), ((0, 0),)):
            with pytest.raises(DomainError, match="unknown node"):
                evaluate(e, f, {"x": ROOT, "y": bad})
            with pytest.raises(DomainError, match="unknown node"):
                solution_set(e, f, "x", {"y": bad})


def left_meets(k):
    """``k`` meets nested on the left: ``meet(...meet(meet(x, y), x)..., y)``."""
    t = "x"
    for i in range(k):
        t = f"meet({t}, {'y' if i % 2 == 0 else 'x'})"
    return t


def right_meets(k):
    """``k`` meets nested on the right: ``meet(x, meet(x, ...meet(y, y)...))``."""
    t = "y"
    for i in range(k - 1):
        t = f"meet({'x' if i % 2 == 0 else 'y'}, {t})"
    return f"meet(x, {t})"


# Formulas whose size would nest naively generated source past what
# Python compiles, with the answers of the former closure compiler.
DEEP_FORMULAS = {
    "300_conjuncts": ("forall x. " + " & ".join(["x = x"] * 300), True),
    "700_conjuncts": ("forall x. " + " & ".join(["x = x"] * 699) + " & !(x = x)", False),
    "300_negations": ("!" * 300 + "eps = eps", True),
    "301_negations": ("!" * 301 + "eps = eps", False),
    "700_negations": ("forall x. " + "!" * 700 + "x = x", True),
    "150_parentheses": ("forall x. " + "(" * 150 + "x <= x" + ")" * 150, True),
    "150_quantifiers": ("".join(f"exists x{i}. " for i in range(150)) + "!(x0 = x149)", True),
    "150_forall": ("".join(f"forall x{i}. " for i in range(150)) + "x0 = x149", False),
    "pred_300": ("forall x. pred^300(x) = eps", True),
    "100_meets": (
        f"forall x. forall y. {left_meets(100)} = {right_meets(100)} & {left_meets(100)} <= x",
        True,
    ),
    "100_meets_false": (f"forall x. forall y. {left_meets(100)} = x", False),
    "300_meets": (f"forall x. forall y. {right_meets(300)} = {left_meets(300)}", True),
    "300_meet_conjuncts": ("forall x. forall y. " + " & ".join(["meet(x, y) <= meet(y, x)"] * 300), True),
}


@pytest.mark.parametrize("name", sorted(DEEP_FORMULAS))
def test_deep_formulas_compile(name):
    text, expected = DEEP_FORMULAS[name]
    assert evaluate(expand(PLANS["B"], 2), parse_formula(text)) is expected


# Atoms over the free variables x and y, also run under a vacuous
# quantifier.  A meet of sides that differ at the first segment, or with
# the root as a side, is the root without a call.
PAIR_ATOMS = [
    "x <= y", "eps <= x", "x <= eps", "pred(x) <= y", "meet(x, y) = pred(y)",
    "meet(meet(x, y), pred(x)) <= y", "meet(x, eps) = x", "pred^2(x) = pred^3(y)",
    "pred^7(x) = eps", "pred^99999999999999999999(y) = x", "x = y",
    "meet(x, y) <= pred(x)", "pred(y) <= meet(x, y)", "meet(x, y) <= meet(y, pred(x))",
    "meet(x, y) = x", "y = meet(pred(x), y)", "meet(x, pred(y)) = meet(y, x)",
    "meet(pred(x), pred^2(y)) <= y", "meet(pred(x), y) = eps", "P[](meet(x, y))",
]

# Formulas over x and y whose quantifiers meet the node they range over
# with the bound nodes; the first re-binds x.
PAIR_QUANTIFIED = [
    "exists x. meet(x, y) <= x", "exists x. meet(x, y) = pred(x) & !(x <= y)",
    "exists z. meet(x, z) <= y & !(z = x)",
    "forall z. z <= x -> meet(z, y) <= meet(x, y)", "exists z. pred(z) = x & P[](meet(z, y))",
    "exists z. meet(y, z) = pred(x) & !(z <= y)", "forall z. meet(x, z) = x | y <= pred(z)",
]


@pytest.mark.parametrize(
    "text", [PLAN_TEXTS[name] for name in ("single", "B", "D", "inf_mixed", "twin_ones")]
    + ["(1 " * 8 + "(inf) (1)" + ")" * 8],  # deeper than the pred^7
)
def test_pair_atoms_match_the_reference_on_every_pair(text):
    e = expand(parse_plan(text), 2)
    paths = [".".join(map(str, sigma)) for sigma in e.plan.sorted_nodes()]
    labels = [f"P[{path}]({arg})" for path in paths for arg in ("pred(x)", "meet(x, y)")]
    for f in map(parse_formula, PAIR_ATOMS + labels):
        for x in e.nodes():
            for y in e.nodes():
                env = {"x": x, "y": y}
                assert evaluate(e, Exists("z", f), env) is evaluate_reference(e, f, env), (f, env)
    for f in map(parse_formula, PAIR_QUANTIFIED):
        for x in e.nodes():
            for y in e.nodes():
                env = {"x": x, "y": y}
                assert evaluate(e, f, env) is evaluate_reference(e, f, env), (f, env)


# A prenex sentence whose source generation recurses past the limit: it
# parses, and evaluation refuses it with the documented error.
DEEP_PRENEX = "".join(f"exists x{i}. " for i in range(600)) + "x0 = x599"


def test_too_many_quantifiers_raise_the_documented_error():
    f = parse_formula(DEEP_PRENEX)
    assert qrank(f) == 600
    with pytest.raises(RecursionError, match="^formula nested too deeply to compile$"):
        evaluate(expand(PLANS["B"], 2), f)


@pytest.mark.parametrize("count", [5000, 5001])
def test_negation_chain_without_recursion(count):
    # The parser counts a run of "!"s and formula_text renders it in one
    # loop, so neither recurses once per negation.
    inner = "exists y. pred(y) = x"
    text = "!" * count + f"({inner})"
    f = parse_formula(text)
    assert formula_text(f) == text
    e, env = expand(PLANS["B"], 2), {"x": node("0:1")}
    assert evaluate(e, parse_formula(inner), env) is True
    assert evaluate(e, f, env) is (count % 2 == 0)


def test_quantifier_run_without_recursion():
    # The parser reads a run of quantifier heads in a loop and folds them
    # over one body, and formula_text renders the run in another loop.
    text = "".join(f"{'exists' if i % 2 else 'forall'} x{i}. " for i in range(5000)) + "x0 = x4999"
    f = parse_formula(text)
    assert qrank(f) == 5000
    assert formula_text(f) == text
    assert parse_formula(formula_text(f)) is f


def test_implication_chain_without_recursion():
    # The parser folds a chain of 5,000 "->"s from the right in one loop,
    # and formula_text renders it down its right spine in another.
    text = " -> ".join(["pred(x) = pred(x)"] * 5000 + ["x = eps"])
    f = parse_formula(text)
    assert formula_text(f) == text
    e = expand(PLANS["B"], 2)
    assert evaluate(e, f, {"x": ROOT}) is True
    assert evaluate(e, f, {"x": node("0:1")}) is False
    assert evaluate(e, parse_formula(f"forall x. {text}")) is False


class TestFormulaIdentity:
    """Formulas are interned: an equal formula is the same object."""

    TEXT = "forall x. exists y. pred(y) = x & P[0](y) | meet(x, y) <= eps"

    def test_parsing_twice_gives_one_object(self):
        assert parse_formula(self.TEXT) is parse_formula(self.TEXT)

    def test_a_hand_built_formula_is_the_parsed_one(self):
        x, y = Var("x"), Var(name="y")
        built = Forall("x", Exists(var="y", body=Or(
            And(Eq(Pred(y), x), Label((0,), y)),
            Leq(MeetT(x, y), Eps()),
        )))
        assert built is parse_formula(self.TEXT)
        assert Pred(y) is Pred(y, 1) is Pred(arg=y, power=1)

    def test_equal_5000_conjunct_formulas_compare_and_hash_equal(self):
        # Built twice, separately; structural equality would recurse once
        # per conjunct.
        first = conj([Eq(Var("x"), Var(f"y{i}")) for i in range(5000)])
        second = conj([Eq(Var("x"), Var(f"y{i}")) for i in range(5000)])
        assert first == second and hash(first) == hash(second)
        assert first != conj([Eq(Var("x"), Var(f"y{i}")) for i in range(4999)])

    def test_a_reparsed_formula_reuses_its_program(self, monkeypatch):
        calls = []
        generate = logic._generate

        def counted(f, names):
            calls.append(f)
            return generate(f, names)

        monkeypatch.setattr(logic, "_generate", counted)
        text = "exists x. exists y. !(x = y) & pred(x) = pred(y)"
        first = parse_formula(text)
        e = expand(PLANS["B"], 2)
        assert evaluate(e, first) is True
        assert evaluate(e, parse_formula(text)) is True
        assert calls == [first]

    def test_programs_are_kept_from_the_first_compile(self):
        f = parse_formula("exists x. x = fresh_program_var")
        assert not hasattr(f, "_programs")  # a new node holds no program table
        assert evaluate(expand(PLANS["B"], 2), f, {"fresh_program_var": ROOT}) is True
        assert set(f._programs) == {("fresh_program_var",)}
        assert parse_formula("exists x. x = fresh_program_var")._programs is f._programs

    def test_a_pred_power_below_one_is_refused(self):
        with pytest.raises(DomainError):
            Pred(Var("x"), 0)
        with pytest.raises(DomainError):
            Pred(arg=Var("x"), power=-1)

    def test_fields_cannot_be_assigned(self):
        f = parse_formula("x = eps")
        with pytest.raises(AttributeError):
            f.left = Eps()
        with pytest.raises(AttributeError):
            del f.right
        assert f == Eq(Var("x"), Eps())

    def test_an_unhashable_field_is_refused_at_construction(self):
        with pytest.raises(TypeError):
            Label([0], Var("x"))


class TestVariableNames:
    """Python keywords and the names of the generated source are plain
    variable names, and the atoms decided without a call (meets at the
    root or split at the first segment, a root lower side) raise and hold
    as the reference does."""

    @pytest.mark.parametrize(
        "text, env",
        [
            ("exists lambda. forall tree. meet(lambda, tree) <= lambda", {}),
            ("forall lambda. exists tree. pred(tree) = lambda & !(tree = lambda)", {}),
            ("exists x. class <= x & !(x = class)", {"class": "0:0"}),
            ("exists x. class <= x & !(x = class)", {"class": "0:0/0:1"}),
            ("exists v0. pred(v0) = v1 & !(v0 = t0)", {"v1": "0:0", "t0": "0:0/0:1"}),
            ("exists v0. pred(v0) = v1 & !(v0 = t0)", {"v1": "0:0/0:0", "t0": "0:0/0:1"}),
            ("forall v0. exists e. pred(e) = v0 | P[0.0](v0) | v0 = holds", {"holds": "eps"}),
            ("exists q0. exists orbit_reps. !(meet(q0, orbit_reps) = _meet)", {"_meet": "0:1"}),
            ("exists _reps. forall e. meet(_reps, e) <= _meet", {"_meet": "0:1"}),
            # A meet with an eps side.
            ("forall x. meet(x, eps) = eps & meet(eps, x) = meet(eps, eps)", {}),
            ("exists x. meet(eps, x) = x & !(x = eps)", {}),
            # Sides sharing their first segments.
            ("exists x. meet(x, y) = u & !(x = u)", {"y": "0:0/0:1", "u": "0:0"}),
            ("forall x. meet(x, y) <= y & meet(y, x) = meet(x, y)", {"y": "0:1/0:0"}),
            ("exists x. meet(x, y) = y", {"y": "0:1/0:1"}),
            # Nested meets and pred of the root.
            ("forall x. meet(meet(x, y), pred(y)) = meet(pred(x), meet(y, pred(eps)))",
             {"y": "0:0/0:1"}),
            ("exists x. meet(pred(x), meet(x, y)) = pred(y) & pred^2(x) = pred(eps)",
             {"y": "0:1/0:0"}),
            ("pred(eps) = eps & pred^3(eps) <= eps & meet(pred(eps), y) = eps", {"y": "0:0"}),
            # A root lower side.
            ("forall x. eps <= x & pred(eps) <= x & meet(x, eps) <= x", {}),
            ("exists x. x <= eps & !(x = eps)", {}),
            ("exists x. meet(x, y) <= pred(y) & !(meet(x, y) = eps)", {"y": "0:1/0:1"}),
            # An unbound variable inside a meet, reached or not.
            ("forall x. !(x = eps) -> meet(eps, y) <= x", {}),
            ("exists x. x = eps | meet(x, y) = x", {}),
            ("exists x. meet(y, eps) = x", {}),
            ("!(u = eps) & meet(meet(x, eps), u) = eps", {"u": "0:0"}),
            ("!(u = eps) | eps <= meet(u, meet(x, eps))", {"u": "0:0"}),
        ],
    )
    def test_evaluation_matches_the_reference(self, text, env):
        e = expand(PLANS["B"], 2)
        env = {name: node(value) for name, value in env.items()}
        f = parse_formula(text)
        outcomes = []
        for run in (lambda: evaluate(e, f, env), lambda: evaluate_reference(e, f, env)):
            try:
                outcomes.append(run())
            except TreePlanError as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]

    def test_keyword_free_variable(self):
        e = expand(PLANS["B"], 2)
        f = parse_formula("exists tree. pred(tree) = for & !(tree = bind)")
        params = {"bind": node("0:1/0:0")}
        expected = frozenset(
            x for x in e.nodes() if evaluate_reference(e, f, {**params, "for": x})
        )
        assert 0 < len(expected) < len(e)
        assert solution_set(e, f, "for", params) == expected


@pytest.mark.parametrize("valid_first", [True, False])
def test_label_validity_is_read_from_each_plan(valid_first):
    # One formula object, so one generated program, on two plans.
    f = parse_formula("exists x. P[1](x)")
    valid, invalid = expand(PLANS["C"], 2), expand(PLANS["A"], 2)
    for e in [valid, invalid] if valid_first else [invalid, valid]:
        if e is valid:
            assert evaluate(e, f) is True
        else:
            with pytest.raises(DomainError, match="label path"):
                evaluate(e, f)


class TestSolutionSet:
    def test_everything(self):
        e = expand(PLANS["C"], 2)
        assert solution_set(e, parse_formula("x = x"), "x") == frozenset(e.nodes())

    def test_plan_c_fiber(self):
        e = expand(PLANS["C"], 3)
        f = parse_formula("pred(x) = eps & P[0](x)")
        assert len(solution_set(e, f, "x")) == 3

    def test_empty(self):
        e = expand(PLANS["C"], 2)
        assert solution_set(e, parse_formula("!(x = x)"), "x") == frozenset()


class TestPseudofiniteProbe:
    def test_tautology(self):
        report = pseudofinite_probe(PLANS["B"], parse_formula("forall x. x = x"))
        assert report.constant and all(v for _, v in report.values)

    def test_plan_a_example(self):
        report = pseudofinite_probe(PLANS["A"], parse_formula("exists x. !(x = eps)"))
        assert report.rank == 1 and report.start == 2
        assert report.constant and all(v for _, v in report.values)

    def test_threshold_counting(self):
        # At least m+1 distinct root children, probed at the rank's own ladder.
        for m in (1, 2, 3):
            sentence = at_least(
                m + 1, lambda v: And(Eq(Pred(v), Eps()), Not(Eq(v, Eps())))
            )
            report = pseudofinite_probe(PLANS["A"], sentence)
            assert report.rank == m + 1
            assert report.start == m + 2
            assert report.constant and all(v for _, v in report.values)

    def test_requires_sentence(self):
        with pytest.raises(DomainError):
            pseudofinite_probe(PLANS["A"], parse_formula("x = x"))

    def test_negative_margin_rejected(self):
        with pytest.raises(DomainError, match="^the margin must be non-negative, got -1$"):
            pseudofinite_probe(PLANS["A"], parse_formula("forall x. x = x"), margin=-1)
        report = pseudofinite_probe(PLANS["A"], parse_formula("forall x. x = x"), margin=0)
        assert report.values == ((report.start, True),) and report.constant


class TestPrincipalFormula:
    def test_member_case(self):
        e = expand(PLANS["B"], 3)
        b = node("0:1")
        pf = principal_formula(e, b, [b])
        assert pf.case == "member"
        assert solution_set(e, pf.formula, "x", pf.params) == frozenset({b})

    def test_closure_case_plan_d(self):
        e = expand(PLANS["D"], 2)
        pf = principal_formula(e, node("0:*"), [])
        assert pf.case == "closure"
        assert pf.text() == "pred(x) = eps & P[0](x)"
        assert len(solution_set(e, pf.formula, "x", pf.params)) == 1

    def test_free_case_plan_b(self):
        e = expand(PLANS["B"], 3)
        a, b = node("0:0/0:1"), node("0:0")
        pf = principal_formula(e, a, [b])
        assert pf.case == "free"
        assert pf.text() == "pred(x) = b0 & P[0.0](x)"
        sols = solution_set(e, pf.formula, "x", pf.params)
        assert len(sols) == 3

    def test_below_case(self):
        e = expand(PLANS["B"], 3)
        deep = node("0:0/0:1")
        pf = principal_formula(e, node("0:0"), [deep])
        assert pf.case == "below"
        assert solution_set(e, pf.formula, "x", pf.params) == frozenset({node("0:0")})

    @pytest.mark.parametrize("name", ["A", "B", "D", "leaf_and_branch", "inf_one_inf"])
    def test_isolation_equals_orbit(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        p = PLANS[name]
        for n in (2, 3):
            e = expand(p, n)
            for _ in range(15):
                a = rng.choice(e.nodes())
                members = random_subset(rng, e.nodes(), 3)
                pf = principal_formula(e, a, members)
                sols = solution_set(e, pf.formula, "x", pf.params)
                assert sols == orbit(e, a, members), (name, n, str(a))

    def test_type_equality_gives_equal_solutions(self):
        rng = random.Random(21)
        e = expand(PLANS["B"], 3)
        params = [node("0:0")]
        enum = tuple(params)
        for _ in range(40):
            a, b = rng.choice(e.nodes()), rng.choice(e.nodes())
            if qftp(e.tree, (a,) + enum) == qftp(e.tree, (b,) + enum):
                fa = principal_formula(e, a, params)
                fb = principal_formula(e, b, params)
                assert solution_set(e, fa.formula, "x", fa.params) == solution_set(
                    e, fb.formula, "x", fb.params
                )


class TestClassifySolutions:
    def test_single_node(self):
        e = expand(PLANS["single"], 1)
        classes = classify_solutions(e, parse_formula("x = x"), "x")
        assert len(classes) == 1
        (cls,) = classes
        assert cls.count == 1 and cls.anchor_node == ROOT

    def test_plan_c_children(self):
        e = expand(PLANS["C"], 3)
        classes = classify_solutions(e, parse_formula("pred(x) = eps"), "x")
        fiber_classes = sorted(
            (cls.sigma_p, cls.count) for cls in classes if not cls.in_closure
        )
        assert fiber_classes == [((0,), 3), ((1,), 3)]
        singles = [cls for cls in classes if cls.in_closure]
        assert [cls.anchor_node for cls in singles] == [ROOT]

    def test_plan_b_fiber(self):
        e = expand(PLANS["B"], 3)
        classes = classify_solutions(e, parse_formula("P[0.0](x)"), "x")
        assert len(classes) == 1
        (cls,) = classes
        assert cls.anchor_node == ROOT and cls.count == 9

    @pytest.mark.parametrize("w", ["0:1/0:2", "0:1", "eps", "0:3/0:0"])
    def test_binding_of_the_free_variable_is_ignored(self, w):
        # As in solution_set, the free variable's binding is no parameter:
        # it neither splits the classes nor has to be a node of e.
        e = expand(PLANS["B"], 3)
        f = parse_formula("P[0.0](x)")
        classes = classify_solutions(e, f, "x", {"x": node(w)})
        assert classes == classify_solutions(e, f, "x")
        assert [cls.count for cls in classes] == [9]

    def test_partition(self):
        rng = random.Random(6)
        e = expand(PLANS["D"], 3)
        formulas = ["x = x", "pred(x) = eps", "P[1](x)", "!(x <= eps)"]
        for text in formulas:
            f = parse_formula(text)
            sols = solution_set(e, f, "x")
            classes = classify_solutions(e, f, "x")
            assert sum(cls.count for cls in classes) == len(sols)

    def test_fiber_law_parameter_free(self):
        # Nodes with equal projections behave alike in one-variable formulas.
        e = expand(PLANS["D"], 3)
        formulas = [
            "pred(x) = eps",
            "P[0.0](x)",
            "exists y. pred(y) = x",
            "x = eps | P[1](x)",
        ]
        for text in formulas:
            sols = solution_set(e, parse_formula(text), "x")
            for sigma in PLANS["D"].sorted_nodes():
                fiber = e.fiber(sigma)
                membership = {v in sols for v in fiber}
                assert len(membership) == 1, text


class TestAsymptoticCheck:
    def test_identity_formula(self):
        report = asymptotic_check(
            PLANS["B"], parse_formula("x = x"), "x", ladder=(2, 3, 4)
        )
        assert report.class_counts_exact and report.classes_stable
        assert report.rows[0].delta == Fraction(1)
        assert report.rows[-1].passed

    def test_plan_c_half(self):
        report = asymptotic_check(
            PLANS["C"], parse_formula("P[0](x)"), "x", ladder=(10, 20, 50), tol=0.02
        )
        assert report.rows[-1].ratio == pytest.approx(50 / 101)
        assert report.rows[-1].mu == pytest.approx(0.5)
        assert report.all_pass and report.trend_ok and report.class_counts_exact

    def test_plan_b_root_children(self):
        report = asymptotic_check(
            PLANS["B"], parse_formula("pred(x) = eps"), "x", ladder=(10, 20, 50)
        )
        assert report.rows[0].delta == Fraction(1, 2)
        assert report.rows[0].mu == pytest.approx(1.0)
        assert report.all_pass and report.trend_ok

    def test_parameterized(self):
        report = asymptotic_check(
            PLANS["B"],
            parse_formula("pred(x) = b & P[0.0](x)"),
            "x",
            param_spec={"b": (0,)},
            ladder=(3, 4, 5, 30),
        )
        assert report.class_counts_exact and report.classes_stable
        assert report.all_pass

    def test_inexact_class_counts_fail(self):
        # The class has n^2 - n members, but its relative fiber has n^2.
        report = asymptotic_check(
            PLANS["B"],
            parse_formula("P[0.0](x) & !(pred(x) = pred(b))"),
            "x",
            param_spec={"b": parse_node("0:0/0:0")},
            ladder=(3, 4, 5, 50),
        )
        assert report.classes_stable and report.top_pass
        assert not report.class_counts_exact
        assert not report.all_pass

    def test_unrealizable_parameter(self):
        with pytest.raises(DomainError):
            asymptotic_check(
                PLANS["A"],
                parse_formula("x = b"),
                "x",
                param_spec={"b": node("0:5")},
                ladder=(2, 3),
            )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.1])
    def test_bad_tolerance(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            asymptotic_check(PLANS["A"], parse_formula("P[0](x)"), "x", ladder=(2, 3), tol=tol)

    def test_free_vars_helper(self):
        f = parse_formula("exists y. meet(x, y) = b")
        assert free_vars(f) == frozenset({"x", "b"})


class TestDefinableSetsBuildNoTree:
    """Solution sets are listed orbit by orbit over the parameters, so
    they need no tree: with the build patched to raise, each call returns
    what the scans over the built tree return."""

    FORMULAS = [
        "x = x",
        "pred(x) = eps",
        "exists y. pred(y) = x",
        "!(x = b) & meet(x, b) = pred(b)",
        "x <= b | pred(x) = b",
    ]

    @staticmethod
    def no_build(e):
        raise AssertionError("the tree was built")

    def test_values_match_the_scans(self, monkeypatch):
        # The parameter b is the least node at the deepest plan node, as
        # the asymptotic check instantiates a plan path.
        cases, counts = [], {}
        for name, p in sorted(PLANS.items()):
            sigma = max(p.sorted_nodes(), key=len)
            for n in range(1, 5):
                e = expand(p, n)
                params = {"b": e.fiber(sigma)[0]}
                for text in self.FORMULAS:
                    f = parse_formula(text)
                    sols = frozenset(
                        x for x in e.nodes() if evaluate_reference(e, f, {**params, "x": x})
                    )
                    classes = classify_solutions_reference(e, f, "x", params)
                    cases.append((p, n, f, params, sols, classes))
                    counts[name, text, n] = len(sols)

        monkeypatch.setattr(Expansion, "_build", self.no_build)
        for p, n, f, params, sols, classes in cases:
            e = expand(p, n)
            assert solution_set(e, f, "x", params) == sols
            assert classify_solutions(e, f, "x", params) == classes
        ladder = (2, 3, 4)
        for name, p in sorted(PLANS.items()):
            spec = {"b": max(p.sorted_nodes(), key=len)}
            for text in self.FORMULAS:
                report = asymptotic_check(p, parse_formula(text), "x", spec, ladder=ladder)
                observed = [row.observed for row in report.rows]
                assert observed == [counts[name, text, n] for n in ladder], (name, text)
        # At scale: a ladder up to n = 1000 on B, and a set of 1,001 nodes.
        report = asymptotic_check(PLANS["B"], parse_formula("pred(x) = eps"), "x",
                                  ladder=(10, 20, 1000))
        assert [row.observed for row in report.rows] == [11, 21, 1001]
        f = parse_formula("exists y. pred(y) = x")
        assert len(solution_set(expand(PLANS["B"], 1000), f, "x")) == 1001

    def test_the_budget_applies_to_a_non_empty_set(self, monkeypatch):
        # Over the budget an empty set is still listed; any other raises as
        # the build would, even a set of one closure member.
        monkeypatch.setattr(Expansion, "_build", self.no_build)
        e = expand(PLANS["B"], 10**6)
        assert solution_set(e, parse_formula("!(x = x)"), "x") == frozenset()
        assert classify_solutions(e, parse_formula("!(x = x)"), "x") == frozenset()
        for listing in (solution_set, classify_solutions):
            with pytest.raises(BudgetError, match="^expansion would have 1000001000001 nodes"):
                listing(e, parse_formula("x = eps"), "x")
