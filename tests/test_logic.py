import random
import zlib
from fractions import Fraction

import pytest

from treeplan import (
    DomainError,
    FormulaSyntaxError,
    ROOT,
    UnboundVariableError,
    classify_solutions,
    evaluate,
    expand,
    formula_text,
    free_vars,
    orbit,
    parse_formula,
    parse_node,
    principal_formula,
    pseudofinite_probe,
    qftp,
    qrank,
    solution_set,
)
from treeplan.logic import (
    And,
    Eps,
    Eq,
    Exists,
    Label,
    Not,
    Pred,
    Var,
    asymptotic_check,
    at_least,
)

from conftest import PLANS, random_subset


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
        assert parse_formula("pred^2(x) = eps") == Eq(Pred(Pred(Var("x"))), Eps())
        assert parse_formula("pred^0(x) = eps") == Eq(Var("x"), Eps())

    def test_precedence(self):
        f = parse_formula("x = eps | x = eps & !(x = eps) -> x = eps")
        # ! > & > | > ->
        text = formula_text(f)
        assert text.endswith("-> x = eps")
        g = parse_formula("x = eps -> x = eps -> x = eps")
        assert formula_text(g) == "x = eps -> x = eps -> x = eps"

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

    @pytest.mark.parametrize("fast", [False, True])
    def test_inner_quantifier_restores_outer_binding(self, fast):
        e = expand(PLANS["A"], 2)
        f = parse_formula("exists x. (exists x. P[0](x)) & x = eps")
        assert evaluate(e, f, fast=fast)

    @pytest.mark.parametrize("fast", [False, True])
    def test_quantifier_over_env_variable(self, fast):
        e = expand(PLANS["A"], 2)
        env = {"x": ROOT}
        assert evaluate(e, parse_formula("(exists x. P[0](x)) & x = eps"), env, fast=fast)
        assert not evaluate(e, parse_formula("(forall x. P[0](x)) | !(x = eps)"), env, fast=fast)
        assert env == {"x": ROOT}

    def test_fast_ranges_over_every_env_orbit(self):
        e = expand(PLANS["A"], 3)
        env = {"x": node("0:1"), "y": node("0:2")}
        f = parse_formula("exists x. x = y")
        assert evaluate(e, f, env, fast=True)
        assert evaluate(e, f, {"y": node("0:2")}, fast=True)

    @pytest.mark.parametrize("name", ["A", "C", "D", "inf_one"])
    def test_fast_matches_plain(self, name):
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
            assert evaluate(e, f) == evaluate(e, f, fast=True), text


@pytest.mark.parametrize("fast", [False, True])
class TestLazyErrors:
    """An atom raises only when evaluation reaches it, left to right."""

    def test_unbound_variable_in_a_branch_never_reached(self, fast):
        e = expand(PLANS["A"], 2)
        assert evaluate(e, parse_formula("eps = eps | y = eps"), fast=fast)

    def test_unbound_variable_reached_first(self, fast):
        e = expand(PLANS["A"], 2)
        with pytest.raises(UnboundVariableError, match="unbound variable 'y'"):
            evaluate(e, parse_formula("y = eps | eps = eps"), fast=fast)

    def test_bad_label_in_a_branch_never_reached(self, fast):
        e = expand(PLANS["A"], 2)
        f = parse_formula("exists x. x = eps | P[9](x)")
        assert evaluate(e, f, fast=fast)
        assert not evaluate(e, parse_formula("!(eps = eps) & P[9](eps)"), fast=fast)
        with pytest.raises(DomainError, match="label path"):
            evaluate(e, parse_formula("eps = eps & P[9](eps)"), fast=fast)

    def test_env_node_outside_the_expansion(self, fast):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError, match="unknown node 0:2"):
            evaluate(e, parse_formula("eps = eps"), {"y": node("0:2")}, fast=fast)

    def test_solution_set_parameter_outside_the_expansion(self, fast):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError, match="unknown node 0:2"):
            solution_set(e, parse_formula("x = b"), "x", {"b": node("0:2")}, fast=fast)


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

    def test_free_vars_helper(self):
        f = parse_formula("exists y. meet(x, y) = b")
        assert free_vars(f) == frozenset({"x", "b"})
