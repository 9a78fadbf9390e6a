from fractions import Fraction

import pytest

from treeplan import (
    BudgetError,
    DomainError,
    Polynomial,
    deg,
    dim_measure,
    expand,
    inf_count,
    lead_count,
    parse_plan,
    poly_P,
    poly_Q,
    poly_Q_rel,
    subplan,
    verify_P,
    verify_Q,
)
from treeplan.counting import CountRow, fiber_above
from treeplan.trees import parse_node

from conftest import PLANS, verify_Q_reference


class TestPolynomial:
    def test_eval_and_degree(self):
        p = Polynomial([1, 1, 1])
        assert [p(n) for n in (1, 2, 3)] == [3, 7, 13]
        assert p.degree() == 2 and p.leading() == 1

    def test_arithmetic(self):
        x = Polynomial.x()
        assert (x * x + x + Polynomial.const(1)) == Polynomial([1, 1, 1])

    def test_trailing_zeros_dropped(self):
        assert Polynomial([1, 0, 0]) == Polynomial([1])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Polynomial([-1])

    def test_repr(self):
        assert repr(Polynomial([1, 2, 1])) == "x^2 + 2x + 1"
        assert repr(Polynomial([])) == "0"


class TestPolyP:
    def test_single(self):
        assert poly_P(parse_plan("(1)")) == Polynomial([1])

    def test_plan_b(self):
        # Counts at n = 1..4 enumerate to 3, 7, 13, 21.
        p = poly_P(PLANS["B"])
        assert p == Polynomial([1, 1, 1])
        for n in range(1, 5):
            assert p(n) == len(expand(PLANS["B"], n))

    def test_plan_c(self):
        p = poly_P(PLANS["C"])
        assert p == Polynomial([1, 2])
        assert [p(n) for n in (1, 2, 3)] == [3, 5, 7]

    def test_plan_d(self):
        assert poly_P(PLANS["D"]) == Polynomial([2, 2])

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_fiber_sum_identity(self, name):
        # The size polynomial is the sum over plan nodes of the fiber monomials.
        p = PLANS[name]
        total = Polynomial([])
        for sigma in p.sorted_nodes():
            total = total + Polynomial.monomial(inf_count(p, sigma))
        assert total == poly_P(p)


class TestPolyQ:
    def test_root(self):
        for p in PLANS.values():
            assert poly_Q(p, ()) == Polynomial([1])

    def test_plan_b_leaf(self):
        assert poly_Q(PLANS["B"], (0, 0)) == Polynomial.monomial(2)

    def test_plan_d(self):
        assert poly_Q(PLANS["D"], (0, 0)) == Polynomial.monomial(1)


class TestPolyQRel:
    def test_equal_endpoints(self):
        for p in PLANS.values():
            for sigma in p.sorted_nodes():
                assert poly_Q_rel(p, sigma, sigma) == Polynomial([1])

    def test_plan_b(self):
        assert poly_Q_rel(PLANS["B"], (), (0, 0)) == Polynomial.monomial(2)
        assert poly_Q_rel(PLANS["B"], (0,), (0, 0)) == Polynomial.monomial(1)

    def test_degree_difference(self):
        for p in PLANS.values():
            for sigma in p.sorted_nodes():
                for sigma_p in p.sorted_nodes():
                    if sigma_p[: len(sigma)] == sigma:
                        assert poly_Q_rel(p, sigma, sigma_p).degree() == inf_count(
                            p, sigma_p
                        ) - inf_count(p, sigma)

    def test_non_prefix_pair(self):
        with pytest.raises(DomainError):
            poly_Q_rel(PLANS["C"], (0,), (1,))

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_the_subplan_fiber(self, name):
        p = PLANS[name]
        for sigma in p.sorted_nodes():
            for sigma_p in p.sorted_nodes():
                if sigma_p[: len(sigma)] == sigma:
                    tail = sigma_p[len(sigma):]
                    assert poly_Q_rel(p, sigma, sigma_p) == poly_Q(subplan(p, sigma), tail)


class TestDegreeAndLead:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_deg_is_max_fiber_degree(self, name):
        p = PLANS[name]
        assert deg(p) == max(inf_count(p, sigma) for sigma in p.sorted_nodes())

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_lead_counts_maximal_nodes(self, name):
        p = PLANS[name]
        maximal = sum(
            1 for sigma in p.sorted_nodes() if inf_count(p, sigma) == deg(p)
        )
        assert lead_count(p) == maximal == poly_P(p).leading()


class TestDimMeasure:
    def test_equal_endpoints(self):
        dm = dim_measure(PLANS["B"], (0,), (0,))
        assert dm.delta == 0 and dm.mu_exact == 1

    def test_plan_c(self):
        dm = dim_measure(PLANS["C"], (), (0,))
        assert dm.delta == Fraction(1) and dm.mu_exact == Fraction(1, 2)

    def test_plan_b(self):
        dm = dim_measure(PLANS["B"], (), (0,))
        assert dm.delta == Fraction(1, 2) and dm.mu == pytest.approx(1.0)

    def test_decimal_rendering(self):
        dm = dim_measure(PLANS["C"], (), (0,))
        assert dm.mu_decimal(3) == "0.500"


class TestVerify:
    def test_single_plan(self):
        assert verify_P(parse_plan("(1)"), 4).all_pass

    def test_plan_b_at_three(self):
        report = verify_P(PLANS["B"], 3)
        row = [r for r in report.rows if r.n == 3][0]
        assert row.observed == row.predicted == 13

    def test_plan_d_at_two(self):
        report = verify_P(PLANS["D"], 2)
        row = [r for r in report.rows if r.n == 2][0]
        assert row.observed == row.predicted == 6

    def test_verify_q_examples(self):
        e3 = expand(PLANS["B"], 3)
        assert len(e3.fiber(())) == 1
        assert len(e3.fiber((0, 0))) == 9
        assert len(fiber_above(e3, parse_node("0:1"), (0, 0))) == 3
        assert verify_Q(PLANS["B"], 3).all_pass

    @pytest.mark.parametrize("name", ["A", "C", "D", "inf_mixed", "chain3"])
    def test_corpus_members_exact(self, name):
        assert verify_P(PLANS[name], 4).all_pass
        assert verify_Q(PLANS[name], 3).all_pass

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_relative_rows_count_the_fiber_above(self, name):
        p = PLANS[name]
        e = expand(p, 3)
        rows = [r for r in verify_Q(p, 3).rows if r.n == 3 and r.quantity.startswith("Qrel")]
        expected = [
            len(fiber_above(e, b, sigma_p))
            for sigma in p.sorted_nodes()
            for sigma_p in p.sorted_nodes()
            if sigma_p[: len(sigma)] == sigma
            for b in e.fiber(sigma)
        ]
        assert [r.observed for r in rows] == expected

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            verify_P(PLANS["B"], 6, budget=10)

    @pytest.mark.parametrize(
        "name, n_max",
        [pytest.param(name, 6, id=name) for name in sorted(PLANS)]
        # Two-digit tags, and ``*`` segments between them.
        + [
            pytest.param(name, 11, id=f"{name}-n11")
            for name in ("B", "chain3_one", "inf_one_inf")
        ],
    )
    def test_verify_q_matches_the_per_member_loop(self, name, n_max):
        p = PLANS[name]
        assert verify_Q(p, n_max).to_csv() == verify_Q_reference(p, n_max).to_csv()

    def test_verify_q_budget_error(self):
        # B has 13 nodes at n = 3: the third size is over a budget of 10.
        with pytest.raises(BudgetError) as err:
            verify_Q(PLANS["B"], 6, budget=10)
        with pytest.raises(BudgetError) as ref:
            verify_Q_reference(PLANS["B"], 6, budget=10)
        assert str(err.value) == str(ref.value) == "expansion would have 13 nodes; budget is 10"

    def test_count_row_shape(self):
        row = CountRow("(1)", "P", 1, 1, 1, True)
        assert CountRow._fields == ("plan", "quantity", "n", "observed", "predicted", "passed")
        assert repr(row) == (
            "CountRow(plan='(1)', quantity='P', n=1, observed=1, predicted=1, passed=True)"
        )
        with pytest.raises(AttributeError):
            row.observed = 2

    def test_csv_shape(self):
        text = verify_P(PLANS["A"], 2).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "plan,quantity,n,observed,predicted,pass"
        assert len(lines) == 3
