import gc
import itertools
import random

import pytest

from treeplan import (
    BudgetError,
    DomainError,
    PlanSyntaxError,
    TreePlan,
    ell,
    evaluate,
    expand,
    height,
    induced_automorphism,
    inf_count,
    parse_formula,
    parse_node,
    parse_plan,
    plan_isomorphic,
    plan_text,
    subplan,
)
from treeplan.analysis import check_embedding
from treeplan.cli import main
from treeplan.plan import Expansion, predicted_size
from treeplan.trees import STAR, FiniteTree, Node

from conftest import PLANS, assert_expansion_matches_reference, evaluate_reference


class TestParsePlan:
    def test_single_node(self):
        p = parse_plan("(1)")
        assert len(p) == 1 and not p.inf_nodes

    def test_plan_b(self):
        p = parse_plan("(1 (inf (inf)))")
        assert sorted(p.nodes) == [(), (0,), (0, 0)]
        assert p.inf_nodes == {(0,), (0, 0)}

    def test_root_must_be_one(self):
        with pytest.raises(PlanSyntaxError):
            parse_plan("(inf)")

    def test_syntax_error_position(self):
        with pytest.raises(PlanSyntaxError) as err:
            parse_plan("(1 (2))")
        assert err.value.pos == 4

    def test_comments_and_whitespace(self):
        p = parse_plan("# a plan\n( 1 # root\n  (inf) )\n")
        assert plan_isomorphic(p, PLANS["A"])

    def test_trailing_garbage(self):
        with pytest.raises(PlanSyntaxError):
            parse_plan("(1) (1)")

    def test_roundtrip(self):
        for p in PLANS.values():
            assert parse_plan(plan_text(p)) == p


class TestDerivedParameters:
    def test_height(self):
        assert height(parse_plan("(1)")) == 0
        assert height(PLANS["B"]) == 2
        assert height(PLANS["D"]) == 2

    def test_ell(self):
        assert ell(PLANS["A"]) == 1
        assert ell(PLANS["D"]) == 2
        assert ell(parse_plan("(1 (1) (1))")) == 3

    def test_inf_count(self):
        for p in PLANS.values():
            assert inf_count(p, ()) == 0
        assert inf_count(PLANS["B"], (0, 0)) == 2
        assert inf_count(PLANS["D"], (0, 0)) == 1

    def test_inf_count_unknown(self):
        with pytest.raises(DomainError):
            inf_count(PLANS["A"], (5,))


class TestSubplan:
    def test_at_root(self):
        for p in PLANS.values():
            assert subplan(p, ()) == p

    def test_plan_b_tail(self):
        assert plan_isomorphic(subplan(PLANS["B"], (0,)), PLANS["A"])

    def test_leaf(self):
        assert subplan(PLANS["A"], (0,)) == parse_plan("(1)")


class TestPlanIsomorphic:
    def test_reflexive(self):
        for p in PLANS.values():
            assert plan_isomorphic(p, p)

    def test_child_permutation(self):
        assert plan_isomorphic(parse_plan("(1 (1) (inf))"), parse_plan("(1 (inf) (1))"))

    def test_mark_difference(self):
        assert not plan_isomorphic(PLANS["A"], parse_plan("(1 (1))"))


class TestExpand:
    def test_sizes(self):
        assert len(expand(parse_plan("(1)"), 5)) == 1
        assert len(expand(PLANS["A"], 3)) == 4
        assert len(expand(PLANS["B"], 2)) == 7

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            expand(PLANS["A"], 0)

    def test_budget(self):
        # The budget applies when the tree is built, not when expanding.
        e = expand(PLANS["B"], 10, budget=50)
        with pytest.raises(BudgetError):
            e.nodes()
        size = predicted_size(PLANS["chain3_one"], 4)
        with pytest.raises(BudgetError, match=f"^expansion would have {size} nodes; budget is {size - 1}$"):
            expand(PLANS["chain3_one"], 4, budget=size - 1).nodes()
        assert len(expand(PLANS["chain3_one"], 4, budget=size).nodes()) == size

    def test_the_environment_sets_no_budget(self, monkeypatch, tmp_path, capsys):
        # The budget is the argument or the default; no variable lowers it.
        monkeypatch.setenv("TREEPLAN_BUDGET", "3")
        assert len(expand(PLANS["B"], 2).nodes()) == 7
        path = tmp_path / "B.plan"
        path.write_text(plan_text(PLANS["B"]))
        assert main(["expand", "--plan", str(path), "--n", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_negative_budget_is_a_usage_error(self):
        with pytest.raises(DomainError, match="non-negative"):
            expand(PLANS["B"], 2, budget=-5)
        assert len(expand(PLANS["A"], 1, budget=2)) == 2

    def test_large_expansion_is_not_built(self):
        e = expand(PLANS["B"], 10**6)
        assert repr(e) == "Expansion('(1 (inf (inf)))', n=1000000, size=1000001000001)"
        assert parse_node("0:999999/0:999999") in e and parse_node("0:1000000") not in e
        assert e.node_at(1 + 999_999 * (10**6 + 1) + 1 + 5) == parse_node("0:999999/0:5")
        for listing in (e.nodes, lambda: e.tree, lambda: e.fiber((0,)), lambda: len(e)):
            with pytest.raises(BudgetError):
                listing()

    def test_predicted_size_matches(self):
        for p in PLANS.values():
            for n in (1, 2, 3):
                assert predicted_size(p, n) == len(expand(p, n).nodes())

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_monotone_substructure(self, name):
        p = PLANS[name]
        small, big = expand(p, 2), expand(p, 3)
        assert small.tree.nodes <= big.tree.nodes

    def test_height_preserved(self):
        for p in PLANS.values():
            for n in (1, 3):
                assert expand(p, n).tree.height() == height(p)

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "inf_mixed"])
    def test_children_multiplicities(self, name):
        p = PLANS[name]
        n = 3
        e = expand(p, n)
        for v in e.nodes():
            sigma = v.plan_path
            kids = e.tree.children(v)
            for tau in p.children(sigma):
                matching = [c for c in kids if c.plan_path == tau]
                assert len(matching) == (n if tau in p.inf_nodes else 1)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run a test with the cyclic collector on or off, then restore it."""
    was_on = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_on else gc.disable()


class TestBuild:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_the_reference(self, name):
        for n in range(1, 6):
            assert_expansion_matches_reference(expand(PLANS[name], n))

    def test_plan_b_at_199(self):
        e = expand(PLANS["B"], 199)
        assert_expansion_matches_reference(e)
        assert len(e) == 39801

    @pytest.mark.parametrize("collector", [True], indirect=True)
    def test_a_build_starts_at_most_one_collection(self, collector):
        # A built tree holds no reference cycle, so the build pauses the
        # cyclic collector; left running, it starts 58 collections here.
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            assert len(expand(PLANS["B"], 199)) == 39801
        finally:
            gc.callbacks.remove(count)
        assert len(starts) <= 1, starts

    def test_a_build_leaves_the_collector_as_it_found_it(self, collector):
        assert len(expand(PLANS["B"], 5)) == 31
        assert gc.isenabled() is collector

    def test_a_failed_build_leaves_the_collector_as_it_found_it(self, collector, monkeypatch):
        def fail(children):
            raise RuntimeError("no tree")

        monkeypatch.setattr(FiniteTree, "_from_children", fail)
        with pytest.raises(RuntimeError, match="no tree"):
            len(expand(PLANS["B"], 5))
        assert gc.isenabled() is collector

    def test_a_build_over_budget_leaves_the_collector_as_it_found_it(self, collector):
        with pytest.raises(BudgetError):
            len(expand(PLANS["B"], 199, budget=100))
        assert gc.isenabled() is collector

    def test_deep_chain(self):
        # The plan parser and the walk keep their own stacks, so a chain far
        # deeper than the recursion limit parses and builds.
        depth = 5000
        p = parse_plan("(1 " * depth + ")" * depth)
        assert p == TreePlan(frozenset((0,) * k for k in range(depth)), frozenset())
        e = expand(p, 3)
        assert len(e) == predicted_size(p, 3) == depth
        assert e.fiber((0,) * (depth - 1)) == [Node(((0, STAR),) * (depth - 1))]
        # Every node meets its parent: evaluation walks the common
        # prefix over the whole parent, up to 4,999 segments.
        assert evaluate(e, parse_formula("forall x. meet(x, pred(x)) = pred(x)")) is True


def membership_inputs(e):
    """Every node of ``e`` with its plain-tuple twin, and near misses built
    from each node: segments of the wrong arity or not tuples at all,
    negative tags, tag ``n``, ``bool`` tags, ``STAR`` on a replicated
    branch, an int tag on a singleton branch, unknown branch indices."""
    n = e.n
    out = [None, 0, "eps", (), ((),), (0, 0), ("a",), ((0, 0, 0),)]
    for v in e.nodes():
        out += [v, tuple(v)]
        for i, (branch, tag) in enumerate(v):
            head, tail = v[:i], v[i + 1:]
            inf = tag != STAR
            swaps = [
                (branch,), (branch, tag, 0), [branch, tag], branch,
                (branch, -1 if inf else 0), (branch, n), (branch, n - 1),
                (branch, True), (branch, False), ([branch], tag),
                (branch, STAR if inf else 0), (branch + 1, tag), (-1, tag), (branch, "0"),
            ]
            for seg in swaps:
                out.append(Node(head + (seg,) + tail))
                out.append(head + (seg,) + tail)
        for branch in range(3):
            for tag in (STAR, 0, n):
                out.append(v.child(branch, tag))
    return out


class TestLazyExpansion:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_node_at_lists_the_nodes_in_order(self, name):
        for n in range(1, 5):
            fresh = expand(PLANS[name], n, budget=0)  # building would raise
            listed = [fresh.node_at(i) for i in range(predicted_size(fresh.plan, n))]
            assert listed == expand(PLANS[name], n).nodes()
            assert all(type(v) is Node for v in listed)
            for i in (-1, len(listed)):
                with pytest.raises(DomainError):
                    fresh.node_at(i)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_evaluation_builds_no_tree(self, name, monkeypatch):
        sentences = [
            parse_formula("forall x. forall y. meet(x, y) <= x"),
            parse_formula("exists x. exists y. !(x = y) & pred(x) = pred(y)"),
            parse_formula("exists x. forall y. !(pred(y) = x) | y = x"),
        ]
        expected = {
            n: [evaluate_reference(expand(PLANS[name], n), f) for f in sentences] for n in range(1, 5)
        }

        def no_build(e):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(Expansion, "_build", no_build)
        for n, values in expected.items():
            e = expand(PLANS[name], n)
            assert [evaluate(e, f) for f in sentences] == values, n
            assert e._tree is None

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_membership_agrees_with_the_built_tree(self, name):
        for n in range(1, 4):
            lazy = expand(PLANS[name], n, budget=0)
            built = expand(PLANS[name], n).tree
            for x in membership_inputs(expand(PLANS[name], n)):
                try:
                    hash(x)
                except TypeError:
                    assert (x in lazy) is False
                    continue
                assert (x in lazy) is (x in built), x
                refused = []
                for holder in (lazy, built):
                    try:
                        holder.require(x)
                    except DomainError as err:
                        refused.append(str(err))
                assert len(refused) in (0, 2) and refused[:1] == refused[1:], x
                if isinstance(x, Node) and x in built:
                    assert not refused
                else:
                    assert refused and refused[0].startswith("unknown node ")

    def test_bool_tags_equal_their_ints(self):
        # True == 1 and hash(True) == hash(1): as in a dict, (0, True) is 0:1.
        e = expand(PLANS["A"], 2)
        assert Node([(0, True)]) in e and Node([(0, True)]) in e.tree
        assert Node([(0, True)]) not in expand(PLANS["A"], 1)

    def test_membership_at_a_million(self):
        e = expand(PLANS["inf_one_inf"], 10**6, budget=0)
        assert parse_node("0:999999/0:*/0:0") in e
        for text in ("0:1000000", "0:0/0:0", "0:*", "0:5/0:*/0:1000000", "1:0"):
            assert parse_node(text) not in e
        e.require(parse_node("0:999999/0:*/0:999999"))
        assert e.node_at(predicted_size(e.plan, e.n) - 1) == parse_node("0:999999/0:*/0:999999")


class TestInducedAutomorphism:
    def test_identity(self):
        e = expand(PLANS["A"], 2)
        ident = induced_automorphism(e, {0: 0, 1: 1})
        assert all(ident[v] == v for v in e.nodes())

    def test_swap_example(self):
        e = expand(PLANS["A"], 2)
        swap = induced_automorphism(e, {0: 1, 1: 0})
        assert swap[parse_node("0:0")] == parse_node("0:1")

    def test_plan_b_swap(self):
        e = expand(PLANS["B"], 2)
        swap = induced_automorphism(e, {0: 1, 1: 0})
        assert swap[parse_node("0:0/0:1")] == parse_node("0:1/0:0")
        check_embedding(e, e, swap)
        assert sorted(swap.values()) == e.nodes()

    def test_group_action(self):
        e = expand(PLANS["C"], 3)
        rng = random.Random(5)
        perms = [dict(enumerate(perm)) for perm in itertools.permutations(range(3))]
        for _ in range(10):
            p1, p2 = rng.choice(perms), rng.choice(perms)
            composed = {t: p2[p1[t]] for t in range(3)}
            f1, f2 = induced_automorphism(e, p1), induced_automorphism(e, p2)
            fc = induced_automorphism(e, composed)
            assert all(fc[v] == f2[f1[v]] for v in e.nodes())
            inverse = {v: k for k, v in p1.items()}
            fi = induced_automorphism(e, inverse)
            assert all(fi[f1[v]] == v for v in e.nodes())

    def test_bad_perm(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError):
            induced_automorphism(e, {0: 0, 1: 0})
