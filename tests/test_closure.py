import random

import pytest

from treeplan import (
    DomainError,
    ROOT,
    STAR,
    anchor,
    downset,
    ell,
    expand,
    height,
    orbit,
    parse_node,
    parse_plan,
    tcl,
    type_count,
)

from treeplan.closure import embed_pairs, extend_least, orbit_reps, tuple_code
from treeplan.trees import Node

from conftest import PLANS, random_subset


def node(text):
    return parse_node(text)


class TestDownset:
    def test_empty(self):
        e = expand(PLANS["A"], 2)
        assert downset(e, []) == frozenset()

    def test_root_only(self):
        e = expand(PLANS["A"], 2)
        assert downset(e, [ROOT]) == frozenset({ROOT})

    def test_prefix_enumeration(self):
        e = expand(PLANS["B"], 2)
        b = node("0:0/0:1")
        # All prefixes, the root included (it is below everything).
        assert downset(e, [b]) == frozenset({ROOT, node("0:0"), b})


class TestTcl:
    def test_empty_plan_a(self):
        e = expand(PLANS["A"], 3)
        assert tcl(e, []) == frozenset({ROOT})

    def test_empty_plan_d(self):
        e = expand(PLANS["D"], 2)
        assert tcl(e, []) == frozenset({ROOT, node("0:*")})

    def test_idempotent_on_random_sets(self):
        e = expand(PLANS["B"], 3)
        rng = random.Random(2)
        for _ in range(25):
            members = random_subset(rng, e.nodes(), 4)
            closed = tcl(e, members)
            assert tcl(e, closed) == closed

    def test_closure_laws(self):
        # extensive and monotone
        e = expand(PLANS["inf_mixed"], 2)
        rng = random.Random(9)
        for _ in range(25):
            small = random_subset(rng, e.nodes(), 3)
            big = small | random_subset(rng, e.nodes(), 2)
            assert small <= tcl(e, small)
            assert tcl(e, small) <= tcl(e, big)

    def test_members_of_closure_have_one_marked_children_inside(self):
        e = expand(PLANS["D"], 3)
        closed = tcl(e, [node("1:2")])
        for v in closed:
            for c in e.tree.children(v):
                if not e.mark_is_inf(c):
                    assert c in closed


class TestAnchor:
    def test_member_is_its_own_anchor(self):
        e = expand(PLANS["B"], 2)
        b = node("0:1")
        assert anchor(e, b, [b]) == b

    def test_empty_parameters(self):
        e = expand(PLANS["B"], 2)
        assert anchor(e, node("0:0/0:1"), []) == ROOT

    def test_plan_d_one_step(self):
        e = expand(PLANS["D"], 2)
        assert anchor(e, node("0:*/0:1"), []) == node("0:*")

    def test_anchor_laws(self):
        e = expand(PLANS["inf_one_inf"], 2)
        rng = random.Random(4)
        for _ in range(30):
            members = random_subset(rng, e.nodes(), 3)
            a = rng.choice(e.nodes())
            closed = tcl(e, members)
            anc = anchor(e, a, members)
            assert anc.is_prefix_of(a) and anc in closed
            for i in range(anc.depth + 1, a.depth + 1):
                assert a.prefix(i) not in closed


class TestOrbit:
    def test_parameter_is_fixed(self):
        e = expand(PLANS["B"], 3)
        a = node("0:1")
        assert orbit(e, a, [a]) == frozenset({a})

    def test_closure_member_has_trivial_orbit(self):
        e = expand(PLANS["D"], 3)
        assert orbit(e, node("0:*"), []) == frozenset({node("0:*")})

    def test_plan_a_leaves(self):
        e = expand(PLANS["A"], 3)
        expected = frozenset({node("0:0"), node("0:1"), node("0:2")})
        assert orbit(e, node("0:0"), []) == expected

    @pytest.mark.parametrize("name", ["A", "B", "D", "leaf_and_branch"])
    def test_closure_is_algebraic_closure(self, name):
        # In-closure means orbit one; out-of-closure orbits have at least two
        # members and keep growing with the size parameter.
        p = PLANS[name]
        rng = random.Random(13)
        base = 2 + ell(p) * height(p)
        e0 = expand(p, base)
        for _ in range(12):
            members = random_subset(rng, e0.nodes(), 2)
            a = rng.choice(e0.nodes())
            in_closure = a in tcl(e0, members)
            sizes = []
            for n in (base, base + 1, base + 2):
                e = expand(p, n)
                sizes.append(len(orbit(e, a, members)))
            if in_closure:
                assert sizes == [1, 1, 1]
            else:
                assert sizes[0] >= 2
                assert sizes[0] < sizes[1] < sizes[2]


class TestOrbitReps:
    def test_least_free_tag(self):
        e = expand(PLANS["B"], 3)
        reps = orbit_reps(e, [node("0:1/0:0")])
        expected = ["eps", "0:0", "0:0/0:0", "0:1", "0:1/0:0", "0:1/0:1"]
        assert reps == [node(t) for t in expected]

    def test_full_fiber_has_no_free_orbit(self):
        e = expand(PLANS["A"], 2)
        assert orbit_reps(e, [node("0:0"), node("0:1")]) == [
            node("eps"), node("0:0"), node("0:1")
        ]

    def test_singleton_descendants_follow(self):
        e = expand(PLANS["inf_one_inf"], 3)
        assert orbit_reps(e, []) == [
            node("eps"), node("0:0"), node("0:0/0:*"), node("0:0/0:*/0:0")
        ]

    def test_independent_of_size(self):
        members = [node("0:0/0:1"), node("0:2")]
        small = orbit_reps(expand(PLANS["B"], 4), members)
        large = orbit_reps(expand(PLANS["B"], 30), members)
        assert small == large

    def test_unknown_member(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError):
            orbit_reps(e, [node("0:5")])
        with pytest.raises(DomainError):
            tcl(e, [ROOT, node("0:5")])

    def test_plan_paths_not_rebuilt_on_deep_chains(self, monkeypatch):
        # A mark-1 chain with a replicated leaf at every level, over the
        # root and a leaf at the top.  The closure walk carries each node's
        # plan path, so the only path asked for is the pick's, at any depth.
        plan_path = Node.plan_path
        calls = []

        def counted(v):
            calls.append(v.depth)
            return plan_path.fget(v)

        counts = []
        for depth in (50, 200, 800):
            e = expand(parse_plan("(1 (inf) " + "(1 (inf) " * depth + ")" * (depth + 1)), 2)
            leaf = Node(((1, STAR),) * depth + ((0, 1),))
            monkeypatch.setattr(Node, "plan_path", property(counted))
            reps = orbit_reps(e, [leaf, ROOT])
            monkeypatch.setattr(Node, "plan_path", plan_path)
            # The chain, the pick and a fresh leaf at every level.
            assert len(reps) == 2 * depth + 3
            counts.append(len(calls))
            calls.clear()
        assert counts == [1, 1, 1]


class TestTupleCode:
    def test_reads_the_downset_only(self):
        # Plan B at n = 10**6 has 10**12 nodes, far over the node budget:
        # only the tuple's downset is built.
        tup = (node("0:1/0:2"),)
        assert tuple_code(expand(PLANS["B"], 10**6), tup) == tuple_code(expand(PLANS["B"], 3), tup)

    def test_unknown_member(self):
        with pytest.raises(DomainError):
            tuple_code(expand(PLANS["B"], 3), (node("0:3"),))


def distinct_type_codes(e, k):
    """The number of distinct :func:`tuple_code`s of the j-tuples of ``e``
    for j = 1..k.  Tuples of one type are automorphic, so extending one
    tuple of each type by every node meets every type of the longer
    tuples."""
    reps = {"": ()}
    counts = []
    for _ in range(k):
        longer = {}
        for t in reps.values():
            for x in e.nodes():
                longer.setdefault(tuple_code(e, t + (x,)), t + (x,))
        reps = longer
        counts.append(len(reps))
    return counts


class TestTypeCount:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_the_distinct_type_codes(self, name):
        # At every size from k up, the k-tuples have type_count(p, k) types.
        p = PLANS[name]
        expected = [type_count(p, k) for k in (1, 2, 3)]
        for n in range(1, 6):
            ks = [k for k in (1, 2, 3) if k <= n <= k + 2]
            counts = distinct_type_codes(expand(p, n), max(ks))
            assert [counts[k - 1] for k in ks] == [expected[k - 1] for k in ks], n

    def test_plan_a_gives_the_bell_numbers(self):
        # A k-type of plan A is a partition of the k picks by equality
        # (the root or one leaf each): B(k + 1) counts them.
        assert [type_count(PLANS["A"], k) for k in range(1, 7)] == [2, 5, 15, 52, 203, 877]

    def test_plan_b(self):
        assert [type_count(PLANS["B"], k) for k in range(1, 5)] == [3, 14, 87, 658]

    def test_small_and_bad_k(self):
        assert type_count(PLANS["B"], 0) == 1
        assert type_count(PLANS["single"], 3) == 1
        with pytest.raises(DomainError):
            type_count(PLANS["B"], -1)


class TestExtendLeast:
    def test_least_fresh_steps_then_a_forced_one(self):
        # inf_one at n = 2: the two children of the root go in order of
        # first use, a third child (of a larger expansion) is forced onto
        # tag 0, and the star child of each mapped node follows it.
        e = expand(PLANS["inf_one"], 2)
        f, img = embed_pairs(e.plan, [])
        assert f == {ROOT: ROOT}
        nodes = [node(t) for t in ("0:1/0:*", "0:0", "0:1", "0:2")]
        forced = extend_least(e, f, img, nodes)
        assert forced == [(ROOT, 0)]
        pairs = [
            ("eps", "eps"),
            ("0:1", "0:0"), ("0:1/0:*", "0:0/0:*"),
            ("0:0", "0:1"), ("0:0/0:*", "0:1/0:*"),
            ("0:2", "0:0"), ("0:2/0:*", "0:0/0:*"),
        ]
        assert f == {node(a): node(b) for a, b in pairs}
        assert img == set(f.values())
        # Nothing left to map: no step, and nothing grows.
        assert extend_least(e, f, img, nodes) == []
        assert len(f) == len(pairs) and len(img) == 5
