import random

import pytest

from treeplan import (
    DomainError,
    ROOT,
    anchor,
    downset,
    ell,
    expand,
    height,
    orbit,
    parse_node,
    tcl,
)

from treeplan.closure import orbit_reps

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
