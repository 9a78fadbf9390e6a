import random

import pytest

from treeplan import (
    DomainError,
    FiniteTree,
    Node,
    ROOT,
    STAR,
    canonical,
    evaluate,
    expand,
    find_embedding,
    format_node,
    induced_automorphism,
    meet,
    parse_formula,
    parse_node,
    predk,
    qftp,
    subtree,
)
from treeplan.analysis import automorphism_over, check_embedding
from treeplan.closure import orbit_reps, tcl, tuple_code
from treeplan.trees import meet_nodes

from conftest import (
    PLANS,
    brute_force_isomorphic,
    canonical_recursive,
    lcp_oracle,
    node_order_key,
    qftp_recursive,
    random_tree,
)


def node(text):
    return parse_node(text)


class TestNodeText:
    def test_roundtrip(self):
        for text in ("eps", "0:*", "0:0", "0:*/1:3", "2:5/0:*/1:0"):
            assert format_node(parse_node(text)) == text

    def test_bad_segment(self):
        with pytest.raises(DomainError):
            parse_node("0:x")


class TestNodeOrder:
    def test_star_sorts_below_every_tag(self):
        texts = ["0:1", "1:*", "0:*/0:3", "0:0/1:*", "eps", "0:*", "0:0", "0:0/0:0"]
        nodes = [node(t) for t in texts]
        assert sorted(nodes) == sorted(nodes, key=node_order_key)
        assert [format_node(v) for v in sorted(nodes)] == [
            "eps", "0:*", "0:*/0:3", "0:0", "0:0/0:0", "0:0/1:*", "0:1", "1:*",
        ]

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_expansions_order_as_the_segment_key(self, name):
        for n in range(1, 5):
            e = expand(PLANS[name], n)
            nodes = list(e.tree.nodes)
            assert sorted(nodes) == sorted(nodes, key=node_order_key) == e.nodes()
            for v in e.nodes():
                kids = e.tree.children(v)
                assert kids == sorted(kids, key=node_order_key)
                if STAR in (tag for _branch, tag in v):
                    assert parse_node(format_node(v)) == v
            # expand fills the fibers in its own walk; pin them to their definition.
            for sigma in PLANS[name].nodes:
                assert e.fiber(sigma) == [v for v in e.nodes() if v.plan_path == sigma]

    def test_tree_order_is_the_segment_key(self):
        # Random trees mixing star and numbered tags, given in random order
        # and with some nodes repeated; a repeat collapses to one node.
        rng = random.Random(8)
        for _ in range(200):
            nodes = [ROOT]
            for _ in range(rng.randint(0, 30)):
                v = rng.choice(nodes).child(rng.randrange(3), rng.choice([STAR, 0, 1, 2, 3]))
                if v not in nodes:
                    nodes.append(v)
            given = nodes + [rng.choice(nodes) for _ in range(rng.randint(0, 5))]
            rng.shuffle(given)
            tree = FiniteTree(given)
            assert list(tree) == tree.sorted_nodes() == sorted(nodes, key=node_order_key)
            assert tree.nodes == set(nodes) and len(tree) == len(nodes)
            for v in tree:
                below = [w for w in nodes if w.depth and w.parent() == v]
                assert tree.children(v) == sorted(below, key=node_order_key)

    def test_node_compares_and_hashes_as_its_segments(self):
        # Random segment tuples of depth 0-6, star and numbered tags; the
        # small alphabet makes equal and prefix-related pairs common.
        rng = random.Random(9)

        def segments():
            return tuple(
                (rng.randrange(2), rng.choice([STAR, 0, 1])) for _ in range(rng.randint(0, 6))
            )

        for _ in range(3000):
            s, t = segments(), segments()
            assert (Node(s) == Node(t)) == (s == t)
            assert hash(Node(s)) == hash(s)
            assert (Node(s) < Node(t)) == (s < t)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_operations_return_nodes(self, name):
        # A missing Node(...) wrap would leak a plain tuple without .depth.
        e = expand(PLANS[name], 2)
        nodes = e.nodes()
        rng = random.Random(name)
        results = list(nodes)
        for v in nodes:
            w = rng.choice(nodes)
            results += [parse_node(format_node(v)), v.parent(), v.child(0, STAR)]
            results.append(v.retag(lambda t: t + 1))
            results += [v.prefix(i) for i in range(v.depth + 1)]
            results += [meet_nodes(v, w), meet(e.tree, v, w)]
            results += [predk(e.tree, v, k) for k in range(v.depth + 2)]
            results += subtree(e.tree, v).nodes
        for _ in range(10):
            members = rng.sample(nodes, min(len(nodes), rng.randint(0, 3)))
            results += tcl(e, members)
            results += orbit_reps(e, members)
        assert all(type(x) is Node for x in results)

    def test_plain_tuple_is_not_a_node(self):
        # It equals and hashes like the node it spells, so membership alone
        # would let it through to code that needs the node methods.
        e = expand(PLANS["A"], 2)
        assert ((0, 0),) in e
        f = parse_formula("exists y. pred(y) = x")
        for fast in (False, True):
            with pytest.raises(DomainError, match="unknown node"):
                evaluate(e, f, env={"x": ((0, 0),)}, fast=fast)
        with pytest.raises(DomainError, match="unknown node"):
            orbit_reps(e, [((0, 0),)])

    def test_tree_must_be_prefix_closed_and_rooted(self):
        with pytest.raises(DomainError):
            FiniteTree([ROOT, node("0:0/0:1")])
        with pytest.raises(DomainError):
            FiniteTree([node("0:*")])
        with pytest.raises(DomainError):
            FiniteTree([])
        # A plain tuple equals the root it spells but is not a node.
        with pytest.raises(DomainError, match="unknown node"):
            FiniteTree([()])


class TestMeet:
    def test_root_is_minimum(self):
        e = expand(PLANS["B"], 2)
        for v in e.nodes():
            assert meet(e.tree, ROOT, v) == ROOT

    def test_idempotent(self):
        e = expand(PLANS["B"], 2)
        for v in e.nodes():
            assert meet(e.tree, v, v) == v

    def test_plan_b_example(self):
        e = expand(PLANS["B"], 2)
        a, b = node("0:0/0:1"), node("0:0/0:0")
        expected = lcp_oracle(a, b)
        assert expected == node("0:0")
        assert meet(e.tree, a, b) == expected

    def test_against_prefix_oracle(self):
        rng = random.Random(7)
        e = expand(PLANS["D"], 3)
        nodes = e.nodes()
        for _ in range(200):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert meet(e.tree, a, b) == lcp_oracle(a, b)

    def test_unknown_node(self):
        e = expand(PLANS["A"], 1)
        with pytest.raises(DomainError):
            meet(e.tree, ROOT, node("0:5"))


class TestPredk:
    def test_root_convention(self):
        e = expand(PLANS["A"], 2)
        assert predk(e.tree, ROOT, 5) == ROOT

    def test_single_step(self):
        e = expand(PLANS["A"], 2)
        assert predk(e.tree, node("0:1"), 1) == ROOT

    def test_prefix_oracle(self):
        e = expand(PLANS["B"], 2)
        a = node("0:0/0:1")
        assert predk(e.tree, a, 1) == Node(a[:-1]) == node("0:0")
        assert predk(e.tree, a, 2) == ROOT
        assert predk(e.tree, a, 9) == ROOT

    def test_negative_k_is_rejected(self):
        # A negative number of steps names no predecessor.
        e = expand(PLANS["B"], 2)
        for v in e.nodes():
            for k in (-1, -2):
                with pytest.raises(DomainError, match="k >= 0"):
                    predk(e.tree, v, k)


class TestOrderLaws:
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "inf_mixed"])
    def test_prefix_order_laws(self, name):
        e = expand(PLANS[name], 2)
        nodes = e.nodes()
        for a in nodes:
            assert a.is_prefix_of(a)
            if a != ROOT:
                assert a.parent().is_prefix_of(a) and a.parent() != a
        for a in nodes:
            for b in nodes:
                m = meet(e.tree, a, b)
                assert m.is_prefix_of(a) and m.is_prefix_of(b)
                # m is the maximum lower bound
                for c in nodes:
                    if c.is_prefix_of(a) and c.is_prefix_of(b):
                        assert c.is_prefix_of(m)


class TestCanonical:
    def test_single_root(self):
        e = expand(PLANS["single"], 5)
        assert canonical(e.tree).code == "()"

    def test_deterministic(self):
        first = canonical(expand(PLANS["D"], 3).tree, use_labels=True)
        second = canonical(expand(PLANS["D"], 3).tree, use_labels=True)
        assert first == second

    def test_cross_plan_shape(self):
        # Both are a root with two leaves.
        ca = canonical(expand(PLANS["A"], 2).tree)
        cc = canonical(expand(PLANS["C"], 1).tree)
        assert ca == cc
        assert brute_force_isomorphic(
            expand(PLANS["A"], 2).tree, expand(PLANS["C"], 1).tree
        )
        assert canonical(expand(PLANS["A"], 2).tree, use_labels=True) != canonical(
            expand(PLANS["C"], 1).tree, use_labels=True
        )

    def test_isomorphism_complete_on_random_trees(self):
        rng = random.Random(11)
        trees = [random_tree(rng, 12) for _ in range(40)]
        for i in range(0, len(trees), 2):
            t1, t2 = trees[i], trees[i + 1]
            same_code = canonical(t1) == canonical(t2)
            assert same_code == brute_force_isomorphic(t1, t2)


class TestCodesMatchRecursiveWalk:
    """One code pass against the recursive walk it replaced."""

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_corpus(self, name):
        rng = random.Random(name)
        for n in (1, 2, 3):
            t = expand(PLANS[name], n).tree
            for labels in (False, True):
                assert canonical(t, use_labels=labels).code == canonical_recursive(t, labels)
            nodes = t.sorted_nodes()
            for _ in range(20):
                tup = tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)))
                for labels in (False, True):
                    assert qftp(t, tup, use_labels=labels).code == qftp_recursive(t, tup, labels)

    def test_random_trees(self):
        rng = random.Random(17)
        for _ in range(60):
            t = random_tree(rng, 14)
            assert canonical(t).code == canonical_recursive(t)
            tup = tuple(rng.choice(t.sorted_nodes()) for _ in range(2))
            assert qftp(t, tup).code == qftp_recursive(t, tup)


class TestQftp:
    def test_root_generated(self):
        e = expand(PLANS["A"], 1)
        t = qftp(e.tree, (ROOT,))
        assert t.generated == frozenset({ROOT})

    def test_plan_c_equal_types(self):
        e = expand(PLANS["C"], 2)
        a, b = node("0:0"), node("0:1")
        assert qftp(e.tree, (a,)) == qftp(e.tree, (b,))
        # Independent witness: the tag swap is an automorphism moving a to b.
        swap = induced_automorphism(e, {0: 1, 1: 0})
        assert swap[a] == b

    def test_plan_d_distinct_types(self):
        e = expand(PLANS["D"], 2)
        a, b = node("0:*"), node("1:0")
        assert qftp(e.tree, (a,)) != qftp(e.tree, (b,))

    def test_soundness_via_automorphism(self):
        # Equal codes exactly when automorphism_over finds an automorphism
        # carrying one tuple to the other, on tuples of length 0-3 with
        # repeats, partners of the same and of another length.
        for name in sorted(PLANS):
            rng = random.Random(name)
            for n in (1, 2, 3):
                e = expand(PLANS[name], n)
                for ta, tb in soundness_pairs(rng, e):
                    g = automorphism_over(e, ta, tb)
                    if tuple_code(e, ta) != tuple_code(e, tb):
                        assert g is None, (name, n, ta, tb)
                        continue
                    assert g is not None, (name, n, ta, tb)
                    assert all(g[x] == y for x, y in zip(ta, tb))
                    assert sorted(g) == sorted(g.values())
                    check_embedding(e, e, g)


def soundness_pairs(rng, e, count=30):
    """Tuple pairs for :meth:`TestQftp.test_soundness_via_automorphism`:
    a random tuple of length 0-3 (entries may repeat) with its image under
    a random tag permutation, a random tuple of its length, or a random
    tuple of another length."""
    nodes = e.nodes()

    def draw(length):
        return tuple(rng.choice(nodes) for _ in range(length))

    pairs = []
    for i in range(count):
        ta = draw(rng.randint(0, 3))
        if len(ta) >= 2 and rng.random() < 0.3:
            ta = ta[:-1] + (ta[0],)
        if i % 3 == 0:
            perm = list(range(e.n))
            rng.shuffle(perm)
            g = induced_automorphism(e, dict(enumerate(perm)))
            tb = tuple(g[x] for x in ta)
        elif i % 3 == 1:
            tb = draw(len(ta))
        else:
            tb = draw(rng.choice([k for k in range(4) if k != len(ta)]))
        pairs.append((ta, tb))
    return pairs


class TestFindEmbedding:
    def test_identity(self):
        e = expand(PLANS["B"], 2)
        ident = {v: v for v in e.nodes()}
        assert find_embedding(e.tree, e.tree, ident) == ident

    def test_joint_embedding(self):
        f = find_embedding(expand(PLANS["A"], 1).tree, expand(PLANS["A"], 3).tree)
        assert f is not None
        for a, b in f.items():
            assert a.plan_path == b.plan_path

    def test_absence_on_height_mismatch(self):
        assert (
            find_embedding(expand(PLANS["B"], 2).tree, expand(PLANS["A"], 5).tree)
            is None
        )

    def test_exhaustive_oracle_agreement(self):
        # Unlabeled embeddings of a two-leaf star into shapes with/without room.
        star2 = expand(PLANS["A"], 2).tree
        star3 = expand(PLANS["A"], 3).tree
        chain = expand(PLANS["B"], 1).tree
        assert find_embedding(star2, star3, use_labels=False) is not None
        assert find_embedding(star3, star2, use_labels=False) is None
        assert find_embedding(star2, chain, use_labels=False) is None

    def test_inconsistent_partial(self):
        e = expand(PLANS["A"], 2)
        with pytest.raises(DomainError):
            find_embedding(e.tree, e.tree, {ROOT: node("0:0")})


class TestSubtree:
    def test_strips_prefix(self):
        e = expand(PLANS["B"], 2)
        sub = subtree(e.tree, node("0:0"))
        assert len(sub) == 3
        assert ROOT in sub
