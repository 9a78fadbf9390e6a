import random
import zlib

import pytest

from treeplan import (
    BudgetError,
    CapacityError,
    DomainError,
    InferenceError,
    PlanSyntaxError,
    ROOT,
    STAR,
    amalgamate,
    canonical,
    check_dividing,
    expand,
    extend_embedding,
    extend_to_automorphism,
    infer_plan,
    infer_plan_threshold,
    orbit,
    parse_node,
    parse_plan,
    parse_tree_text,
    plan_isomorphic,
    plan_text,
    qftp,
    rearrange,
    tcl,
    ell,
    height,
    verify_P,
    verify_Q,
)
from treeplan.counting import fiber_above
from treeplan.plan import Expansion, plan_canonical
from treeplan import analysis, plan
from treeplan.analysis import (
    check_embedding,
    inclusion_embedding,
    instance_solutions,
)

from conftest import (
    PLANS,
    dividing_reference,
    extend_to_automorphism_stepwise,
    infer_plan_rerooted,
    infer_plan_threshold_rerooted,
    random_plan,
    random_tree,
    random_embedding,
    orbit_bruteforce,
    random_subset,
    verify_Q_reference,
)


def node(text):
    return parse_node(text)


class TestExtendEmbedding:
    def test_member_unchanged(self):
        e = expand(PLANS["B"], 2)
        closed = tcl(e, [node("0:0")])
        f = {v: v for v in closed}
        out = extend_embedding(e, closed, f, e, node("0:0"))
        assert out == f

    def test_maps_to_least_unused_leaf(self):
        small, big = expand(PLANS["A"], 2), expand(PLANS["A"], 3)
        closed = tcl(small, [])
        f = {ROOT: ROOT}
        out = extend_embedding(small, closed, f, big, node("0:0"))
        assert out[node("0:0")] == node("0:0")
        out2 = extend_embedding(
            small, frozenset(out), out, big, node("0:1")
        )
        assert out2[node("0:1")] == node("0:1")

    def test_parent_image_respected(self):
        e2, e3 = expand(PLANS["B"], 2), expand(PLANS["B"], 3)
        closed = tcl(e2, [node("0:0")])
        f = {ROOT: ROOT, node("0:0"): node("0:2")}
        out = extend_embedding(e2, closed, f, e3, node("0:0/0:1"))
        image = out[node("0:0/0:1")]
        assert image.parent() == node("0:2")

    def test_capacity_error(self):
        big, small = expand(PLANS["A"], 3), expand(PLANS["A"], 1)
        closed = tcl(big, [node("0:0")])
        f = {ROOT: ROOT, node("0:0"): node("0:0")}
        with pytest.raises(CapacityError):
            extend_embedding(big, closed, f, small, node("0:1"))

    def test_requires_closed_base(self):
        e = expand(PLANS["B"], 2)
        with pytest.raises(DomainError):
            extend_embedding(
                e, frozenset({node("0:0")}), {node("0:0"): node("0:0")}, e, node("0:1")
            )


class TestExtendToAutomorphism:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_the_stepwise_extension(self, name):
        # Seeds are random automorphisms restricted to the closure of a few
        # nodes, as automorphism_over builds them.
        rng = random.Random(zlib.crc32(name.encode()))
        for n in range(1, 5):
            e = expand(PLANS[name], n)
            for _ in range(4):
                g = random_embedding(rng, e, e)
                seed = {v: g[v] for v in tcl(e, random_subset(rng, e.nodes(), 3))}
                out = extend_to_automorphism(e, seed)
                assert out == extend_to_automorphism_stepwise(e, seed)
                check_embedding(e, e, out)

    def test_requires_closed_base(self):
        e = expand(PLANS["B"], 2)
        with pytest.raises(DomainError, match="tree-closed"):
            extend_to_automorphism(e, {ROOT: ROOT, node("0:0/0:0"): node("0:0/0:0")})

    def test_requires_partial_embedding(self):
        e = expand(PLANS["B"], 2)
        with pytest.raises(DomainError, match="pred"):
            extend_to_automorphism(
                e, {ROOT: ROOT, node("0:0"): node("0:0"), node("0:0/0:0"): node("0:1/0:0")}
            )


class TestRearrange:
    def test_identity(self):
        e = expand(PLANS["B"], 2)
        ident = {v: v for v in e.nodes()}
        g = rearrange(e, e, ident)
        assert g == ident

    def test_leaf_swap(self):
        e1, e2 = expand(PLANS["A"], 1), expand(PLANS["A"], 2)
        h = {ROOT: ROOT, node("0:0"): node("0:1")}
        g = rearrange(e1, e2, h)
        assert g[node("0:1")] == node("0:0") and g[node("0:0")] == node("0:1")

    def test_inverts_on_small_side(self):
        rng = random.Random(17)
        e1, e3 = expand(PLANS["B"], 1), expand(PLANS["B"], 3)
        for _ in range(10):
            h = random_embedding(rng, e1, e3)
            g = rearrange(e1, e3, h)
            assert all(g[h[a]] == a for a in e1.nodes())
            check_embedding(e3, e3, g)
            assert sorted(g.values()) == e3.nodes()

    @pytest.mark.parametrize("name", ["A", "C", "D", "inf_mixed", "chain3"])
    def test_random_embeddings_across_corpus(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        p = PLANS[name]
        for m, n in ((1, 2), (2, 3), (2, 2)):
            em, en = expand(p, m), expand(p, n)
            h = random_embedding(rng, em, en)
            g = rearrange(em, en, h)
            assert all(g[h[a]] == a for a in em.nodes())
            check_embedding(en, en, g)

    def test_rejects_non_embedding(self):
        e1, e2 = expand(PLANS["A"], 1), expand(PLANS["A"], 2)
        with pytest.raises(DomainError):
            rearrange(e1, e2, {ROOT: ROOT, node("0:0"): node("eps")})


class TestAmalgamate:
    def test_tiny_base(self):
        base = left = right = expand(PLANS["single"], 1)
        f = inclusion_embedding(base, base)
        am = amalgamate(base, left, right, f, f)
        assert am.target.n == 2
        assert am.images_agree_on_base(f, f)

    def test_plan_a_counts(self):
        base = expand(PLANS["A"], 1)
        left, right = expand(PLANS["A"], 2), expand(PLANS["A"], 2)
        f1, f2 = inclusion_embedding(base, left), inclusion_embedding(base, right)
        am = amalgamate(base, left, right, f1, f2)
        assert am.target.n == 4
        common = set(am.j1.values()) & set(am.j2.values())
        assert len(common) == len(base) == 2

    @pytest.mark.parametrize("name", ["A", "B", "D", "double_deep"])
    def test_disjointness_identity(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        p = PLANS[name]
        base = expand(p, 1)
        left, right = expand(p, 2), expand(p, 3)
        f1 = random_embedding(rng, base, left)
        f2 = random_embedding(rng, base, right)
        am = amalgamate(base, left, right, f1, f2)
        assert am.images_agree_on_base(f1, f2)
        assert am.disjointness(f1, f2)
        check_embedding(am.left, am.target, am.j1)
        check_embedding(am.right, am.target, am.j2)

    def test_mismatched_plans(self):
        with pytest.raises(DomainError):
            amalgamate(
                expand(PLANS["A"], 1),
                expand(PLANS["B"], 2),
                expand(PLANS["A"], 2),
                {},
                {},
            )


class TestInferPlan:
    def test_single_nodes(self):
        t = expand(PLANS["single"], 1).tree
        assert plan_text(infer_plan(t, t)) == "(1)"

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_round_trip_small(self, name):
        p = PLANS[name]
        for n in (1, 2):
            inferred = infer_plan(expand(p, n).tree, expand(p, n + 1).tree)
            assert plan_isomorphic(inferred, p), (name, n, plan_text(inferred))

    def test_inconsistent_pair(self):
        t1 = expand(PLANS["B"], 2).tree
        t2 = expand(PLANS["C"], 3).tree
        with pytest.raises(InferenceError):
            infer_plan(t1, t2)


def _outcome(infer, *args):
    try:
        return plan_text(infer(*args))
    except InferenceError as err:
        return (str(err), err.offending)


def _inference_pairs():
    # Corpus samples, random plans, unrelated random trees and identical pairs.
    pairs = []
    for name in sorted(PLANS):
        for n in (1, 2, 3, 4):
            pairs.append((expand(PLANS[name], n).tree, expand(PLANS[name], n + 1).tree))
    rng = random.Random(2024)
    for _ in range(60):
        p = random_plan(rng)
        n = rng.randint(1, 3)
        pairs.append((expand(p, n).tree, expand(p, n + 1).tree))
    for _ in range(60):
        pairs.append((random_tree(rng), random_tree(rng)))
    for _ in range(20):
        t = random_tree(rng)
        pairs.append((t, t))
    return pairs


class TestInferenceMatchesRerootedCopies:
    """Inference on sample nodes against the re-rooting oracle."""

    def test_two_samples(self):
        outcomes = [
            (_outcome(infer_plan, *pair), _outcome(infer_plan_rerooted, *pair))
            for pair in _inference_pairs()
        ]
        # Error messages and offending lists are compared too.
        assert sum(isinstance(new, tuple) for new, _ in outcomes) > 20
        for new, old in outcomes:
            assert new == old

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_threshold(self, threshold):
        for t1, t2 in _inference_pairs():
            for t in (t1, t2):
                assert plan_text(infer_plan_threshold(t, threshold)) == plan_text(
                    infer_plan_threshold_rerooted(t, threshold)
                )


class TestInferenceChecksThePlan:
    def test_no_expansion_is_built(self, monkeypatch):
        pairs = [
            (expand(p, n).tree, expand(p, n + 1).tree) for p in PLANS.values() for n in (1, 2, 3)
        ]
        rng = random.Random(7)
        pairs += [(random_tree(rng), random_tree(rng)) for _ in range(20)]
        builds = []
        build = Expansion._build
        monkeypatch.setattr(Expansion, "_build", lambda e: builds.append(e) or build(e))
        for t1, t2 in pairs:
            _outcome(infer_plan, t1, t2)
        assert builds == []
        assert len(expand(PLANS["B"], 2)) == 7 and len(builds) == 1

    def test_node_budget_still_applies(self, monkeypatch):
        # B has 7 nodes at n = 2 and 13 at n = 3: the second check is over.
        t1, t2 = expand(PLANS["B"], 2).tree, expand(PLANS["B"], 3).tree
        monkeypatch.setattr(plan, "DEFAULT_NODE_BUDGET", 10)
        with pytest.raises(BudgetError, match="^expansion would have 13 nodes; budget is 10$"):
            infer_plan(t1, t2)


@pytest.fixture
def root_tries(monkeypatch):
    """The sizes :func:`infer_plan` tries at the root, in order."""
    tries = []
    infer_known = analysis._infer_known

    def counted(s1, v1, s2, v2, n):
        if not v1.depth:
            tries.append(n)
        return infer_known(s1, v1, s2, v2, n)

    monkeypatch.setattr(analysis, "_infer_known", counted)
    return tries


class TestInferenceSizeBound:
    def test_search_starts_at_the_root_bound(self, root_tries):
        # At n = 120 the root has 120 copies of 0 against 121 (k = 1, so
        # n <= 120) and one copy of 1 against one (k = 0, no bound): the
        # first size tried is the answer, not the 14,762 nodes of t1.
        p = parse_plan("(1 (inf (1) (inf)) (1 (inf)))")
        t1, t2 = expand(p, 120).tree, expand(p, 121).tree
        assert plan_isomorphic(infer_plan(t1, t2), p)
        assert root_tries == [120]

    def test_bound_taken_below_a_root_that_keeps_its_counts(self, root_tries):
        # The root and its child keep one child each (k = 0); the first
        # count that changes is 120 against 121 two levels down, so the
        # search starts at 120, not at the 14,522 nodes of t1.
        p = parse_plan("(1 (1 (inf (inf))))")
        t1, t2 = expand(p, 120).tree, expand(p, 121).tree
        assert len(t1) == 14522
        assert plan_isomorphic(infer_plan(t1, t2), p)
        assert root_tries == [120]

    def test_a_child_pair_that_never_matches_bounds_nothing_below_it(self, root_tries):
        # One child each at the root (k = 0), but two classes below it
        # against one: no size matches, and every size fails at the root
        # with the text of a tried size.
        t1 = parse_tree_text("(1 (1 (1) (1 (1))))")
        t2 = parse_tree_text("(1 (1 (1) (1)))")
        with pytest.raises(InferenceError) as err:
            infer_plan(t1, t2)
        assert err.value.offending == ["n=5..1: no consistent class matching"]
        assert root_tries == []
        assert _outcome(infer_plan, t1, t2) == _outcome(infer_plan_rerooted, t1, t2)

    def test_skipped_sizes_join_the_failure_run(self, root_tries):
        # Three leaves against five one-child nodes (k = 2) bound n by 1:
        # sizes 4..2 are skipped, and at 1 a leaf matches no inner node.
        t1 = parse_tree_text("(1 (1) (1) (1))")
        t2 = parse_tree_text("(1" + " (1 (1))" * 5 + ")")
        with pytest.raises(InferenceError) as err:
            infer_plan(t1, t2)
        assert err.value.offending == ["n=4..1: no consistent class matching"]
        assert root_tries == [1]
        assert _outcome(infer_plan, t1, t2) == _outcome(infer_plan_rerooted, t1, t2)


def chain(depth: int) -> str:
    """A mark-1 chain of ``depth`` nodes in the plan grammar."""
    return "(1 " * (depth - 1) + "(1)" + ")" * (depth - 1)


# Deeper than a walk that spends two frames per level can go under the
# default recursion limit.
DEEP = 600


class TestDeepChain:
    def test_plan_text_and_canonical(self):
        p = parse_plan(chain(DEEP))
        assert plan_text(p) == chain(DEEP)
        assert plan_canonical(p) == "(1" * DEEP + ")" * DEEP

    def test_verify_p(self):
        report = verify_P(parse_plan(chain(DEEP)), 2)
        assert report.all_pass and [r.observed for r in report.rows] == [DEEP, DEEP]

    def test_canonical_and_qftp(self):
        t = parse_tree_text(chain(DEEP))
        assert canonical(t).code == "(" * DEEP + ")" * DEEP
        top = max(t.nodes, key=lambda v: v.depth)
        code = "(|;" * (DEEP - 1) + "(|0;)" + ")" * (DEEP - 1)
        assert qftp(t, (top,), use_labels=False).code == code

    def test_infer_plan(self):
        # Two chains against three one node longer: sizes 1 and 2 match the
        # counts, and inference then walks the chains down to the last level.
        # Every size fails for one reason, so the error is one line.
        t1 = parse_tree_text("(1 " + 2 * chain(DEEP - 1) + ")")
        t2 = parse_tree_text("(1 " + 3 * chain(DEEP) + ")")
        with pytest.raises(InferenceError) as err:
            infer_plan(t1, t2)
        assert err.value.offending == [f"n={len(t1)}..1: no consistent class matching"]

    def test_infer_plan_succeeds(self):
        t = parse_tree_text(chain(DEEP))
        assert plan_text(infer_plan(t, t)) == chain(DEEP)


class TestInferThreshold:
    def test_single(self):
        t = expand(PLANS["single"], 1).tree
        assert plan_text(infer_plan_threshold(t, 3)) == "(1)"

    def test_above_threshold(self):
        t = expand(PLANS["A"], 5).tree
        assert plan_isomorphic(infer_plan_threshold(t, 3), PLANS["A"])

    def test_below_threshold_misread(self):
        t = expand(PLANS["A"], 2).tree
        assert plan_isomorphic(infer_plan_threshold(t, 3), parse_plan("(1 (1) (1))"))


class TestCheckDividing:
    def test_member_of_c(self):
        e = expand(PLANS["B"], 3)
        a = node("0:0")
        verdict = check_dividing(e, a, {a}, {a})
        assert not verdict.divides

    def test_plan_b_divides(self):
        e = expand(PLANS["B"], 3)
        a, b = node("0:0/0:1"), node("0:0")
        verdict = check_dividing(e, a, {b}, frozenset())
        assert verdict.divides
        assert verdict.witness == b
        assert verdict.conjugates == frozenset(
            {node("0:0"), node("0:1"), node("0:2")}
        )
        assert verdict.two_inconsistent

    def test_plan_b_no_witness(self):
        e = expand(PLANS["B"], 3)
        verdict = check_dividing(e, node("0:0/0:1"), frozenset(), frozenset())
        assert not verdict.divides

    def test_lone_conjugate_is_no_witness(self):
        # B fills the fiber of 0:2 over C, so 0:2 is its own only conjugate.
        e = expand(PLANS["A"], 3)
        set_c = {node("0:0"), node("0:1")}
        verdict = check_dividing(e, node("0:2"), set_c | {node("0:2")}, set_c)
        assert not verdict.divides

    def test_requires_containment(self):
        e = expand(PLANS["B"], 2)
        with pytest.raises(DomainError):
            check_dividing(e, ROOT, frozenset(), {node("0:0")})

    def test_instance_solutions_disjoint(self):
        e = expand(PLANS["B"], 3)
        sets = [
            instance_solutions(e, node(f"0:{t}"), 1) for t in range(3)
        ]
        assert all(len(s) == 3 for s in sets)
        assert not (sets[0] & sets[1]) and not (sets[1] & sets[2])

    @pytest.mark.parametrize("name", ["B", "D", "chain3", "inf_one_inf"])
    def test_brute_force_agreement(self, name):
        # Independent check: a divides exactly when its orbit over C moves
        # and some replicated prefix below a B-member has a moving orbit
        # over C with pairwise-disjoint instance sets.
        from treeplan import ell, height

        p = PLANS[name]
        n = 2 + ell(p) * height(p)
        e = expand(p, n)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(20):
            set_b = random_subset(rng, e.nodes(), 3)
            set_c = frozenset(rng.sample(sorted(set_b), rng.randint(0, len(set_b))))
            a = rng.choice(e.nodes())
            verdict = check_dividing(e, a, set_b, set_c)

            moving = len(orbit(e, a, set_c)) >= 2
            witnessed = False
            for i in range(1, a.depth + 1):
                cand = a.prefix(i)
                if not e.mark_is_inf(cand):
                    continue
                if not any(cand.is_prefix_of(b) for b in set_b):
                    continue
                family = orbit(e, cand, set_c)
                if len(family) < 2:
                    continue
                k = a.depth - cand.depth
                sets = [instance_solutions(e, w, k) for w in sorted(family)]
                disjoint = all(
                    not (sets[x] & sets[y])
                    for x in range(len(sets))
                    for y in range(x + 1, len(sets))
                )
                if disjoint:
                    witnessed = True
                    break
            assert verdict.divides == (moving and witnessed), (name, str(a))


class TestListingsBuildNoTree:
    """Fibers, relative fibers, orbits and conjugate families are listed
    along plan paths, so they need no tree: with the build patched to
    raise, each call returns what the tree-filtering oracles return."""

    def test_values_match_the_tree_oracles(self, monkeypatch):
        counts = {name: verify_Q_reference(p, 4).to_csv() for name, p in PLANS.items()}
        cases = []
        for name, p in sorted(PLANS.items()):
            n = 2 + ell(p) * height(p)
            e = expand(p, n)
            nodes = e.nodes()
            rng = random.Random(zlib.crc32(name.encode()))
            for _ in range(10):
                set_b = random_subset(rng, nodes, 3)
                set_c = frozenset(rng.sample(sorted(set_b), rng.randint(0, len(set_b))))
                a = rng.choice(nodes)
                above = {
                    sigma: [v for v in nodes if v.plan_path == sigma and a.is_prefix_of(v)]
                    for sigma in p.nodes
                }
                cases.append((p, n, a, set_b, set_c, orbit_bruteforce(e, a, set_c), above,
                              dividing_reference(e, a, set_b, set_c)))
        assert any(case[-1].divides for case in cases)

        def no_build(e):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(Expansion, "_build", no_build)
        for name, p in PLANS.items():
            assert verify_Q(p, 4).to_csv() == counts[name], name
        for p, n, a, set_b, set_c, family, above, verdict in cases:
            e = expand(p, n)
            assert orbit(e, a, set_c) == family
            assert {sigma: fiber_above(e, a, sigma) for sigma in p.nodes} == above
            assert check_dividing(e, a, set_b, set_c) == verdict
        # At scale: B to n = 8, and a verdict on 90,301 nodes.
        assert verify_Q(PLANS["B"], 8).all_pass
        a, w = node("0:0/0:1"), node("0:0")
        verdict = check_dividing(expand(PLANS["B"], 300), a, {a, w}, {w})
        assert verdict.divides and len(verdict.conjugates) == 300

    def test_the_budget_applies_as_to_a_build(self):
        # Over the budget, every listing raises as the build would, even
        # where a closure member lists only itself.
        e = expand(PLANS["B"], 10**6)
        a, w = node("0:0/0:1"), node("0:0")
        for listing in (
            lambda: fiber_above(e, w, (0, 0)),
            lambda: orbit(e, a, [w]),
            lambda: orbit(e, w, [w]),
            lambda: check_dividing(e, a, {a, w}, {w}),
        ):
            with pytest.raises(BudgetError, match="^expansion would have 1000001000001 nodes"):
                listing()


class TestTreeInput:
    def test_paren_marks_ignored(self):
        t = parse_tree_text("(1 (inf) (1 (1)))")
        assert len(t) == 4

    def test_parent_list(self):
        t = parse_tree_text("-1\n0\n0\n1\n")
        assert len(t) == 4
        assert canonical(t) == canonical(parse_tree_text("(1 (1 (1)) (1))"))

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_paren_text_of_an_expansion(self, name):
        # Written in the plan grammar with the plan's marks, an expansion
        # reads back as itself with every tag replaced by the sibling rank.
        e = expand(PLANS[name], 2)

        def text(v):
            mark = "inf" if e.mark_is_inf(v) else "1"
            return f"({mark}" + "".join(" " + text(c) for c in e.tree.children(v)) + ")"

        def star_tagged(v):
            if v.depth == 0:
                return ROOT
            rank = e.tree.children(v.parent()).index(v)
            return star_tagged(v.parent()).child(rank, STAR)

        expected = frozenset(star_tagged(v) for v in e.nodes())
        assert parse_tree_text(text(ROOT)).nodes == expected

    @pytest.mark.parametrize("text", ["(1 () (1))", "(inf (1))", "(1 (1)", "(1 (1)) (1)"])
    def test_paren_follows_the_plan_grammar(self, text):
        with pytest.raises(PlanSyntaxError):
            parse_tree_text(text)

    def test_syntax_error_positions_count_in_stripped_text(self):
        # Comments are cut before parsing; tree input also trims the text.
        text = "# a tree\n  (1 (2))"
        with pytest.raises(PlanSyntaxError) as plan_err:
            parse_plan(text)
        with pytest.raises(PlanSyntaxError) as tree_err:
            parse_tree_text(text)
        assert (plan_err.value.pos, tree_err.value.pos) == (7, 4)

    def test_bad_parent(self):
        with pytest.raises(DomainError):
            parse_tree_text("-1\n5\n")

    def test_empty(self):
        with pytest.raises(DomainError):
            parse_tree_text("# nothing\n")
