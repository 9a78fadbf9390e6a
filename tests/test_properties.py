"""Invariants as property tests over generated plans, trees, and formulas."""

from hypothesis import given, settings, strategies as st

from treeplan import (
    DomainError,
    InferenceError,
    ROOT,
    STAR,
    UnboundVariableError,
    anchor,
    canonical,
    downset,
    evaluate,
    expand,
    formula_text,
    format_node,
    inf_count,
    make_plan,
    meet,
    orbit,
    parse_formula,
    parse_node,
    parse_plan,
    partial_isomorphism,
    plan_text,
    poly_P,
    qftp,
    solution_set,
    tcl,
)
from treeplan.analysis import _assemble, _infer_known
from treeplan.closure import orbit_reps
from treeplan.counting import Polynomial
from treeplan.efgame import _extends_partial_isomorphism
from treeplan.logic import free_vars
from treeplan.trees import FiniteTree, meet_nodes, subtree_codes

from conftest import (
    PLANS,
    brute_force_isomorphic,
    evaluate_reference,
    generated_nodes,
    lcp_oracle,
    orbit_bruteforce,
    orbit_reps_bruteforce,
    partial_isomorphism_cubic,
    random_embedding,
)


@st.composite
def plans(draw, max_nodes=7, max_height=3):
    marked = {(): False}
    frontier = [()]
    while frontier and len(marked) < max_nodes:
        sigma = frontier.pop(0)
        if len(sigma) >= max_height:
            continue
        for branch in range(draw(st.integers(min_value=0, max_value=2))):
            if len(marked) >= max_nodes:
                break
            tau = sigma + (branch,)
            marked[tau] = draw(st.booleans())
            frontier.append(tau)
    return make_plan(marked)


@st.composite
def plain_trees(draw, max_nodes=9):
    nodes = [ROOT]
    counts = {ROOT: 0}
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    while len(nodes) < size:
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = parent.child(counts[parent], STAR)
        counts[parent] += 1
        counts[child] = 0
        nodes.append(child)
    return FiniteTree(nodes)


@st.composite
def expansions(draw, max_n=3):
    p = draw(plans())
    n = draw(st.integers(min_value=1, max_value=max_n))
    return expand(p, n)


@st.composite
def node_subsets(draw, e, max_size=3):
    nodes = e.nodes()
    size = draw(st.integers(0, min(max_size, len(nodes))))
    picks = [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(size)]
    return frozenset(picks)


@st.composite
def terms(draw, depth=2):
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return draw(st.sampled_from(["x", "y", "z"]))
    if kind == 1:
        return "eps"
    if kind == 2:
        return f"pred({draw(terms(depth=depth - 1))})"
    return f"meet({draw(terms(depth=depth - 1))}, {draw(terms(depth=depth - 1))})"


@st.composite
def formula_texts(draw, depth=3):
    kind = draw(st.integers(0, 8 if depth else 2))
    if kind == 0:
        return f"{draw(terms())} = {draw(terms())}"
    if kind == 1:
        return f"{draw(terms())} <= {draw(terms())}"
    if kind == 2:
        path = ".".join(
            str(draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(0, 2)))
        )
        return f"P[{path}]({draw(terms())})"
    sub = lambda: draw(formula_texts(depth=depth - 1))
    if kind == 3:
        return f"!({sub()})"
    if kind == 4:
        return f"({sub()}) & ({sub()})"
    if kind == 5:
        return f"({sub()}) | ({sub()})"
    if kind == 6:
        return f"({sub()}) -> ({sub()})"
    q = draw(st.sampled_from(["exists", "forall"]))
    v = draw(st.sampled_from(["x", "y", "z"]))
    return f"{q} {v}. {sub()}"


@given(expansions(), st.data())
@settings(max_examples=60, deadline=None)
def test_tcl_is_a_closure_operator(e, data):
    small = data.draw(node_subsets(e))
    big = small | data.draw(node_subsets(e))
    closed = tcl(e, small)
    assert small <= closed
    assert closed <= tcl(e, big)
    assert tcl(e, closed) == closed
    assert ROOT in closed


@given(expansions(), st.data())
@settings(max_examples=60, deadline=None)
def test_downset_is_the_generated_substructure(e, data):
    members = data.draw(node_subsets(e))
    generated = generated_nodes(members)
    # They differ only on the empty set, whose downset has no root.
    assert downset(e, members) == (generated if members else generated - {ROOT})
    assert qftp(e.tree, tuple(sorted(members))).generated == generated


@given(expansions(), st.data())
@settings(max_examples=60, deadline=None)
def test_meet_matches_prefix_oracle(e, data):
    nodes = e.nodes()
    a = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    b = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    assert meet(e.tree, a, b) == lcp_oracle(a, b)


@given(plain_trees(), plain_trees())
@settings(max_examples=80, deadline=None)
def test_canonical_is_isomorphism_complete(t1, t2):
    assert (canonical(t1) == canonical(t2)) == brute_force_isomorphic(t1, t2)


@given(plans(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_size_polynomial_counts_nodes(p, n):
    total = Polynomial([])
    for sigma in p.sorted_nodes():
        total = total + Polynomial.monomial(inf_count(p, sigma))
    assert total == poly_P(p)
    assert poly_P(p)(n) == len(expand(p, n))


@given(plans(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_expansions_grow_monotonically(p, n):
    assert expand(p, n).tree.nodes <= expand(p, n + 1).tree.nodes


@given(expansions(max_n=2), st.data())
@settings(max_examples=40, deadline=None)
def test_orbits_partition(e, data):
    params = data.draw(node_subsets(e, max_size=2))
    nodes = e.nodes()
    a = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    b = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    oa, ob = orbit(e, a, params), orbit(e, b, params)
    assert a in oa
    assert oa == ob or not (oa & ob)


@given(expansions(max_n=2), st.data())
@settings(max_examples=40, deadline=None)
def test_anchor_is_deepest_closure_prefix(e, data):
    params = data.draw(node_subsets(e))
    nodes = e.nodes()
    a = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    closed = tcl(e, params)
    anc = anchor(e, a, params)
    assert anc in closed and anc.is_prefix_of(a)
    assert all(
        a.prefix(i) not in closed for i in range(anc.depth + 1, a.depth + 1)
    )


@given(expansions(max_n=2), st.data())
@settings(max_examples=30, deadline=None)
def test_node_text_roundtrip(e, data):
    nodes = e.nodes()
    a = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    assert parse_node(format_node(a)) == a


@given(plans())
@settings(max_examples=60, deadline=None)
def test_plan_text_roundtrip(p):
    assert parse_plan(plan_text(p)) == p


@given(formula_texts())
@settings(max_examples=120, deadline=None)
def test_formula_render_parse_roundtrip(text):
    f = parse_formula(text)
    assert parse_formula(formula_text(f)) == f


# --------------------------------------------------------------------------
# Fast paths against their brute-force oracles


@st.composite
def corpus_expansions(draw, max_n=4):
    p = PLANS[draw(st.sampled_from(sorted(PLANS)))]
    return expand(p, draw(st.integers(min_value=1, max_value=max_n)))


@st.composite
def pick_tuples(draw, e, max_size=3):
    """Up to ``max_size`` picks; the root and repeats come up often."""
    nodes = e.nodes()
    picks = draw(st.lists(st.sampled_from(nodes), max_size=max_size))
    if picks and draw(st.booleans()):
        picks[-1] = draw(st.sampled_from([ROOT, picks[0]]))
    return tuple(picks)


@given(corpus_expansions(), st.data())
@settings(max_examples=150, deadline=None)
def test_orbit_reps_match_the_scan(e, data):
    picks = data.draw(pick_tuples(e))
    assert orbit_reps(e, picks) == orbit_reps_bruteforce(e, picks)


@given(corpus_expansions(), st.data())
@settings(max_examples=100, deadline=None)
def test_orbit_matches_the_type_filter(e, data):
    members = data.draw(pick_tuples(e))
    a = data.draw(st.sampled_from(e.nodes()))
    assert orbit(e, a, members) == orbit_bruteforce(e, a, members)


@st.composite
def paired_picks(draw, left, right, max_size=4):
    """Picks on ``left`` and as many partner picks on ``right``: images
    under an embedding, same-label redraws, or unrelated picks."""
    picks_left = draw(pick_tuples(left, max_size=max_size))
    mode = draw(st.sampled_from(["embedding", "fiber", "any"]))
    if mode == "embedding":
        # Images under an embedding: isomorphic, unless perturbed.
        f = random_embedding(draw(st.randoms(use_true_random=False)), left, right)
        picks_right = [f[a] for a in picks_left]
        if picks_right and draw(st.booleans()):
            i = draw(st.integers(0, len(picks_right) - 1))
            picks_right[i] = draw(st.sampled_from(right.nodes()))
    elif mode == "fiber":
        # Same labels, tags redrawn: meets move while labels still agree.
        picks_right = [draw(st.sampled_from(right.fiber(a.plan_path))) for a in picks_left]
    else:
        picks_right = list(draw(pick_tuples(right, max_size=max_size)))
    # Both checks pair the picks up with zip.
    m = min(len(picks_left), len(picks_right))
    return picks_left[:m], tuple(picks_right[:m])


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=150, deadline=None)
def test_partial_isomorphism_matches_the_cubic_check(left, data):
    right = expand(left.plan, data.draw(st.integers(left.n, left.n + 1)))
    picks_left, picks_right = data.draw(paired_picks(left, right))
    expected = partial_isomorphism_cubic(picks_left, picks_right)
    assert partial_isomorphism(picks_left, picks_right) == expected


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=200, deadline=None)
def test_newest_pair_check_matches_the_full_checks(left, data):
    right = expand(left.plan, data.draw(st.integers(left.n, left.n + 1)))
    picks_left, picks_right = data.draw(paired_picks(left, right))
    # All drawn pairs but the last, cut to their longest prefix that is a
    # partial isomorphism (every shorter prefix is one too).
    m = max(len(picks_left) - 1, 0)
    while not partial_isomorphism(picks_left[:m], picks_right[:m]):
        m -= 1
    base_left, base_right = picks_left[:m], picks_right[:m]
    earlier_left, earlier_right = (ROOT,) + base_left, (ROOT,) + base_right
    mode = data.draw(st.sampled_from(["drawn", "repeat", "meet"]))
    i, j = data.draw(st.integers(0, m)), data.draw(st.integers(0, m))
    if mode == "drawn" and picks_left:
        a, b = picks_left[-1], picks_right[-1]
    elif mode == "meet":
        # The meet of two earlier picks, against the prefix of a partner at
        # its depth: the one place an old meet can become the new pick.
        a = meet_nodes(earlier_left[i], earlier_left[j])
        b = earlier_right[i].prefix(a.depth)
    else:
        # A repeat of earlier picks, the root included, often of one pair.
        a, b = earlier_left[i], earlier_right[data.draw(st.sampled_from([i, j]))]
    extended_left, extended_right = base_left + (a,), base_right + (b,)
    expected = partial_isomorphism(extended_left, extended_right)
    assert partial_isomorphism_cubic(extended_left, extended_right) == expected
    assert _extends_partial_isomorphism(extended_left, extended_right) == expected


@st.composite
def shadowing_formulas(draw, p, quantifiers=2, bad_labels=False):
    """Formula texts over ``x`` and ``y`` only, so inner quantifiers often
    re-bind a variable that is bound outside; with ``bad_labels`` a label
    may name a path that is not in the plan."""
    labels = [".".join(map(str, sigma)) for sigma in p.sorted_nodes()]
    if bad_labels:
        labels.append("9")

    def term(depth=1):
        kind = draw(st.integers(0, 4 if depth else 1))
        if kind == 0:
            return draw(st.sampled_from(["x", "y"]))
        if kind == 1:
            return "eps"
        if kind == 2:
            return f"pred({term(depth - 1)})"
        if kind == 3:
            return f"pred^{draw(st.integers(2, 3))}({term(depth - 1)})"
        return f"meet({term(depth - 1)}, {term(depth - 1)})"

    def formula(depth, left):
        kind = draw(st.integers(0, 6 if depth else 2))
        if kind == 0:
            return f"{term()} = {term()}"
        if kind == 1:
            return f"{term()} <= {term()}"
        if kind == 2:
            return f"P[{draw(st.sampled_from(labels))}]({term()})"
        if kind == 3:
            return f"!({formula(depth - 1, left)})"
        if kind == 4:
            return f"({formula(depth - 1, left)}) & ({formula(depth - 1, left)})"
        if kind == 5 or not left:
            return f"({formula(depth - 1, left)}) | ({formula(depth - 1, left)})"
        q = draw(st.sampled_from(["exists", "forall"]))
        v = draw(st.sampled_from(["x", "y"]))
        return f"{q} {v}. {formula(depth - 1, left - 1)}"

    return parse_formula(formula(3, quantifiers))


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=100, deadline=None)
def test_fast_evaluation_matches_plain(e, data):
    f = data.draw(shadowing_formulas(e.plan))
    # Bind the free variables, and sometimes a bound one as well.
    names = sorted(free_vars(f) | data.draw(st.sets(st.sampled_from(["x", "y"]))))
    env = {v: data.draw(st.sampled_from(e.nodes())) for v in names}
    assert evaluate(e, f, env, fast=True) == evaluate(e, f, env)


def outcome(run):
    """The value of ``run()``, or the type and message of its error."""
    try:
        return run()
    except (DomainError, UnboundVariableError) as err:
        return (type(err), str(err))


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=150, deadline=None)
def test_evaluation_matches_the_reference(e, data):
    f = data.draw(shadowing_formulas(e.plan, bad_labels=True))
    names = free_vars(f) | data.draw(st.sets(st.sampled_from(["x", "y"])))
    if names and data.draw(st.integers(0, 3)) == 0:
        # Leave a variable unbound: its atoms raise only where reached.
        names = names - {data.draw(st.sampled_from(sorted(names)))}
    env = {v: data.draw(st.sampled_from(e.nodes())) for v in sorted(names)}
    expected = outcome(lambda: evaluate_reference(e, f, env))
    assert outcome(lambda: evaluate(e, f, env)) == expected
    # Fast mode skips all but the least node of each orbit, so it can miss
    # an atom that raises; where the reference has a value, it has it too.
    if isinstance(expected, bool):
        assert evaluate(e, f, env, fast=True) == expected


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=100, deadline=None)
def test_solution_set_matches_the_reference(e, data):
    f = data.draw(shadowing_formulas(e.plan, quantifiers=1))
    free_var = data.draw(st.sampled_from(["x", "y"]))
    names = (free_vars(f) | data.draw(st.sets(st.sampled_from(["x", "y"])))) - {free_var}
    params = {v: data.draw(st.sampled_from(e.nodes())) for v in sorted(names)}
    expected = frozenset(
        x for x in e.nodes() if evaluate_reference(e, f, {**params, free_var: x})
    )
    for fast in (False, True):
        assert solution_set(e, f, free_var, params, fast=fast) == expected


# --------------------------------------------------------------------------
# Plan inference


@st.composite
def sample_pairs(draw):
    """Two trees: a corpus or random plan expanded at n and n + 1 or
    n + 2, or two unrelated random trees."""
    kind = draw(st.sampled_from(["corpus", "plan", "trees"]))
    if kind == "trees":
        return draw(plain_trees()), draw(plain_trees())
    p = PLANS[draw(st.sampled_from(sorted(PLANS)))] if kind == "corpus" else draw(plans())
    n = draw(st.integers(min_value=1, max_value=3))
    return expand(p, n).tree, expand(p, n + draw(st.integers(1, 2))).tree


@given(sample_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_inferred_plan_expands_to_both_subtrees(pair, data):
    # Whenever inference above two nodes succeeds, its plan expands at n
    # and n + 1 to the subtrees at those nodes; this is why inference
    # checks only the whole plan, once.
    t1, t2 = pair
    codes1, codes2 = subtree_codes(t1), subtree_codes(t2)
    v1 = data.draw(st.sampled_from(t1.sorted_nodes()))
    v2 = data.draw(st.sampled_from(t2.sorted_nodes()))
    for u1, u2 in ((ROOT, ROOT), (v1, v2)):
        for n in range(1, len(t1) + 1):
            try:
                p = _assemble(_infer_known((t1, codes1), u1, (t2, codes2), u2, n))
            except InferenceError:
                continue
            assert canonical(expand(p, n).tree).code == codes1[u1]
            assert canonical(expand(p, n + 1).tree).code == codes2[u2]
