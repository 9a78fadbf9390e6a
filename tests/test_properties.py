"""Invariants as property tests over generated plans, trees, and formulas."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treeplan import (
    ClosureDuplicator,
    DomainError,
    GameState,
    InferenceError,
    ROOT,
    STAR,
    UnboundVariableError,
    anchor,
    canonical,
    classify_solutions,
    downset,
    evaluate,
    expand,
    formula_text,
    format_node,
    game_value,
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
    RandomSpoiler,
    solution_set,
    tcl,
)
from treeplan.analysis import _assemble, _infer_known
from treeplan.closure import PickFrame, orbit_key, orbit_reps
from treeplan.counting import Polynomial, fiber_above
from treeplan.logic import free_vars
from treeplan.plan import expansion_code
from treeplan.trees import FiniteTree, Node, _common_prefix, meet_nodes, subtree_codes

from conftest import (
    PLANS,
    assert_expansion_matches_reference,
    brute_force_isomorphic,
    classify_solutions_reference,
    common_prefix_zip,
    evaluate_reference,
    generated_nodes,
    lcp_oracle,
    orbit_bruteforce,
    orbit_reps_bruteforce,
    random_embedding,
    random_plan,
    same_type,
    tcl_bruteforce,
    winning_move_reference,
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


@given(st.sampled_from(sorted(PLANS)), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_common_prefix_matches_the_zip_loop(name, n, data):
    nodes = expand(PLANS[name], n).nodes()
    a = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    b = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    k = data.draw(st.integers(0, a.depth))
    j = data.draw(st.integers(1, 3))
    # The drawn pair, the root and eps's (), equal and prefix-related pairs
    # in both orders, and the plain tuples that pred slices leave.
    pairs = [(a, b), (b, a), (ROOT, a), (a, ROOT), ((), a), (a, ()), (a, a),
             (Node(a[:k]), a), (a, Node(a[:k])), (a[:-j], b[:-1]), (a, b[:-j]),
             (a[:-j], a)]
    for x, y in pairs:
        got, want = _common_prefix(x, y), common_prefix_zip(x, y)
        assert got == want and type(got) is type(want)
        result = meet_nodes(x, y)
        assert type(result) is Node and result == want


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


@given(plans(max_nodes=9, max_height=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_build_matches_the_reference(p, n):
    assert_expansion_matches_reference(expand(p, n))


@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_expansion_code_matches_the_built_tree(rng, n):
    p = random_plan(rng)
    assert expansion_code(p, n) == canonical(expand(p, n).tree).code


@pytest.mark.parametrize("name", sorted(PLANS))
def test_expansion_code_on_the_corpus(name):
    p = PLANS[name]
    for n in range(1, 7):
        assert expansion_code(p, n) == canonical(expand(p, n).tree).code


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
def corpus_expansions(draw, max_n=4, names=tuple(sorted(PLANS))):
    p = PLANS[draw(st.sampled_from(names))]
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


def frame_state(frame):
    return frame.closed, sorted(frame.paths), frame.names, frame.key


@given(corpus_expansions(), st.data())
@settings(max_examples=150, deadline=None)
def test_frame_step_matches_a_rebuild(e, data):
    # Stepping a frame by each representative, or by any node, gives the
    # closure and key of the longer tuple, each closure node with its
    # plan path and its image under that key's renaming; the frame stepped
    # from is left as it was built.
    picks = data.draw(pick_tuples(e))
    frame = PickFrame(e, picks)
    keyed = frame.keyed_reps()
    assert list(keyed.values()) == orbit_reps_bruteforce(e, picks)
    steps = list(keyed.items()) + [(None, data.draw(st.sampled_from(e.nodes())))]
    for key, a in steps:
        longer = picks + (a,)
        stepped = frame.step(a)
        assert stepped.key == orbit_key(longer) == (key or orbit_key(longer))
        assert frozenset(stepped.closed) == tcl(e, longer) == tcl_bruteforce(e, longer)
        assert frame_state(stepped) == frame_state(PickFrame(e, longer))
        assert sorted(stepped.paths) == sorted((v, v.plan_path) for v in stepped.closed)
        for v, image in stepped.closed.items():
            assert image == orbit_key(longer + (v,))[-1]
    assert frame_state(frame) == frame_state(PickFrame(e, picks))


def widest_table(frame):
    """The most closure children of one closure node on one inf branch."""
    counts = Counter((v[:-1], v[-1][0]) for v in frame.closed if v and v[-1][1] != STAR)
    return max(counts.values(), default=0)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_tally_after_a_step_matches_the_stepped_frame(rng, n, data):
    # A frame's tally counts its representatives and its widest tag
    # table; the tally after a node, every representative and any node,
    # is the stepped frame's, read without stepping.
    e = expand(random_plan(rng), n)
    picks = data.draw(pick_tuples(e))
    frame = PickFrame(e, picks)
    assert frame.tally() == (len(orbit_reps_bruteforce(e, picks)), widest_table(frame))
    nodes = [a for a, _ in frame.reps()]
    nodes += data.draw(st.lists(st.sampled_from(e.nodes()), max_size=4))
    for a in nodes:
        stepped = frame.step(a)
        assert frame.tally(a) == (len(stepped.reps()), widest_table(stepped)), a
        assert stepped.tally() == frame.tally(a), a


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 2), st.data())
@settings(max_examples=150, deadline=None)
def test_table_widths_decide_the_keys_of_the_reps(rng, n, d, data):
    # Picks on Γ(n) and their images under an embedding into Γ(n + d)
    # have equal keys, so equal table widths; the larger board may still
    # have a fresh child where the smaller has none.  The keyed
    # representatives agree exactly when the sizes are equal or every
    # table is shorter than n, and each tally counts its representatives.
    p = random_plan(rng)
    left, right = expand(p, n), expand(p, n + d)
    picks = data.draw(pick_tuples(left))
    f = random_embedding(rng, left, right)
    frames = PickFrame(left, picks), PickFrame(right, tuple(f[a] for a in picks))
    assert frames[0].key == frames[1].key
    (count, width), (count_right, width_right) = (frame.tally() for frame in frames)
    keys, keys_right = (frame.keyed_reps().keys() for frame in frames)
    assert width == width_right <= n
    assert (d == 0 or width < n) == (keys == keys_right)
    if keys == keys_right:
        assert count == count_right
    for frame in frames:
        assert frame.tally()[0] == len(frame.reps())


@given(corpus_expansions(), st.data())
@settings(max_examples=100, deadline=None)
def test_orbit_matches_the_type_filter(e, data):
    members = data.draw(pick_tuples(e))
    a = data.draw(st.sampled_from(e.nodes()))
    assert orbit(e, a, members) == orbit_bruteforce(e, a, members)


@given(expansions(), st.data())
@settings(max_examples=100, deadline=None)
def test_listings_match_the_node_filters(e, data):
    # Fibers, relative fibers and orbits are listed along plan paths; each
    # equals its filter of the built tree's nodes, in node order.
    nodes = e.nodes()
    sigma = data.draw(st.sampled_from(sorted(e.plan.nodes)))
    b = data.draw(st.sampled_from(nodes))
    assert e.fiber(sigma) == [v for v in nodes if v.plan_path == sigma]
    assert fiber_above(e, b, sigma) == [
        v for v in nodes if v.plan_path == sigma and b.is_prefix_of(v)
    ]
    members = data.draw(node_subsets(e))
    if data.draw(st.booleans()):  # b in the closure: its own orbit
        members |= {b}
    assert orbit(e, b, members) == orbit_bruteforce(e, b, members)


@st.composite
def paired_picks(draw, left, right, max_size=4):
    """Picks on ``left`` and as many partner picks on ``right``: images
    under an embedding, same-label redraws, copies with one tag redrawn
    inside a shared prefix, or unrelated picks."""
    picks_left = draw(pick_tuples(left, max_size=max_size))
    mode = draw(st.sampled_from(["embedding", "fiber", "prefix", "any"]))
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
    elif mode == "prefix":
        # A pick a and a sibling b end the left picks; the partners are the
        # same picks with one tag of b redrawn, to another value, strictly
        # inside the prefix the two share.  The relations among the picks
        # often survive while a meet or a pred term moves.
        a = draw(st.sampled_from(left.nodes()))
        siblings = [x for x in left.fiber(a.plan_path) if x != a and x.parent() == a.parent()]
        b = draw(st.sampled_from(siblings)) if siblings else a
        picks_left = picks_left[: max_size - 2] + (a, b)
        picks_right = list(picks_left)
        steps = [d for d in range(a.depth - 1) if b[d][1] != STAR]
        if steps:
            d = draw(st.sampled_from(steps))
            tags = [t for t in range(right.n) if t != b[d][1]] or [b[d][1]]
            tag = draw(st.sampled_from(tags))
            picks_right[-1] = Node(b[:d] + ((b[d][0], tag),) + b[d + 1:])
    else:
        picks_right = list(draw(pick_tuples(right, max_size=max_size)))
    # Both checks pair the picks up with zip.
    m = min(len(picks_left), len(picks_right))
    return picks_left[:m], tuple(picks_right[:m])


# The corpus plans with three replicated steps on one branch.  A scan of
# all two-pick tuples at n <= 3 finds only there two tuples whose picks
# agree on every relation but which a meet or pred term off the picks
# tells apart, so half the boards of the pick tests come from them.
DEEP_PLANS = ("chain3", "chain3_one")
pick_test_boards = st.one_of(
    corpus_expansions(max_n=3), corpus_expansions(max_n=3, names=DEEP_PLANS)
)


@given(pick_test_boards, st.data())
@settings(max_examples=150, deadline=None)
def test_partial_isomorphism_matches_the_type_codes(left, data):
    right = expand(left.plan, data.draw(st.integers(left.n, left.n + 1)))
    picks_left, picks_right = data.draw(paired_picks(left, right))
    expected = same_type(left, picks_left, right, picks_right)
    assert partial_isomorphism(picks_left, picks_right) == expected


@given(pick_test_boards, st.data())
@settings(max_examples=200, deadline=None)
def test_partial_isomorphism_on_one_pair_extensions(left, data):
    right = expand(left.plan, data.draw(st.integers(left.n, left.n + 1)))
    picks_left, picks_right = data.draw(paired_picks(left, right))
    # All drawn pairs but the last, cut to their longest prefix whose types
    # agree (every shorter prefix's types agree too).
    m = max(len(picks_left) - 1, 0)
    while not same_type(left, picks_left[:m], right, picks_right[:m]):
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
    expected = same_type(left, extended_left, right, extended_right)
    assert partial_isomorphism(extended_left, extended_right) == expected


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_kept_embedding_answers_as_a_replay(rng):
    # One duplicator carried through two random-spoiler games on boards of
    # sizes 1-3, where capacity often runs out, then a third game with
    # repeated calls and stray answers, and each game's last picks moved
    # onto the next game's boards: every answer and its notes are those of
    # a fresh duplicator, which replays the state's pick pairs.
    p = random_plan(rng)
    carried = ClosureDuplicator()

    def check(state, side, node):
        fresh, carried.notes = ClosureDuplicator(), []
        answer = carried.respond(state, side, node)
        assert (answer, carried.notes) == (fresh.respond(state, side, node), fresh.notes)
        return answer

    state = None
    for game in range(3):
        left, right = expand(p, rng.randint(1, 3)), expand(p, rng.randint(1, 3))
        if state is not None:
            check(state._replace(left=left, right=right), "L", rng.choice(left.nodes()))
        state, spoiler = GameState(left, right, (), (), 4), RandomSpoiler(rng.randrange(99))
        for _ in range(4):
            side, node = spoiler.pick(state)
            answer = check(state, side, node)
            if game == 2 and rng.random() < 0.3:
                check(state, side, node)
            if game == 2 and rng.random() < 0.3:
                answer = rng.choice((right if side == "L" else left).nodes())
            state = state.after(node, answer) if side == "L" else state.after(answer, node)


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


@given(corpus_expansions(), st.data())
@settings(max_examples=150, deadline=None)
def test_lazy_and_built_expansions_agree(built, data):
    # A budget of 0 makes any build raise: the lazy side runs on membership.
    p, n = built.plan, built.n
    lazy = expand(p, n, budget=0)
    built.nodes()
    picks = data.draw(pick_tuples(built))
    for v in picks:
        for x in (v, v.parent(), v.child(0, 0), v.child(0, STAR), v.child(1, n)):
            assert (x in lazy) == (x in built.tree)
    assert tcl(lazy, picks) == tcl(built, picks)
    assert orbit_reps(lazy, picks) == orbit_reps(built, picks) == orbit_reps_bruteforce(built, picks)
    f = data.draw(shadowing_formulas(p))
    env = {v: data.draw(st.sampled_from(built.nodes())) for v in sorted(free_vars(f))}
    expected = outcome(lambda: evaluate_reference(built, f, env))
    if isinstance(expected, bool):
        assert evaluate(lazy, f, env, fast=True) == expected
    assert outcome(lambda: evaluate(lazy, f, env, fast=True)) == outcome(
        lambda: evaluate(built, f, env, fast=True)
    )
    m = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=2))
    state = GameState(built, expand(p, m), (), (), k)
    move, _, _ = winning_move_reference(state) if k else (None, 0, {})
    assert game_value(lazy, expand(p, m, budget=0), k) == ("D" if move is None else "S")


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
    assert solution_set(e, f, free_var, params) == expected


@given(corpus_expansions(max_n=3), st.data())
@settings(max_examples=100, deadline=None)
def test_classes_match_the_reference(e, data):
    # Zero to two parameters; a binding of the free variable is ignored.
    f = data.draw(shadowing_formulas(e.plan, quantifiers=1))
    free_var = data.draw(st.sampled_from(["x", "y"]))
    names = (free_vars(f) - {free_var}) | data.draw(st.sets(st.sampled_from(["x", "y"])))
    params = {v: data.draw(st.sampled_from(e.nodes())) for v in sorted(names)}
    expected = classify_solutions_reference(e, f, free_var, params)
    assert classify_solutions(e, f, free_var, params) == expected


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
    # Each sample groups its child classes once, across every size tried.
    s1, s2 = (t1, codes1, {}), (t2, codes2, {})
    v1 = data.draw(st.sampled_from(t1.sorted_nodes()))
    v2 = data.draw(st.sampled_from(t2.sorted_nodes()))
    for u1, u2 in ((ROOT, ROOT), (v1, v2)):
        for n in range(1, len(t1) + 1):
            try:
                p = _assemble(_infer_known(s1, u1, s2, u2, n))
            except InferenceError:
                continue
            assert canonical(expand(p, n).tree).code == codes1[u1]
            assert canonical(expand(p, n + 1).tree).code == codes2[u2]
