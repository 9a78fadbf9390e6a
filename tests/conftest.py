"""Shared fixtures: the plan corpus and independent test oracles.

The corpus stays within 8 plan nodes and height 3.  Members are chosen so
that two-sample inference is identifiable: no node carries a replicated
child and a singleton child whose subplans expand to the same shape at the
sampled sizes.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest

from treeplan import (
    BudgetError,
    DomainError,
    FiniteTree,
    InferenceError,
    Node,
    ROOT,
    STAR,
    TreePlan,
    UnboundVariableError,
    expand,
    format_node,
    make_plan,
    parse_plan,
    plan_text,
    poly_Q,
    poly_Q_rel,
    subtree,
)
from treeplan.analysis import DividingVerdict, extend_embedding
from treeplan.closure import anchor_in, orbit_key, orbit_reps, tuple_code
from treeplan.counting import CountReport, CountRow
from treeplan.logic import (
    And,
    Eps,
    Eq,
    Exists,
    Implies,
    Label,
    Leq,
    MeetT,
    Not,
    Or,
    Pred,
    SolutionClass,
    Var,
)
from treeplan.trees import path_text, prefixes

PLAN_TEXTS = {
    "A": "(1 (inf))",
    "B": "(1 (inf (inf)))",
    "C": "(1 (inf) (inf))",
    "D": "(1 (1 (inf)) (inf))",
    "single": "(1)",
    "one_leaf": "(1 (1))",
    "two_ones": "(1 (1) (1))",
    "chain3": "(1 (inf (inf (inf))))",
    "inf_one": "(1 (inf (1)))",
    "inf_two_ones": "(1 (inf (1) (1)))",
    "inf_mixed": "(1 (inf (inf) (1 (1))))",
    "twin_ones": "(1 (1 (inf)) (1 (inf)))",
    "leaf_and_branch": "(1 (inf) (1 (inf)))",
    "deep_and_leaf": "(1 (inf (inf)) (inf))",
    "deep_and_one": "(1 (inf (inf)) (1))",
    "double_deep": "(1 (inf (inf) (inf)))",
    "one_chain_inf": "(1 (1 (1 (inf))))",
    "chain3_one": "(1 (inf (inf (inf))) (1))",
    "one_two_infs": "(1 (1 (inf) (inf)))",
    "three_infs": "(1 (inf) (inf) (inf))",
    "one_chain_and_inf": "(1 (1 (1)) (inf))",
    "inf_one_inf": "(1 (inf (1 (inf))))",
    "one_and_deep": "(1 (1) (inf (inf)))",
}

PLANS = {name: parse_plan(text) for name, text in PLAN_TEXTS.items()}


@pytest.fixture(scope="session")
def corpus() -> dict[str, TreePlan]:
    return dict(PLANS)


@pytest.fixture
def plan_a():
    return PLANS["A"]


@pytest.fixture
def plan_b():
    return PLANS["B"]


@pytest.fixture
def plan_c():
    return PLANS["C"]


@pytest.fixture
def plan_d():
    return PLANS["D"]


# --------------------------------------------------------------------------
# Independent oracles


def lcp_oracle(a: Node, b: Node) -> Node:
    """Longest-common-prefix computed by direct enumeration of prefixes."""
    best = ROOT
    for i in range(min(a.depth, b.depth) + 1):
        if a[:i] == b[:i]:
            best = Node(a[:i])
    return best


def common_prefix_zip(a: tuple, b: tuple) -> tuple:
    """The common prefix of two segment tuples by a ``zip`` loop, as a
    slice of ``a``: plain evaluation's ``meet`` before the index walk."""
    i = 0
    for seg_a, seg_b in zip(a, b):
        if seg_a != seg_b:
            break
        i += 1
    return a[:i]


_SEG_RE = re.compile(r"^(\d+):(\*|\d+)$")


def regex_parse_node(text: str) -> Node:
    """The regular-expression node parser that ``parse_node`` replaced."""
    text = text.strip()
    if text == "eps":
        return ROOT
    segs = []
    for part in text.split("/"):
        m = _SEG_RE.match(part.strip())
        if not m:
            raise DomainError(f"bad node segment {part!r} in {text!r}")
        segs.append((int(m.group(1)), STAR if m.group(2) == "*" else int(m.group(2))))
    return Node(segs)


def brute_force_isomorphic(t1: FiniteTree, t2: FiniteTree, labeled: bool = False) -> bool:
    """Rooted-tree isomorphism by exhaustive children matching."""

    def match(u: Node, v: Node) -> bool:
        if labeled and u.plan_path != v.plan_path:
            return False
        kids1, kids2 = t1.children(u), t2.children(v)
        if len(kids1) != len(kids2):
            return False
        for perm in itertools.permutations(kids2):
            if all(match(c1, c2) for c1, c2 in zip(kids1, perm)):
                return True
        return False

    return match(ROOT, ROOT)


def expand_reference(p: TreePlan, n: int) -> tuple[FiniteTree, dict]:
    """The tree and the fibers of the expansion of ``p`` at size ``n``, by a
    recursive walk down the plan, one call per node, into a flat node list
    that the validating ``FiniteTree(nodes)`` sorts and checks."""
    nodes: list[Node] = []
    fibers: dict = {sigma: [] for sigma in p.nodes}

    def grow(node: Node, sigma) -> None:
        nodes.append(node)
        fibers[sigma].append(node)
        for tau in p.children(sigma):
            tags = range(n) if tau in p.inf_nodes else (STAR,)
            for t in tags:
                grow(node.child(tau[-1], t), tau)

    grow(ROOT, ())
    return FiniteTree(nodes), fibers


def assert_expansion_matches_reference(e) -> None:
    """The built child map and every fiber of ``e`` equal those of
    :func:`expand_reference`, order and node types included.  Child
    sequences compare as lists: every leaf of ``e`` maps to one shared
    empty tuple, while ``tree.children(leaf)`` still returns a fresh list."""
    tree, fibers = expand_reference(e.plan, e.n)
    built = list(e.tree._children.items())
    assert [(v, list(kids)) for v, kids in built] == list(tree._children.items())
    assert all(type(v) is Node and all(type(c) is Node for c in kids) for v, kids in built)
    leaves = [kids for kids in e.tree._children.values() if not kids]
    assert leaves and type(leaves[0]) is tuple
    assert all(kids is leaves[0] for kids in leaves)
    for v, kids in built:
        if not kids:
            listed = e.tree.children(v)
            assert listed == [] and type(listed) is list and listed is not e.tree.children(v)
    for sigma in e.plan.nodes:
        assert e.fiber(sigma) == fibers[sigma]


def verify_Q_reference(p: TreePlan, n_max: int, budget=None) -> CountReport:
    """:func:`~treeplan.counting.verify_Q` as a per-member loop: every
    fiber is filtered afresh from the built tree's nodes for each prefix
    pair, each upper-fiber member is cut to a witness ``Node`` by
    ``a.prefix(k)``, and every row formats its witness."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    text = plan_text(p)
    rows = []
    pairs = [
        (
            sigma,
            sigma_p,
            f"Qrel[{path_text(sigma) or '<>'}->{path_text(sigma_p) or '<>'}]@",
            poly_Q_rel(p, sigma, sigma_p),
        )
        for sigma in p.sorted_nodes()
        for sigma_p in p.sorted_nodes()
        if sigma_p[: len(sigma)] == sigma
    ]
    for n in range(1, n_max + 1):
        e = expand(p, n, budget=budget)

        def fiber(sigma):
            return [v for v in e.nodes() if v.plan_path == sigma]

        for sigma in p.sorted_nodes():
            observed = len(fiber(sigma))
            predicted = poly_Q(p, sigma)(n)
            rows.append(
                CountRow(
                    text, f"Q[{path_text(sigma) or '<>'}]", n, observed, predicted,
                    observed == predicted,
                )
            )
        for sigma, sigma_p, label, poly in pairs:
            predicted = poly(n)
            tally = Counter(a.prefix(len(sigma)) for a in fiber(sigma_p))
            for b in fiber(sigma):
                observed = tally[b]
                rows.append(
                    CountRow(text, f"{label}{b}", n, observed, predicted, observed == predicted)
                )
    return CountReport(tuple(rows))


def random_tree(rng: random.Random, max_nodes: int = 12) -> FiniteTree:
    """A random plain tree, at most ``max_nodes`` nodes."""
    nodes = [ROOT]
    child_counts = {ROOT: 0}
    size = rng.randint(1, max_nodes)
    while len(nodes) < size:
        parent = rng.choice(nodes)
        child = parent.child(child_counts[parent], STAR)
        child_counts[parent] += 1
        child_counts[child] = 0
        nodes.append(child)
    return FiniteTree(nodes)


def random_plan(rng: random.Random, max_nodes: int = 8, max_height: int = 3) -> TreePlan:
    marked = {(): False}
    frontier = [()]
    while frontier and len(marked) < max_nodes:
        sigma = frontier.pop(rng.randrange(len(frontier)))
        if len(sigma) >= max_height:
            continue
        for branch in range(rng.randint(0, 2)):
            if len(marked) >= max_nodes:
                break
            tau = sigma + (branch,)
            marked[tau] = rng.random() < 0.5
            frontier.append(tau)
    return make_plan(marked)


def random_embedding(rng: random.Random, em, en) -> dict[Node, Node]:
    """A random label-preserving embedding between expansions of one plan."""
    assert em.plan == en.plan and em.n <= en.n
    f = {ROOT: ROOT}
    for v in em.nodes():
        if v.depth == 0:
            continue
        image_parent = f[v.parent()]
        branch, tag = v[-1]
        if tag == STAR:
            f[v] = image_parent.child(branch, STAR)
        else:
            used = {
                f[s][-1][1]
                for s in em.tree.children(v.parent())
                if s in f and s.plan_path == v.plan_path
            }
            choices = [t for t in range(en.n) if t not in used]
            f[v] = image_parent.child(branch, rng.choice(choices))
    return f


def random_subset(rng: random.Random, pool, max_size: int):
    size = rng.randint(0, min(max_size, len(pool)))
    return frozenset(rng.sample(list(pool), size))


def generated_nodes(tup) -> frozenset[Node]:
    """Substructure generated by a tuple: all prefixes of its entries, plus the root."""
    out: set[Node] = {ROOT}
    for a in tup:
        for i in range(1, a.depth + 1):
            out.add(a.prefix(i))
    return frozenset(out)


def tcl_bruteforce(e, members) -> frozenset[Node]:
    """Tree closure as a fixpoint over the built tree: the generated nodes
    of the members, grown by every star-tagged child until none is new."""
    closed = set(generated_nodes(members))
    frontier = list(closed)
    while frontier:
        v = frontier.pop()
        for c in e.tree.children(v):
            if c[-1][1] == STAR and c not in closed:
                closed.add(c)
                frontier.append(c)
    return frozenset(closed)


def orbit_reps_bruteforce(e, picks) -> list[Node]:
    """Orbit representatives by scanning the universe: the first node of each
    labeled quantifier-free type over the picks, in node order."""
    picks = tuple(picks)
    seen: set[str] = set()
    reps: list[Node] = []
    for x in e.nodes():
        code = tuple_code(e, picks + (x,))
        if code not in seen:
            seen.add(code)
            reps.append(x)
    return reps


def orbit_bruteforce(e, a: Node, members) -> frozenset[Node]:
    """The nodes whose labeled quantifier-free type over the members is that of ``a``."""
    params = tuple(sorted(set(members)))
    target = tuple_code(e, (a,) + params)
    return frozenset(x for x in e.nodes() if tuple_code(e, (x,) + params) == target)


def dividing_reference(e, a: Node, set_b, set_c) -> DividingVerdict:
    """:func:`~treeplan.analysis.check_dividing` with each orbit over C
    found by :func:`orbit_bruteforce`, which filters the built tree: the
    first replicated prefix of ``a`` above its C-anchor that is in tcl(B),
    outside tcl(C) and has a conjugate other than itself."""
    closed_c = tcl_bruteforce(e, set_c)
    if a in closed_c:
        return DividingVerdict(False)
    closed_b = tcl_bruteforce(e, set_b)
    start = max(v.depth for v in closed_c if v.is_prefix_of(a)) + 1
    for i in range(start, a.depth + 1):
        w = a.prefix(i)
        if w in closed_b and w not in closed_c and e.mark_is_inf(w):
            family = orbit_bruteforce(e, w, set_c)
            if len(family) >= 2:
                return DividingVerdict(True, w, family, True)
    return DividingVerdict(False)


def same_type(left, picks_left, right, picks_right) -> bool:
    """Do the two pick tuples, each in its own expansion, have one labeled
    quantifier-free type (:func:`tuple_code`)?"""
    return tuple_code(left, picks_left) == tuple_code(right, picks_right)


class _PairwiseSearch:
    """The spoiler minimax over every (move, reply) pair of representatives,
    one type comparison per pair; a pair whose types differ is a spoiler
    win, and only the pairs that agree are entered as positions."""

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def solve(self, state) -> bool:
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")
        if state.rounds_left == 0:
            return False
        key = (state.left.n, state.right.n, orbit_key(state.picks_left), state.rounds_left)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self.winning_move(state) is not None
        self.memo[key] = result
        return result

    def wins_after(self, state, left, right) -> bool:
        after = state.after(left, right)
        if not same_type(state.left, after.picks_left, state.right, after.picks_right):
            return True
        return self.solve(after)

    def winning_move(self, state):
        reps_left = orbit_reps(state.left, state.picks_left)
        reps_right = orbit_reps(state.right, state.picks_right)
        for move in reps_left:
            if all(self.wins_after(state, move, reply) for reply in reps_right):
                return ("L", move)
        for move in reps_right:
            if all(self.wins_after(state, reply, move) for reply in reps_left):
                return ("R", move)
        return None


def search_outcome(search, state):
    """The first winning move ``search`` finds from ``state`` (None when
    there is none, ``BudgetError`` when it ran past its budget), the
    positions it visited and its memo of solved positions."""
    try:
        move = search.winning_move(state)
    except BudgetError:
        move = BudgetError
    return move, search.visited, search.memo


def winning_move_reference(state, budget: int = 100_000):
    """:func:`search_outcome` of the pair-by-pair search from ``state``, a
    partial isomorphism with rounds left."""
    return search_outcome(_PairwiseSearch(budget), state)


def node_order_key(v: Node) -> tuple:
    """The node order written out by hand from the text form: segment by
    segment, by branch and then by tag, with a star below every tag."""
    if v.depth == 0:
        return ()
    key = []
    for part in format_node(v).split("/"):
        branch, tag = part.split(":")
        key.append((int(branch), -1 if tag == "*" else int(tag)))
    return tuple(key)


@dataclass(frozen=True)
class NodeConstant:
    """A term naming one node: what a variable becomes under substitution."""

    node: Node


def substitute(f, name: str, node: Node):
    """``f`` with the free occurrences of variable ``name`` replaced by ``node``."""

    def term(t):
        if isinstance(t, Var):
            return NodeConstant(node) if t.name == name else t
        if isinstance(t, Pred):
            return Pred(term(t.arg), t.power)
        if isinstance(t, MeetT):
            return MeetT(term(t.left), term(t.right))
        return t

    if isinstance(f, (Eq, Leq)):
        return type(f)(term(f.left), term(f.right))
    if isinstance(f, Label):
        return Label(f.path, term(f.arg))
    if isinstance(f, Not):
        return Not(substitute(f.sub, name, node))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(substitute(f.left, name, node), substitute(f.right, name, node))
    if f.var == name:
        return f
    return type(f)(f.var, substitute(f.body, name, node))


def evaluate_reference(e, f, env=None) -> bool:
    """Tarskian truth by substitution: the environment and every quantified
    node are substituted into the formula before it is read, meets come
    from :func:`lcp_oracle` and predecessors from ``Node.parent``.  Raises
    as the library does, and only where an atom is reached."""
    env = dict(env or {})
    e.tree.require(*env.values())
    for name, node in env.items():
        f = substitute(f, name, node)

    def value(t) -> Node:
        if isinstance(t, NodeConstant):
            return t.node
        if isinstance(t, Var):
            raise UnboundVariableError(f"unbound variable {t.name!r}")
        if isinstance(t, Eps):
            return ROOT
        if isinstance(t, Pred):
            node = value(t.arg)
            return node.prefix(max(node.depth - t.power, 0))
        return lcp_oracle(value(t.left), value(t.right))

    def holds(g) -> bool:
        if isinstance(g, Eq):
            return value(g.left) == value(g.right)
        if isinstance(g, Leq):
            low = value(g.left)
            return lcp_oracle(low, value(g.right)) == low
        if isinstance(g, Label):
            if g.path not in e.plan.nodes:
                raise DomainError(f"label path {g.path} is not a node of the plan")
            return value(g.arg).plan_path == g.path
        if isinstance(g, Not):
            return not holds(g.sub)
        if isinstance(g, And):
            return holds(g.left) and holds(g.right)
        if isinstance(g, Or):
            return holds(g.left) or holds(g.right)
        if isinstance(g, Implies):
            return (not holds(g.left)) or holds(g.right)
        instances = (holds(substitute(g.body, g.var, x)) for x in e.nodes())
        return any(instances) if isinstance(g, Exists) else all(instances)

    return holds(f)


def classify_solutions_reference(e, f, free_var: str, params=None) -> frozenset[SolutionClass]:
    """:func:`~treeplan.logic.classify_solutions` by the scan: every node
    that satisfies ``f`` under :func:`evaluate_reference`, grouped by its
    anchor in the tree closure (:func:`tcl_bruteforce`) of the parameters
    other than ``free_var`` and by its plan path."""
    params = {name: v for name, v in (params or {}).items() if name != free_var}
    closed = tcl_bruteforce(e, params.values())
    groups = Counter(
        (anchor_in(closed, x), x.plan_path, x in closed)
        for x in e.nodes()
        if evaluate_reference(e, f, {**params, free_var: x})
    )
    return frozenset(
        SolutionClass(anc, anc.plan_path, sigma, count, member)
        for (anc, sigma, member), count in groups.items()
    )


def extend_to_automorphism_stepwise(e, f: dict[Node, Node]) -> dict[Node, Node]:
    """Grow a tree-closed partial automorphism one node at a time, each
    step a checked :func:`extend_embedding` call on the first node whose
    predecessor is mapped."""
    out = dict(f)
    remaining = [v for v in e.nodes() if v not in out]
    while remaining:
        c = next(v for v in remaining if v.parent() in out)
        out = extend_embedding(e, frozenset(out), out, e, c)
        remaining = [v for v in remaining if v not in out]
    return out


def closure_answer_reference(dst, f: dict[Node, Node], img, node: Node):
    """The closure duplicator's answer to ``node`` under the embedding
    ``f`` with image ``img``, by a walk up from the anchor of ``node`` in
    ``f``: star steps on mark-1 branches, the least tag outside the image
    and the walk so far on replicated ones.  Returns (answer, the capacity
    notes the walk made)."""
    if node in f:
        return f[node], []
    pa = next(node.prefix(i) for i in range(node.depth, -1, -1) if node.prefix(i) in f)
    v = f[pa]
    used = set(img)
    notes = []
    for d in range(pa.depth + 1, node.depth + 1):
        branch, _tag = node[d - 1]
        if node.prefix(d).plan_path not in dst.plan.inf_nodes:
            v = v.child(branch, STAR)
            used.add(v)
            continue
        fresh = next(
            (v.child(branch, t) for t in range(dst.n) if v.child(branch, t) not in used),
            None,
        )
        if fresh is None:
            notes.append(f"capacity exhausted at {format_node(v)} branch {branch}")
            fresh = v.child(branch, 0)
        v = fresh
        used.add(v)
    return v, notes


def code_below(tree: FiniteTree, node: Node, annotate=None) -> str:
    """The sorted-children code of the subtree at ``node``, one recursive
    call per child."""
    kids = sorted(code_below(tree, c, annotate) for c in tree.children(node))
    anno = annotate(node) if annotate is not None else ""
    return "(" + anno + "".join(kids) + ")"


def canonical_recursive(tree: FiniteTree, use_labels: bool = False) -> str:
    """The canonical code of the rooted tree, by :func:`code_below`."""
    annotate = None
    if use_labels:
        annotate = lambda v: path_text(v.plan_path) + ";"
    return code_below(tree, ROOT, annotate)


def qftp_recursive(tree: FiniteTree, tup, use_labels: bool = True) -> str:
    """The quantifier-free type code of a tuple, by :func:`code_below` over
    its generated substructure."""
    positions: dict[Node, tuple[int, ...]] = {}
    for i, a in enumerate(tup):
        positions[a] = positions.get(a, ()) + (i,)

    def annotate(v: Node) -> str:
        label = path_text(v.plan_path) if use_labels else ""
        pos = ",".join(map(str, positions.get(v, ())))
        return f"{label}|{pos};"

    return code_below(FiniteTree(prefixes(tup) | {ROOT}), ROOT, annotate)


def _assemble(parts) -> TreePlan:
    """A plan from (class plan, replicated copies, singleton copies) parts,
    each copy taking the next branch in order."""
    marked: dict[tuple[int, ...], bool] = {(): False}
    branch = 0
    for sub, inf_copies, one_copies in parts:
        for is_inf, copies in ((True, inf_copies), (False, one_copies)):
            for _ in range(copies):
                marked[(branch,)] = is_inf
                for tau in sub.nodes:
                    if tau:
                        marked[(branch,) + tau] = tau in sub.inf_nodes
                branch += 1
    return make_plan(marked)


def _children_classes_rerooted(t: FiniteTree):
    groups: dict[str, list[FiniteTree]] = {}
    for c in t.children(ROOT):
        sub = subtree(t, c)
        groups.setdefault(canonical_recursive(sub), []).append(sub)
    return sorted((code, len(subs), subs[0]) for code, subs in groups.items())


def _infer_known_rerooted(t1: FiniteTree, t2: FiniteTree, n: int) -> TreePlan:
    if len(t1) == 1:
        if len(t2) != 1:
            raise InferenceError("samples disagree at a leaf")
        return make_plan({(): False})
    classes1 = _children_classes_rerooted(t1)
    classes2 = _children_classes_rerooted(t2)
    if len(classes1) != len(classes2):
        raise InferenceError(
            "child classes do not correspond one-to-one",
            offending=[c for c, _, _ in classes1] + [c for c, _, _ in classes2],
        )
    edges = {}
    for i, (code1, c1, rep1) in enumerate(classes1):
        for j, (code2, c2, rep2) in enumerate(classes2):
            k = c2 - c1
            m = c1 - k * n
            if k < 0 or m < 0:
                continue
            try:
                sub = _infer_known_rerooted(rep1, rep2, n)
            except InferenceError:
                continue
            if canonical_recursive(expand(sub, n).tree) != code1:
                continue
            if canonical_recursive(expand(sub, n + 1).tree) != code2:
                continue
            edges[(i, j)] = (sub, k, m)
    assignment = [None] * len(classes1)
    taken = [False] * len(classes2)

    def match(i: int) -> bool:
        if i == len(classes1):
            return True
        for j in range(len(classes2)):
            if not taken[j] and (i, j) in edges:
                assignment[i] = j
                taken[j] = True
                if match(i + 1):
                    return True
                assignment[i] = None
                taken[j] = False
        return False

    if not match(0):
        raise InferenceError(
            "no consistent class matching",
            offending=[code for code, _, _ in classes1],
        )
    return _assemble([edges[(i, assignment[i])] for i in range(len(classes1))])


def infer_plan_rerooted(t1: FiniteTree, t2: FiniteTree) -> TreePlan:
    """Two-sample plan inference that re-roots a copy of every child
    subtree and codes it afresh, at every node, class pair and size."""
    shape1, shape2 = canonical_recursive(t1), canonical_recursive(t2)
    errors: list[tuple[int, str]] = []
    for n in range(len(t1), 0, -1):
        try:
            p = _infer_known_rerooted(t1, t2, n)
        except InferenceError as err:
            errors.append((n, str(err)))
            continue
        if canonical_recursive(expand(p, n).tree) == shape1 and (
            canonical_recursive(expand(p, n + 1).tree) == shape2
        ):
            return p
        errors.append((n, "reconstruction does not reproduce the samples"))
    # One line per run of consecutive sizes with one reason.
    lines = []
    for reason, run in itertools.groupby(errors, key=lambda item: item[1]):
        sizes = [n for n, _ in run]
        span = f"{sizes[0]}..{sizes[-1]}" if len(sizes) > 1 else f"{sizes[0]}"
        lines.append(f"n={span}: {reason}")
    raise InferenceError("samples admit no consistent plan", offending=lines)


def infer_plan_threshold_rerooted(t: FiniteTree, threshold: int) -> TreePlan:
    """The single-sample threshold heuristic on re-rooted subtree copies."""
    if len(t) == 1:
        return make_plan({(): False})
    parts = []
    for _code, count, rep in _children_classes_rerooted(t):
        sub = infer_plan_threshold_rerooted(rep, threshold)
        parts.append((sub, 1, 0) if count > threshold else (sub, 0, count))
    return _assemble(parts)
