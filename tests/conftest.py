"""Shared fixtures: the plan corpus and independent test oracles.

The corpus stays within 8 plan nodes and height 3.  Members are chosen so
that two-sample inference is identifiable: no node carries a replicated
child and a singleton child whose subplans expand to the same shape at the
sampled sizes.
"""

from __future__ import annotations

import itertools
import random
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
    subtree,
)
from treeplan.analysis import extend_embedding
from treeplan.closure import orbit_key, orbit_reps, tuple_code
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
    Var,
)
from treeplan.trees import meet_nodes, path_text, prefixes

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


def partial_isomorphism_cubic(picks_left, picks_right) -> bool:
    """The pick correspondence test, checking every meet against every pick."""
    pairs = [(ROOT, ROOT)] + list(zip(picks_left, picks_right))
    for a, b in pairs:
        if a.plan_path != b.plan_path:
            return False
        for a2, b2 in pairs:
            if (a == a2) != (b == b2):
                return False
            if a.is_prefix_of(a2) != b.is_prefix_of(b2):
                return False
            if (a.parent() == a2) != (b.parent() == b2):
                return False
            for a3, b3 in pairs:
                if (meet_nodes(a, a2) == a3) != (meet_nodes(b, b2) == b3):
                    return False
    return True


def extends_partial_isomorphism_reference(picks_left, picks_right) -> bool:
    """The newest-pair check as a walk over the earlier pairs: the meet of
    the new pair with each earlier pair must land on the same first pick,
    and the earlier picks above the new pair must fall under its children
    through one bijection of child segments, built as two dicts.  The
    prefix without the last pair must be a partial isomorphism."""
    a, b = picks_left[-1], picks_right[-1]
    if a.plan_path != b.plan_path:
        return False
    pairs = [(ROOT, ROOT)] + list(zip(picks_left[:-1], picks_right[:-1]))
    where_l: dict[Node, int] = {}
    where_r: dict[Node, int] = {}
    for i, (x, y) in enumerate(pairs):
        where_l.setdefault(x, i)
        where_r.setdefault(y, i)
    first = where_l.get(a)
    if first != where_r.get(b):
        return False
    if first is not None:
        return True
    new = where_l[a] = where_r[b] = len(pairs)
    child_of_b: dict = {}
    child_of_a: dict = {}
    for x, y in pairs:
        i = where_l.get(meet_nodes(a, x))
        if i != where_r.get(meet_nodes(b, y)):
            return False
        if i == new:
            cx, cy = x[a.depth], y[b.depth]
            if child_of_b.setdefault(cx, cy) != cy or child_of_a.setdefault(cy, cx) != cx:
                return False
    return True


class _PairwiseSearch:
    """The spoiler minimax with one ``GameState`` and one newest-pair check
    per pair of representatives."""

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def solve(self, state) -> bool:
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")
        if not extends_partial_isomorphism_reference(state.picks_left, state.picks_right):
            return True
        if state.rounds_left == 0:
            return False
        key = (
            state.left.n,
            state.right.n,
            orbit_key(state.picks_left),
            orbit_key(state.picks_right),
            state.rounds_left,
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self.winning_move(state) is not None
        self.memo[key] = result
        return result

    def winning_move(self, state):
        reps_left = orbit_reps(state.left, state.picks_left)
        reps_right = orbit_reps(state.right, state.picks_right)
        for move in reps_left:
            if all(self.solve(state.after(move, reply)) for reply in reps_right):
                return ("L", move)
        for move in reps_right:
            if all(self.solve(state.after(reply, move)) for reply in reps_left):
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
            return Pred(term(t.arg))
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
            return value(t.arg).parent()
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
    errors: list[str] = []
    for n in range(len(t1), 0, -1):
        try:
            p = _infer_known_rerooted(t1, t2, n)
        except InferenceError as err:
            errors.append(f"n={n}: {err}")
            continue
        if canonical_recursive(expand(p, n).tree) == shape1 and (
            canonical_recursive(expand(p, n + 1).tree) == shape2
        ):
            return p
        errors.append(f"n={n}: reconstruction does not reproduce the samples")
    raise InferenceError("samples admit no consistent plan", offending=errors)


def infer_plan_threshold_rerooted(t: FiniteTree, threshold: int) -> TreePlan:
    """The single-sample threshold heuristic on re-rooted subtree copies."""
    if len(t) == 1:
        return make_plan({(): False})
    parts = []
    for _code, count, rep in _children_classes_rerooted(t):
        sub = infer_plan_threshold_rerooted(rep, threshold)
        parts.append((sub, 1, 0) if count > threshold else (sub, 0, count))
    return _assemble(parts)
