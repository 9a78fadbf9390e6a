"""Shared fixtures: the plan corpus and independent test oracles.

The corpus stays within 8 plan nodes and height 3.  Members are chosen so
that two-sample inference is identifiable: no node carries a replicated
child and a singleton child whose subplans expand to the same shape at the
sampled sizes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from treeplan import (
    FiniteTree,
    InferenceError,
    Node,
    ROOT,
    STAR,
    TreePlan,
    expand,
    format_node,
    make_plan,
    parse_plan,
    subtree,
)
from treeplan.analysis import extend_embedding
from treeplan.closure import tuple_code
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
        if a.segs[:i] == b.segs[:i]:
            best = Node(a.segs[:i])
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
        if not v.segs:
            continue
        image_parent = f[v.parent()]
        branch, tag = v.segs[-1]
        if tag == STAR:
            f[v] = image_parent.child(branch, STAR)
        else:
            used = {
                f[s].segs[-1][1]
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


def node_order_key(v: Node) -> tuple:
    """The node order written out by hand from the text form: segment by
    segment, by branch and then by tag, with a star below every tag."""
    if not v.segs:
        return ()
    key = []
    for part in format_node(v).split("/"):
        branch, tag = part.split(":")
        key.append((int(branch), -1 if tag == "*" else int(tag)))
    return tuple(key)


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
