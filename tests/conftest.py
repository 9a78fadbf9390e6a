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
    Node,
    ROOT,
    STAR,
    TreePlan,
    parse_plan,
)
from treeplan.closure import tuple_code
from treeplan.trees import meet_nodes

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
    from treeplan import make_plan

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
        if tag is STAR:
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
