"""Downward closure, tree closure, anchors, and orbits inside an expansion.

Expansions are homogeneous, so the orbit of a node over parameters B is
fixed by two things: its anchor (the largest node of ``tcl(B)`` below it)
and its plan path.  Orbits are therefore read off the closure, at a cost
that depends on the closure and the plan but not on the size ``n``.

Tuples likewise: :func:`orbit_key` names a tuple's orbit,
:func:`embed_pairs` builds the closure embedding between paired tuples,
and :func:`extend_least` grows such an embedding by least fresh nodes;
the games and the automorphisms share all three.
"""

from __future__ import annotations

from typing import Container, Iterable, Optional

from .errors import DomainError
from .plan import Expansion, TreePlan
from .trees import STAR, Node, ROOT, prefixes, qftp

NodeSet = frozenset[Node]


def downset(e: Expansion, members: Iterable[Node]) -> NodeSet:
    """All prefixes of the given nodes of ``e``, members included
    (:func:`~treeplan.trees.prefixes`, after checking membership)."""
    members = list(members)
    e.require(*members)
    return prefixes(members)


def tcl(e: Expansion, members: Iterable[Node]) -> NodeSet:
    """Tree closure: the least superset of the downset (plus the root) that
    contains every mark-1 child of each of its members.

    Each node of the downset and the root brings in the singleton-branch
    nodes above it, as the identity map that :func:`close_pair` builds;
    the closure is that map's domain.
    """
    closed: dict[Node, Node] = {}
    for v in downset(e, members) | {ROOT}:
        if v not in closed:
            close_pair(e.plan, closed, v, v)
    return frozenset(closed)


def anchor(e: Expansion, a: Node, members: Iterable[Node]) -> Node:
    """The maximum tree-closure element below-or-equal ``a``.

    Equals ``a`` exactly when ``a`` is in the closure; the root always
    qualifies, so the maximum exists.
    """
    e.require(a)
    closed = tcl(e, members)
    return anchor_in(closed, a)


def anchor_in(closed: Container[Node], a: Node) -> Node:
    """Anchor of ``a`` relative to an already-computed closed set: its
    longest prefix in ``closed`` (a set, or the domain of a map)."""
    for i in range(a.depth, -1, -1):
        p = a.prefix(i)
        if p in closed:
            return p
    raise DomainError("closed set does not contain the root")


def orbit(e: Expansion, a: Node, members: Iterable[Node]) -> NodeSet:
    """All nodes with the same labeled quantifier-free type as ``a`` over the
    given parameters.

    By finite homogeneity this is exactly the orbit of ``a`` under the
    automorphisms fixing the parameters pointwise: the nodes with the plan
    path and the anchor of ``a``.
    """
    e.require(a)
    closed = tcl(e, members)
    target = anchor_in(closed, a)
    return frozenset(x for x in e.fiber(a.plan_path) if anchor_in(closed, x) == target)


def orbit_reps(e: Expansion, members: Iterable[Node]) -> list[Node]:
    """The least member of each orbit over the parameters, in node order.

    Every closure node is its own orbit.  Every other orbit is a pair
    (anchor c, plan path): its least member leaves c on an inf branch by
    the least tag whose node is outside the closure, then takes tag 0 or
    ``*`` at every step above that.
    """
    closed = tcl(e, members)
    reps = set(closed)
    children, inf = e.plan.children, e.plan.inf_nodes
    stack = []
    for c in closed:
        for tau in children(c.plan_path):
            if tau in inf:
                fresh = least_free_child(e, c, tau[-1], closed)
                if fresh is not None:
                    stack.append((fresh, tau))
    while stack:
        v, sigma = stack.pop()
        reps.add(v)
        for rho in children(sigma):
            stack.append((v.child(rho[-1], 0 if rho in inf else STAR), rho))
    return sorted(reps)


def least_free_child(
    e: Expansion, v: Node, branch: int, taken: Container[Node], start: int = 0
) -> Optional[Node]:
    """The child of ``v`` on the replicated ``branch`` with the least tag,
    from ``start`` up, outside ``taken``; None when all of them are taken."""
    for tag in range(start, e.n):
        cand = v.child(branch, tag)
        if cand not in taken:
            return cand
    return None


def close_pair(plan: TreePlan, f: dict[Node, Node], u: Node, v: Node) -> list[Node]:
    """Map ``u`` to ``v`` in ``f``, then every singleton-branch node above
    a newly mapped node to the matching node above its image.

    Nodes already in ``f`` keep their images.  Returns the images added.
    """
    f[u] = v
    added = [v]
    stack = [(u, v)]
    while stack:
        cu, cv = stack.pop()
        for tau in plan.children(cu.plan_path):
            if tau in plan.inf_nodes:
                continue
            nu, nv = cu.child(tau[-1], STAR), cv.child(tau[-1], STAR)
            if nu not in f:
                f[nu] = nv
                added.append(nv)
                stack.append((nu, nv))
    return added


def orbit_key(picks: tuple[Node, ...]) -> tuple[Node, ...]:
    """The picks with each replicated tag renamed in order of first use
    under its parent and branch: equal for two tuples of one expansion
    exactly when an automorphism carries one to the other, that is, when
    their labeled quantifier-free types agree.  Tuples of two expansions of
    one plan have equal keys exactly when their types agree, which makes
    key equality the games' pick test
    (:func:`~treeplan.efgame.partial_isomorphism`)."""
    names: dict[tuple[Node, int], dict[int, int]] = {}
    out = []
    for a in picks:
        v = ROOT
        for branch, tag in a:
            if tag != STAR:
                seen = names.setdefault((v, branch), {})
                tag = seen.setdefault(tag, len(seen))
            v = v.child(branch, tag)
        out.append(v)
    return tuple(out)


def embed_pairs(
    plan: TreePlan, pairs: Iterable[tuple[Node, Node]]
) -> tuple[dict[Node, Node], set[Node]]:
    """Replay pairs of nodes into a closure embedding, one pair at a time.

    Returns (map, image).  A pair that no embedding extending the map can
    contain, e.g. after a forced bad pick, is skipped from the point where
    it conflicts; pairs of tuples with equal :func:`orbit_key` never do.
    """
    f: dict[Node, Node] = {}
    img = set(close_pair(plan, f, ROOT, ROOT))
    for a, b in pairs:
        if a in f or b in img:
            continue
        pa = anchor_in(f, a)
        pb = f[pa]
        k = a.depth - pa.depth
        if b.depth - pb.depth != k or not pb.is_prefix_of(b):
            continue
        for d in range(1, k + 1):
            u, v = a.prefix(pa.depth + d), b.prefix(pb.depth + d)
            if u in f:
                # Pulled in by the singleton closure of an earlier step.
                if f[u] != v:
                    break
                continue
            if u.plan_path != v.plan_path or v in img:
                break
            img.update(close_pair(plan, f, u, v))
    return f, img


def extend_least(
    dst: Expansion, f: dict[Node, Node], img: set[Node], nodes: Iterable[Node]
) -> list[tuple[Node, int]]:
    """Grow the closure embedding ``f``, with image ``img``, until it maps
    each of ``nodes`` in turn; both grow in place.

    Each unmapped prefix, from the node's anchor in ``f`` upward, goes to
    the least child on its branch, under its parent's image, outside
    ``img``; the singleton closure above it follows (:func:`close_pair`).
    A step whose ``n`` children are all taken is forced onto tag 0.
    Returns the (parent image, branch) of each forced step.
    """
    # ``img`` only grows, so a tag found taken stays taken: each scan under
    # an image parent and branch resumes where the last one stopped.
    cursor: dict[tuple[Node, int], int] = {}
    forced = []
    for node in nodes:
        for d in range(anchor_in(f, node).depth + 1, node.depth + 1):
            u = node.prefix(d)
            if u in f:  # pulled in by the singleton closure of a step before
                continue
            v, branch = f[u.parent()], u[-1][0]
            fresh = least_free_child(dst, v, branch, img, cursor.get((v, branch), 0))
            if fresh is None:
                forced.append((v, branch))
                fresh = v.child(branch, 0)
            cursor[v, branch] = fresh[-1][1]
            img.update(close_pair(dst.plan, f, u, fresh))
    return forced


def tuple_code(e: Expansion, tup: tuple[Node, ...]) -> str:
    """Labeled quantifier-free type code of a tuple of nodes of ``e``: the
    reference the tests check :func:`orbit_key` against, and a name the
    benchmark traces."""
    return qftp(e.tree, tup, use_labels=True).code
