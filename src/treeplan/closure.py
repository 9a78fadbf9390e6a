"""Downward closure, tree closure, anchors, and orbits inside an expansion.

Expansions are homogeneous, so the orbit of a node over parameters B is
fixed by two things: its anchor (the largest node of ``tcl(B)`` below it)
and its plan path.  Orbits are therefore read off the closure, at a cost
that depends on the closure and the plan but not on the size ``n``.

Tuples likewise: :func:`orbit_key` names a tuple's orbit,
:func:`embed_pairs` builds the closure embedding between paired tuples,
and :func:`extend_least` grows such an embedding by least fresh nodes;
the games and the automorphisms share all three.  A :class:`PickFrame`
holds the closure and the key of a pick tuple together, counts the orbits
over the picks, lists their representatives with their keys, and steps by
one more pick: the closure, the representatives, dividing, the game
search, :func:`type_count` and evaluation all walk frames, built once
and stepped by each move or quantified representative.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Optional

from .errors import DomainError
from .plan import Expansion, TreePlan, _extensions, _subplan_sizes, expand
from .trees import STAR, Node, PlanPath, ROOT, Segment, prefixes, qftp

NodeSet = frozenset[Node]


def downset(e: Expansion, members: Iterable[Node]) -> NodeSet:
    """All prefixes of the given nodes of ``e``, members included
    (:func:`~treeplan.trees.prefixes`, after checking membership)."""
    members = list(members)
    e.require(*members)
    return prefixes(members)


def tcl(e: Expansion, members: Iterable[Node]) -> NodeSet:
    """Tree closure: the least superset of the downset (plus the root) that
    contains every mark-1 child of each of its members: the closure of the
    members' :class:`PickFrame`."""
    return frozenset(PickFrame(e, members).closed)


def anchor(e: Expansion, a: Node, members: Iterable[Node]) -> Node:
    """The maximum tree-closure element below-or-equal ``a``.

    Equals ``a`` exactly when ``a`` is in the closure; the root always
    qualifies, so the maximum exists.
    """
    e.require(a)
    return anchor_in(tcl(e, members), a)


def anchor_in(closed: Container[Node], a: Node) -> Node:
    """Anchor of ``a`` relative to an already-computed closed set: its
    longest prefix in ``closed`` (a set, or the domain of a map)."""
    for i in range(len(a), -1, -1):
        if a[:i] in closed:  # a slice hashes and compares as its prefix
            return Node(a[:i])
    raise DomainError("closed set does not contain the root")


def orbit(e: Expansion, a: Node, members: Iterable[Node]) -> NodeSet:
    """All nodes with the same labeled quantifier-free type as ``a`` over the
    given parameters.

    By finite homogeneity this is exactly the orbit of ``a`` under the
    automorphisms fixing the parameters pointwise: the nodes with the plan
    path and the anchor of ``a``, listed from that anchor (:func:`_orbit_in`).
    """
    e.require(a)
    return _orbit_in(e, tcl(e, members), a)


def _orbit_in(e: Expansion, closed: Container[Node], a: Node) -> NodeSet:
    """:func:`orbit` of ``a`` over parameters with tree closure ``closed``,
    listed from its anchor; a closure member is its own orbit."""
    return frozenset(_extensions(e, anchor_in(closed, a), a.plan_path, closed))


def orbit_reps(e: Expansion, members: Iterable[Node]) -> list[Node]:
    """The least member of each orbit over the parameters, in node order:
    the representatives of the members' :class:`PickFrame`."""
    return [v for v, _ in PickFrame(e, members).reps()]


def close_pair(
    plan: TreePlan,
    f: dict[Node, Node],
    u: Node,
    v: Node,
    sigma: PlanPath,
    paths: Optional[list[tuple[Node, PlanPath]]] = None,
) -> list[Node]:
    """Map ``u``, at plan node ``sigma``, to ``v`` in ``f``, then every
    singleton-branch node above it to the matching node above its image;
    with ``paths``, append each new node with its plan path there.

    ``u`` must be new to ``f``, and its parent, unless ``u`` is the root,
    mapped, as in every caller: the domain of ``f`` stays closed under
    prefixes, so every node above ``u`` is new as well.  Returns the images
    added.
    """
    f[u] = v
    if paths is not None:
        paths.append((u, sigma))
    added = [v]
    stack = [(u, v, sigma)]
    children, inf = plan.children, plan.inf_nodes
    while stack:
        cu, cv, sigma = stack.pop()
        for tau in children(sigma):
            if tau in inf:
                continue
            segment = ((tau[-1], STAR),)
            nu = Node(cu + segment)
            # An identity map shares its nodes: a deep chain is stored once.
            nv = f[nu] = nu if cv is cu else Node(cv + segment)
            if paths is not None:
                paths.append((nu, tau))
            added.append(nv)
            stack.append((nu, nv, tau))
    return added


Names = dict[tuple[Node, int], dict[int, int]]


def _rename(names: Names, v: Node, segments: Iterable[Segment]) -> Node:
    """``v`` extended by ``segments``, each replicated tag renamed in order
    of first use under its (renamed) parent and branch.  A table that gains
    a tag is replaced in ``names`` by a grown copy, never changed in place,
    so frames that share a table never see each other's picks."""
    for branch, tag in segments:
        if tag != STAR:
            seen = names.get((v, branch))
            if seen is None:
                names[v, branch] = {tag: 0}
                tag = 0
            elif tag in seen:
                tag = seen[tag]
            else:
                names[v, branch] = {**seen, tag: len(seen)}
                tag = len(seen)
        v = v.child(branch, tag)
    return v


def orbit_key(picks: tuple[Node, ...]) -> tuple[Node, ...]:
    """The picks with each replicated tag renamed in order of first use
    under its parent and branch: equal for two tuples of one expansion
    exactly when an automorphism carries one to the other, that is, when
    their labeled quantifier-free types agree.  Tuples of two expansions of
    one plan have equal keys exactly when their types agree, which makes
    key equality the games' pick test
    (:func:`~treeplan.efgame.partial_isomorphism`)."""
    names: Names = {}
    return tuple([_rename(names, ROOT, a) for a in picks])


class PickFrame:
    """One side's state in a walk over pick tuples of an expansion ``e``.

    ``closed`` maps each node of the picks' tree closure to its renamed
    image (renamed as :func:`orbit_key` renames the picks), ``paths``
    lists each with its plan path, ``names`` holds the renaming tables and
    ``key`` is the picks' orbit key.  A frame is not changed after it is
    built: :meth:`step` returns a new one, sharing the name tables it does
    not grow.  The picks must be nodes of ``e``.
    """

    __slots__ = ("e", "closed", "paths", "names", "key", "_tally")

    def __init__(self, e: Expansion, picks: Iterable[Node] = ()):
        picks = tuple(picks)
        e.require(*picks)
        self.e = e
        self.closed: dict[Node, Node] = {}
        self.paths: list[tuple[Node, PlanPath]] = []
        self.names: Names = {}
        self._tally: Optional[tuple[int, int]] = None
        close_pair(e.plan, self.closed, ROOT, ROOT, (), self.paths)
        self.key = tuple([self._add(a) for a in picks])

    def step(self, a: Node) -> "PickFrame":
        """The frame of the picks extended by ``a``, a node of ``e``."""
        new = PickFrame.__new__(PickFrame)
        new.e, new._tally = self.e, None
        new.closed, new.paths, new.names = dict(self.closed), list(self.paths), dict(self.names)
        new.key = self.key + (new._add(a),)
        return new

    def _add(self, a: Node) -> Node:
        # Rename the part of ``a`` above its anchor and close each of its
        # new prefixes; a node already in the closure changes nothing.
        closed = self.closed
        if a in closed:
            return closed[a]
        # The search of :func:`anchor_in`, on slices (a slice hashes and
        # compares as the prefix it spells), kept inline: no call, no Node.
        d = len(a) - 1
        while a[:d] not in closed:
            d -= 1
        r = _rename(self.names, closed[a[:d]], a[d:])
        same, path, plan = r == a, a.plan_path, self.e.plan
        for i in range(d + 1, len(a) + 1):
            u = Node(a[:i])
            if u not in closed:  # else closed with its parent, as a star child
                close_pair(plan, closed, u, u if same else Node(r[:i]), path[:i], self.paths)
        return r

    def tally(self, a: Optional[Node] = None) -> tuple[int, int]:
        """The number of orbits over the picks, extended by ``a`` when it
        is given, and the length of the widest tag table, without stepping
        (the rule of :class:`~treeplan.efgame._Search`).  The frame's own
        pair is kept on first use."""
        if self._tally is None:
            count, sizes = len(self.closed), _subplan_sizes(self.e.plan)[0]
            for *_, tau in self._fresh():
                count += sizes[tau]
            self._tally = count, max(map(len, self.names.values()), default=0)
        if a is None or a in self.closed:
            return self._tally
        count, width = self._tally
        c = anchor_in(self.closed, a)
        sizes, gains = _subplan_sizes(self.e.plan)
        path, n = a.plan_path, self.e.n
        used = len(self.names.get((self.closed[c], a[len(c)][0]), ())) + 1
        width = max(width, used)
        for i in range(len(c), len(a)):
            if a[i][1] != STAR:
                sigma = path[: i + 1]
                count += gains[sigma] - (sizes[sigma] if used == n else 0)
                used = 1
        return count, width

    def _fresh(self) -> Iterator[tuple[Node, Node, Container[int], PlanPath]]:
        # Each closure node c, its image, its tag table on an inf child τ
        # of its plan path, and τ, where that table is shorter than n: c
        # has a child outside the closure there.
        closed, names, n = self.closed, self.names, self.e.n
        children, inf = self.e.plan._children, self.e.plan.inf_nodes
        for c, sigma in self.paths:
            rc = closed[c]
            for tau in children[sigma]:
                if tau in inf:
                    used = names.get((rc, tau[-1]), ())
                    if len(used) < n:
                        yield c, rc, used, tau

    def reps(self) -> list[tuple[Node, Node]]:
        """The least member of each orbit over the picks, in node order,
        each with its renamed image: the last entry of the orbit key of the
        picks extended by it.

        Every closure node is its own orbit.  Every other orbit is a pair
        (anchor c, plan path): its least member leaves c on an inf branch
        by the least tag whose node is outside the closure, a tag the picks
        never used there, then takes tag 0 or ``*`` at every step above
        that.  So only that first tag is renamed, to the number of tags the
        picks used under c on that branch.
        """
        inf, children = self.e.plan.inf_nodes, self.e.plan._children
        renamed = dict(self.closed)
        stack = []
        for c, rc, used, tau in self._fresh():
            branch, tag = tau[-1], 0
            while tag in used:
                tag += 1
            stack.append((Node(c + ((branch, tag),)), rc.child(branch, len(used)), tau))
        while stack:
            v, r, sigma = stack.pop()
            renamed[v] = r
            for rho in children[sigma]:
                segment = ((rho[-1], 0 if rho in inf else STAR),)
                stack.append((Node(v + segment), Node(r + segment), rho))
        # The closure comes in close to node order, so the sort is cheap
        # even on a deep chain.
        return sorted(renamed.items())

    def keyed_reps(self) -> dict[tuple[Node, ...], Node]:
        """The representatives of :meth:`reps`, in node order, each keyed
        by the orbit key of the picks extended by it."""
        key = self.key
        return {key + (r,): v for v, r in self.reps()}


def type_count(p: TreePlan, k: int) -> int:
    """The number of k-types of the generic model Γ(ω) of ``p``: the
    orbits of k-tuples, each named by its :func:`orbit_key`.

    They are the leaves of the depth-k walk that steps a
    :class:`PickFrame` by each of its representatives in turn; the last
    level is counted from the frame above it by :meth:`PickFrame.tally`,
    without stepping into it (the rule of
    :class:`~treeplan.efgame._Search`).  A k-tuple uses at most k tags
    under any parent, so the walk on the expansion at size k sees every
    type of every size from k up, Γ(ω) included.
    Raises :class:`DomainError` for ``k < 0``.
    """
    if k < 0:
        raise DomainError("a type count needs k >= 0")
    if k == 0:
        return 1
    leaves = 0
    stack = [(PickFrame(expand(p, k)), k)]
    while stack:
        frame, rounds = stack.pop()
        if rounds == 1:
            leaves += frame.tally()[0]
        elif rounds == 2:
            for a, _ in frame.reps():
                leaves += frame.tally(a)[0]
        else:
            stack.extend((frame.step(a), rounds - 1) for a, _ in frame.reps())
    return leaves


def embed_pairs(
    plan: TreePlan, pairs: Iterable[tuple[Node, Node]]
) -> tuple[dict[Node, Node], set[Node]]:
    """Replay pairs of nodes into a closure embedding, one pair at a time.

    Returns (map, image).  A pair that no embedding extending the map can
    contain, e.g. after a forced bad pick, is skipped from the point where
    it conflicts; pairs of tuples with equal :func:`orbit_key` never do.
    """
    f: dict[Node, Node] = {}
    img = set(close_pair(plan, f, ROOT, ROOT, ()))
    for a, b in pairs:
        if a in f or b in img:
            continue
        pa = anchor_in(f, a)
        pb = f[pa]
        k = a.depth - pa.depth
        if b.depth - pb.depth != k or not pb.is_prefix_of(b):
            continue
        path_a, path_b = a.plan_path, b.plan_path
        for d in range(pa.depth + 1, a.depth + 1):
            u, v = a.prefix(d), b.prefix(d - pa.depth + pb.depth)
            if u in f:
                # Pulled in by the singleton closure of an earlier step.
                if f[u] != v:
                    break
                continue
            sigma = path_a[:d]
            if sigma != path_b[: d - pa.depth + pb.depth] or v in img:
                break
            img.update(close_pair(plan, f, u, v, sigma))
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
        path = node.plan_path
        for d in range(anchor_in(f, node).depth + 1, node.depth + 1):
            u = node.prefix(d)
            if u in f:  # pulled in by the singleton closure of a step before
                continue
            v, branch = f[u.parent()], u[-1][0]
            # A plain tuple tests as the node it spells.
            tag = cursor.get((v, branch), 0)
            while tag < dst.n and v + ((branch, tag),) in img:
                tag += 1
            if tag == dst.n:
                forced.append((v, branch))
                tag = 0
            cursor[v, branch] = tag
            img.update(close_pair(dst.plan, f, u, v.child(branch, tag), path[:d]))
    return forced


def tuple_code(e: Expansion, tup: tuple[Node, ...]) -> str:
    """Labeled quantifier-free type code of a tuple of nodes of ``e``: the
    reference the tests check :func:`orbit_key` against, and a name the
    benchmark traces.  The code depends only on the tuple's downset, so
    ``e`` only checks membership and the tree of that downset is the one
    built, whatever the size of ``e``."""
    return qftp(e, tup, use_labels=True).code
