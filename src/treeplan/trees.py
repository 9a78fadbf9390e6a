"""Finite rooted trees in the tree signature (root, prefix order, meet, pred).

A node is its path of segments: a :class:`Node` is a tuple of pairs
``(branch, tag)``.  ``branch`` is the branch index of the underlying plan
node and ``tag`` is either :data:`STAR` ``== -1`` (for singleton branches)
or an element index in ``0..n-1`` (for replicated branches).  The root is
the empty tuple ``()``.  Nodes compare, hash and order as tuples, so the
star comes before tags ``0..n-1`` and every node comes after its prefixes.
A :class:`FiniteTree` is one dict from each node to its child sequence, in
node order.  In a tree built by an expansion every leaf's child sequence is
one shared empty tuple; :meth:`FiniteTree.children` always returns a fresh
list.

All values here are immutable; every operation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Optional, Sequence

from .errors import DomainError

# Tag marking a segment that belongs to a singleton (mark-1) branch.
STAR = -1

Segment = tuple[int, int]
PlanPath = tuple[int, ...]


class Node(tuple):
    """A tree element: the tuple of its segments from the root.

    Slicing or concatenating gives a plain tuple, so every method wraps
    its result.  The root ``()`` is falsy: test ``depth``, not the node.
    """

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def plan_path(self) -> PlanPath:
        """Branch indices of the path: the projection onto the plan."""
        return tuple([branch for branch, _ in self])

    def prefix(self, length: int) -> "Node":
        return Node(self[:length])

    def parent(self) -> "Node":
        # pred of the root is the root, by convention: the slice clamps.
        return Node(self[:-1])

    def child(self, branch: int, tag: int) -> "Node":
        return Node(self + ((branch, tag),))

    def is_prefix_of(self, other: "Node") -> bool:
        return other[: len(self)] == self

    def retag(self, tag_map: Callable[[int], int]) -> "Node":
        """The node with every non-star tag renamed through ``tag_map``."""
        return Node((branch, STAR if tag == STAR else tag_map(tag)) for branch, tag in self)

    def __str__(self) -> str:
        return format_node(self)

    def __repr__(self) -> str:
        return f"Node({format_node(self)!r})"


ROOT = Node()


def path_text(sigma: PlanPath) -> str:
    """Branch indices joined by dots; the empty string for the root."""
    return ".".join(map(str, sigma))


def format_node(node: Node) -> str:
    """Textual form: ``eps`` for the root, else ``branch:tag`` segments joined by ``/``."""
    if not node:
        return "eps"
    return "/".join([f"{branch}:{'*' if tag == STAR else tag}" for branch, tag in node])


_SEG_RE = re.compile(r"^(\d+):(\*|\d+)$")


def parse_node(text: str) -> Node:
    """Inverse of :func:`format_node`."""
    text = text.strip()
    if text == "eps":
        return ROOT
    segs: list[Segment] = []
    for part in text.split("/"):
        m = _SEG_RE.match(part.strip())
        if not m:
            raise DomainError(f"bad node segment {part!r} in {text!r}")
        branch = int(m.group(1))
        tag = STAR if m.group(2) == "*" else int(m.group(2))
        segs.append((branch, tag))
    return Node(segs)


class FiniteTree:
    """A finite prefix-closed node set, kept as one map from each node to
    its child sequence, in node order."""

    __slots__ = ("_children",)

    def __init__(self, nodes: Iterable[Node]):
        # A parent precedes its children, so one walk in node order fills every
        # child list in order.  A slice hashes and compares as the parent node.
        children: dict[Node, list[Node]] = dict.fromkeys(sorted(nodes))
        if ROOT not in children:
            raise DomainError("a tree must contain the root")
        for v in children:
            if not isinstance(v, Node):
                raise DomainError(f"unknown node {v}")
            children[v] = []
            if v:
                kids = children.get(v[:-1])
                if kids is None:
                    raise DomainError(f"tree is not prefix-closed at {v}")
                kids.append(v)
        self._children = children

    @classmethod
    def _from_children(cls, children: dict[Node, Sequence[Node]]) -> "FiniteTree":
        """The tree whose child map is ``children``, stored as is: the caller
        vouches that it is prefix-closed, with the nodes and every child
        sequence in node order.  Child sequences are only read, so the
        leaves may share one empty tuple."""
        tree = cls.__new__(cls)
        tree._children = children
        return tree

    @property
    def nodes(self):
        return self._children.keys()

    def __contains__(self, node: Node) -> bool:
        return node in self._children

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self):
        return iter(self._children)

    def sorted_nodes(self) -> list[Node]:
        return list(self._children)

    def children(self, node: Node) -> list[Node]:
        if node not in self._children:
            raise DomainError(f"unknown node {node}")
        return list(self._children[node])

    def height(self) -> int:
        return max(v.depth for v in self._children)

    def require(self, *nodes: Node) -> None:
        require_members(self._children, nodes)


def require_members(members: Container, nodes: Iterable[object]) -> None:
    """Raise :class:`DomainError` unless each of ``nodes`` is a :class:`Node`
    in ``members``."""
    for v in nodes:
        # A plain tuple equals the node it spells but has no node methods.
        if not isinstance(v, Node) or v not in members:
            try:
                text = str(v)
            except (TypeError, ValueError):  # a Node whose segments are not pairs
                text = repr(tuple(v))
            raise DomainError(f"unknown node {text}")


def meet(tree: FiniteTree, a: Node, b: Node) -> Node:
    """Longest common prefix of ``a`` and ``b``: their maximum lower bound."""
    tree.require(a, b)
    return meet_nodes(a, b)


def meet_nodes(a: Node, b: Node) -> Node:
    return Node(_common_prefix(a, b))


def _common_prefix(a: tuple, b: tuple) -> tuple:
    """The longest common prefix of two segment tuples, as a slice of
    ``a``: the library's one common-prefix loop, also plain evaluation's
    ``meet``.  The walk stops at the first differing segment or, by
    ``IndexError``, at the end of the shorter tuple."""
    i = 0
    try:
        while a[i] == b[i]:
            i += 1
    except IndexError:
        pass
    return a[:i]


def predk(tree: FiniteTree, a: Node, k: int) -> Node:
    """Drop the last ``k >= 0`` segments of ``a``, clamping at the root."""
    tree.require(a)
    if k < 0:
        raise DomainError(f"predk needs k >= 0, got {k}")
    if k >= a.depth:
        return ROOT
    return a.prefix(a.depth - k)


@dataclass(frozen=True)
class CanonicalForm:
    """Deterministic code; equal codes iff the rooted (labeled) trees are isomorphic."""

    code: str

    def __str__(self) -> str:
        return self.code


def subtree_codes(
    tree: FiniteTree, annotate: Optional[Callable[[Node], str]] = None
) -> dict[Node, str]:
    """The code of every node's subtree: ``(``, the node's annotation, its
    children's codes sorted, ``)``.  One walk in reverse node order codes
    every child before its parent."""
    codes: dict[Node, str] = {}
    for v, children in reversed(tree._children.items()):
        kids = sorted(codes[c] for c in children)
        anno = annotate(v) if annotate is not None else ""
        codes[v] = "(" + anno + "".join(kids) + ")"
    return codes


def canonical(tree: FiniteTree, use_labels: bool = False) -> CanonicalForm:
    """Bottom-up sorted-children encoding of the rooted tree: the root's
    entry of :func:`subtree_codes`.

    With ``use_labels`` the plan projection of every node is woven into the
    code, so equality means label-preserving isomorphism.
    """
    annotate = None
    if use_labels:
        annotate = lambda v: path_text(v.plan_path) + ";"
    return CanonicalForm(subtree_codes(tree, annotate)[ROOT])


def prefixes(nodes: Iterable[Node]) -> frozenset[Node]:
    """All prefixes of the given nodes, members included: their downset.

    The root belongs to the downset of any non-empty set, being below
    everything.
    """
    out: set[Node] = set()
    for a in nodes:
        for i in range(a.depth + 1):
            out.add(a.prefix(i))
    return frozenset(out)


@dataclass(frozen=True)
class TupleType:
    """Quantifier-free type of a tuple: its generated substructure with the
    tuple positions marked, compressed to a canonical code."""

    code: str
    generated: frozenset[Node] = field(compare=False, hash=False)

    def __str__(self) -> str:
        return self.code


def qftp(tree: FiniteTree, tup: tuple[Node, ...], use_labels: bool = True) -> TupleType:
    """Quantifier-free type of ``tup`` in ``tree``: the code of the
    generated substructure, each node annotated with label and positions.

    Two tuples get equal values exactly when the entrywise correspondence
    extends to an isomorphism of their generated substructures (respecting
    plan labels when ``use_labels`` is set).  The type depends on the
    tuple's downset alone, so ``tree`` is only asked to ``require`` the
    tuple's members: an :class:`~treeplan.plan.Expansion` serves as well,
    without building its tree.
    """
    tree.require(*tup)
    # The generated substructure holds the root even for the empty tuple.
    gen = prefixes(tup) | {ROOT}
    positions: dict[Node, tuple[int, ...]] = {}
    for i, a in enumerate(tup):
        positions[a] = positions.get(a, ()) + (i,)
    sub = FiniteTree(gen)

    def annotate(v: Node) -> str:
        label = path_text(v.plan_path) if use_labels else ""
        pos = ",".join(map(str, positions.get(v, ())))
        return f"{label}|{pos};"

    return TupleType(subtree_codes(sub, annotate)[ROOT], gen)


def subtree(tree: FiniteTree, at: Node) -> FiniteTree:
    """The tree above ``at``, re-rooted (prefixes stripped)."""
    tree.require(at)
    k = at.depth
    return FiniteTree(
        Node(v[k:]) for v in tree.nodes if at.is_prefix_of(v)
    )
