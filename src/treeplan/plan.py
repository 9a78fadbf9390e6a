"""Tree plans and their finite expansions.

A tree plan is a finite prefix-closed set of branch-index paths with a
``1``/``inf`` mark on every node (the root is always ``1``).  Expanding a
plan at size ``n`` replaces every mark-``inf`` node by ``n`` tagged copies
per parent and every mark-``1`` node by a single star-tagged copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .errors import BudgetError, DomainError, PlanSyntaxError
from .trees import STAR, FiniteTree, Node, PlanPath, ROOT, Segment, require_members

DEFAULT_NODE_BUDGET = 2_000_000


def node_budget(override: Optional[int] = None) -> int:
    """``override``, else ``TREEPLAN_BUDGET``, else the default; a negative
    override is a usage error (:class:`DomainError`), and a negative or
    non-integer environment value a :class:`BudgetError`."""
    if override is not None:
        if override < 0:
            raise DomainError(f"the node budget must be non-negative, got {override}")
        return override
    env = os.environ.get("TREEPLAN_BUDGET")
    if env:
        try:
            limit = int(env)
        except ValueError:
            raise BudgetError(f"TREEPLAN_BUDGET is not an integer: {env!r}")
        if limit < 0:
            raise BudgetError(f"TREEPLAN_BUDGET is negative: {env!r}")
        return limit
    return DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class TreePlan:
    """The pair (node set, set of replicated nodes).

    The children of every node, in branch order, and the number of
    inf-marked nodes on the path to every node are computed once at
    construction.
    """

    nodes: frozenset[PlanPath]
    inf_nodes: frozenset[PlanPath]
    _children: dict[PlanPath, tuple[PlanPath, ...]] = field(
        init=False, repr=False, compare=False
    )
    _inf_counts: dict[PlanPath, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if () not in self.nodes:
            raise DomainError("a plan must contain the empty path")
        if () in self.inf_nodes:
            raise DomainError("the plan root must carry mark 1")
        if not self.inf_nodes <= self.nodes:
            raise DomainError("inf-marked paths must be plan nodes")
        kids: dict[PlanPath, list[PlanPath]] = {sigma: [] for sigma in self.nodes}
        for sigma in self.nodes:
            if sigma:
                below = kids.get(sigma[:-1])
                if below is None:
                    raise DomainError(f"plan is not prefix-closed at {sigma}")
                below.append(sigma)
        for sigma, below in kids.items():
            below.sort()
            if [tau[-1] for tau in below] != list(range(len(below))):
                raise DomainError(f"branch indices below {sigma} are not consecutive")
        children = {sigma: tuple(below) for sigma, below in kids.items()}
        object.__setattr__(self, "_children", children)
        # Down from the root, each count from its parent's: no path is sliced.
        counts = {(): 0}
        stack = [((), 0)]
        while stack:
            sigma, count = stack.pop()
            for tau in children[sigma]:
                counts[tau] = above = count + (tau in self.inf_nodes)
                stack.append((tau, above))
        object.__setattr__(self, "_inf_counts", counts)

    def __contains__(self, sigma: PlanPath) -> bool:
        return sigma in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def is_inf(self, sigma: PlanPath) -> bool:
        if sigma not in self.nodes:
            raise DomainError(f"unknown plan node {sigma}")
        return sigma in self.inf_nodes

    def children(self, sigma: PlanPath) -> tuple[PlanPath, ...]:
        """The children of ``sigma`` in branch order."""
        kids = self._children.get(sigma)
        if kids is None:
            raise DomainError(f"unknown plan node {sigma}")
        return kids

    def sorted_nodes(self) -> list[PlanPath]:
        return sorted(self.nodes)

    def __str__(self) -> str:
        return plan_text(self)


def make_plan(marked: Mapping[PlanPath, bool]) -> TreePlan:
    """Build a plan from a path -> is_inf mapping."""
    return TreePlan(
        frozenset(marked),
        frozenset(sigma for sigma, inf in marked.items() if inf),
    )


def strip_comments(text: str) -> str:
    """``text`` with every ``#`` comment cut off its line, the lines joined
    by newlines; the plan, tree and formula grammars all read it."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_plan(text: str) -> TreePlan:
    """Parse the parenthesized grammar ``node := "(" mark { node } ")"``.

    Marks are ``1`` or ``inf``; ``#`` starts a comment running to end of
    line.  Branch order follows textual order.  Error positions count in
    :func:`strip_comments` of ``text``.
    """
    return make_plan(_parse_plan_source(strip_comments(text)))


def _parse_plan_source(src: str) -> dict[PlanPath, bool]:
    # The plan grammar over comment-free text: path -> is_inf, in node
    # order, since a path is recorded before its children.
    marked: dict[PlanPath, bool] = {}
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(src) or src[pos] != ch:
            raise PlanSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def open_node(path: PlanPath):
        # ``"(" mark``: the node's children and ``")"`` follow.
        nonlocal pos
        expect("(")
        skip_ws()
        if src.startswith("inf", pos):
            mark_inf = True
            pos += 3
        elif pos < len(src) and src[pos] == "1":
            mark_inf = False
            pos += 1
        else:
            raise PlanSyntaxError("expected mark '1' or 'inf'", pos)
        if path == () and mark_inf:
            raise PlanSyntaxError("the root must carry mark 1", pos)
        marked[path] = mark_inf

    # The open nodes, innermost last, each with the branch index of its
    # next child.
    open_node(())
    stack: list[list] = [[(), 0]]
    while stack:
        skip_ws()
        if pos < len(src) and src[pos] == "(":
            top = stack[-1]
            path = top[0] + (top[1],)
            top[1] += 1
            open_node(path)
            stack.append([path, 0])
        else:
            expect(")")
            stack.pop()
    skip_ws()
    if pos != len(src):
        raise PlanSyntaxError("trailing input after plan", pos)
    return marked


def plan_text(p: TreePlan) -> str:
    # A plan node sorts after its prefixes, so children render first.
    texts: dict[PlanPath, str] = {}
    for sigma in reversed(p.sorted_nodes()):
        mark = "inf" if sigma in p.inf_nodes else "1"
        kids = "".join(" " + texts[tau] for tau in p.children(sigma))
        texts[sigma] = f"({mark}{kids})"
    return texts[()]


def height(p: TreePlan) -> int:
    """Length of the longest path in the plan."""
    return max(len(sigma) for sigma in p.nodes)


def ell(p: TreePlan) -> int:
    """One more than the largest number of mark-1 children at any node."""
    best = 0
    for sigma in p.nodes:
        ones = sum(1 for tau in p.children(sigma) if tau not in p.inf_nodes)
        best = max(best, ones)
    return 1 + best


def inf_count(p: TreePlan, sigma: PlanPath) -> int:
    """Number of inf-marked nodes on the path down to and including ``sigma``."""
    count = p._inf_counts.get(sigma)
    if count is None:
        raise DomainError(f"unknown plan node {sigma}")
    return count


def subplan(p: TreePlan, sigma: PlanPath) -> TreePlan:
    """The plan seen from ``sigma``: tails re-rooted, root mark reset to 1."""
    if sigma not in p.nodes:
        raise DomainError(f"unknown plan node {sigma}")
    marked: dict[PlanPath, bool] = {}
    k = len(sigma)
    for tau in p.nodes:
        if tau[:k] == sigma:
            tail = tau[k:]
            marked[tail] = tail != () and tau in p.inf_nodes
    return make_plan(marked)


def plan_canonical(p: TreePlan) -> str:
    """Mark-annotated sorted-children code; equal codes iff plans are isomorphic."""
    codes: dict[PlanPath, str] = {}
    for sigma in reversed(p.sorted_nodes()):
        mark = "i" if sigma in p.inf_nodes else "1"
        kids = sorted(codes[tau] for tau in p.children(sigma))
        codes[sigma] = "(" + mark + "".join(kids) + ")"
    return codes[()]


def plan_isomorphic(p: TreePlan, q: TreePlan) -> bool:
    """Root- and mark-preserving bijection respecting pred; branches may permute."""
    return plan_canonical(p) == plan_canonical(q)


def predicted_size(p: TreePlan, n: int) -> int:
    """Node count of the expansion at size ``n``, computed without building
    it: every plan node has ``n ** inf_count`` copies."""
    return sum(n**count for count in p._inf_counts.values())


def _within_budget(p: TreePlan, n: int, budget: int) -> int:
    # The expansion's node count, after the check that it fits the budget.
    size = predicted_size(p, n)
    if size > budget:
        raise BudgetError(f"expansion would have {size} nodes; budget is {budget}")
    return size


class Expansion:
    """The finite structure obtained from a plan at size ``n``.

    Membership is arithmetic on the plan: a node belongs exactly when its
    branch paths are plan nodes, its tags on replicated branches lie in
    ``range(n)`` and its tags on singleton branches are ``STAR``.  The tree
    of tagged paths is built in one walk on the first use of :attr:`tree`,
    :meth:`nodes`, :meth:`fiber` or ``len``; that build raises
    :class:`BudgetError` when :func:`predicted_size` exceeds the budget
    resolved by :func:`expand`.  The per-plan-node fibers are read off the
    tree on the first use of :meth:`fiber`.
    """

    __slots__ = ("plan", "n", "_budget", "_tree", "_fibers", "_sizes")

    def __init__(self, plan: TreePlan, n: int, budget: int):
        self.plan = plan
        self.n = n
        self._budget = budget
        self._tree: Optional[FiniteTree] = None
        self._fibers: Optional[dict[PlanPath, list[Node]]] = None
        self._sizes: Optional[dict[PlanPath, int]] = None

    @property
    def tree(self) -> FiniteTree:
        if self._tree is None:
            self._build()
        return self._tree

    def _build(self) -> None:
        # Every mark-1 plan child contributes one star-tagged copy per
        # parent; every inf child contributes ``n`` tagged copies.  A
        # preorder walk with children pushed in reverse visits the nodes in
        # node order, so the child map fills in order as it is, and the
        # tree takes the map without a sort or a check.  The copies of a
        # plan leaf are expansion leaves: they enter the map as one run,
        # all mapped to one shared empty tuple, and are never pushed one
        # by one.
        p, n = self.plan, self.n
        size = _within_budget(p, n, self._budget)
        # Per inner plan node, a step: the child segments in order, the
        # child sequences of the leading plan-leaf copies, and the later
        # runs of copies, one per plan child, last first: (slice, None) for
        # the copies of a plan leaf, (reversed slice, their steps) for the
        # copies of an inner plan node.  A plan leaf has no step.
        empty: tuple[Node, ...] = ()  # every leaf's child sequence
        steps: dict[PlanPath, Optional[tuple]] = {}
        plan_children, inf = p._children, p.inf_nodes
        for sigma in sorted(plan_children, key=len, reverse=True):
            taus = plan_children[sigma]
            if not taus:
                steps[sigma] = None
                continue
            segments: list[tuple[Segment, ...]] = []
            head: tuple[tuple[Node, ...], ...] = ()
            later = []
            for tau in taus:
                tags = range(n) if tau in inf else (STAR,)
                start = len(segments)
                segments += [((tau[-1], t),) for t in tags]
                step = steps[tau]
                if step is not None:
                    backwards = slice(len(segments) - 1, start - 1 if start else None, -1)
                    later.append((backwards, [step] * len(tags)))
                elif start == len(head):  # no inner copy yet
                    head = (empty,) * len(segments)
                else:
                    later.append((slice(start, len(segments)), None))
            steps[sigma] = (segments, head, later[::-1])
        children: dict[Node, Sequence[Node]] = {}
        leaves = repeat(empty)
        stack: list = [(ROOT, steps[()])] if steps[()] else [((ROOT,), None)]
        pop, push, push_one, update = stack.pop, stack.extend, stack.append, children.update
        while stack:
            v, step = pop()
            if step is None:  # a run of plan-leaf copies
                update(zip(v, leaves))
                continue
            segments, head, later = step
            kids = children[v] = [Node(v + seg) for seg in segments]
            if head:
                update(zip(kids, head))
            for cut, subs in later:
                if subs is None:
                    push_one((kids[cut], None))
                else:
                    push(zip(kids[cut], subs))
        if len(children) != size:
            raise AssertionError(f"the walk made {len(children)} nodes, not {size}")
        self._tree = FiniteTree._from_children(children)

    def _build_fibers(self) -> None:
        # A plan node's copies under one parent copy are one slice of that
        # parent's child list, at the same place under every parent, so
        # each fiber is its parent fiber's slices chained, in node order.
        n, plan_children, inf = self.n, self.plan._children, self.plan.inf_nodes
        kids_of = self.tree._children.__getitem__
        fibers: dict[PlanPath, list[Node]] = {(): [ROOT]}
        stack = [()]
        while stack:
            sigma = stack.pop()
            taus = plan_children[sigma]
            start = 0
            for tau in taus:
                stop = start + (n if tau in inf else 1)
                fibers[tau] = list(chain.from_iterable(
                    map(itemgetter(slice(start, stop)), map(kids_of, fibers[sigma]))
                ))
                start = stop
            stack += taus
        self._fibers = fibers

    def fiber(self, sigma: PlanPath) -> list[Node]:
        if sigma not in self.plan.nodes:
            raise DomainError(f"unknown plan node {sigma}")
        if self._fibers is None:
            self._build_fibers()
        return list(self._fibers[sigma])

    def nodes(self) -> list[Node]:
        return self.tree.sorted_nodes()

    def __contains__(self, node: object) -> bool:
        # Agrees with a lookup in the built tree's dict, so a plain tuple
        # spelling a node is in; anything else malformed is out.
        if not isinstance(node, tuple):
            return False
        nodes, inf, tags = self.plan.nodes, self.plan.inf_nodes, range(self.n)
        sigma: PlanPath = ()
        try:
            for seg in node:
                if not isinstance(seg, tuple) or len(seg) != 2:
                    return False
                branch, tag = seg
                sigma += (branch,)
                if sigma not in nodes:
                    return False
                if not (tag in tags if sigma in inf else tag == STAR):
                    return False
        except TypeError:  # an unhashable branch index
            return False
        return True

    def __len__(self) -> int:
        return len(self.tree)

    def require(self, *nodes: Node) -> None:
        """Raise :class:`DomainError` unless every argument is a :class:`Node`
        of the expansion; a plain tuple is refused, as by
        :meth:`FiniteTree.require <treeplan.trees.FiniteTree.require>`."""
        require_members(self, nodes)

    def node_at(self, i: int) -> Node:
        """``nodes()[i]`` for ``0 <= i < predicted_size(plan, n)``, without
        building the tree: the index is read in the mixed radix of the
        subtree sizes, one plan node per digit."""
        if self._sizes is None:
            p, n = self.plan, self.n
            sizes: dict[PlanPath, int] = {}
            for sigma in reversed(p.sorted_nodes()):
                sizes[sigma] = 1 + sum(
                    (n if tau in p.inf_nodes else 1) * sizes[tau] for tau in p.children(sigma)
                )
            self._sizes = sizes
        sizes = self._sizes
        if not 0 <= i < sizes[()]:
            raise DomainError(f"node index {i} is out of range 0..{sizes[()] - 1}")
        v, sigma = ROOT, ()
        while i:
            i -= 1  # past ``v`` itself, into the blocks of its children
            for tau in self.plan.children(sigma):
                inf = tau in self.plan.inf_nodes
                span = (self.n if inf else 1) * sizes[tau]
                if i < span:
                    tag, i = divmod(i, sizes[tau])
                    v, sigma = v.child(tau[-1], tag if inf else STAR), tau
                    break
                i -= span
        return v

    def mark_is_inf(self, node: Node) -> bool:
        return node.plan_path in self.plan.inf_nodes

    def __repr__(self) -> str:
        size = predicted_size(self.plan, self.n)
        return f"Expansion({plan_text(self.plan)!r}, n={self.n}, size={size})"


def expand(p: TreePlan, n: int, budget: Optional[int] = None) -> Expansion:
    """The expansion of ``p`` at size ``n``, as a membership view whose
    tree is built on first use (:class:`Expansion`).

    Rejects ``n < 1`` and a negative ``budget``.  The node budget
    (``budget``, else ``TREEPLAN_BUDGET``, else :data:`DEFAULT_NODE_BUDGET`)
    is resolved here and applies when the tree is built.
    """
    if n < 1:
        raise DomainError("expansion size must be at least 1")
    return Expansion(p, n, node_budget(budget))


def expansion_code(p: TreePlan, n: int) -> str:
    """``canonical(expand(p, n).tree).code``, computed on the plan without
    building the tree.

    Every copy of a plan node has the same subtree code, so a node's code
    joins each child's code once per copy, in sorted order.  The code
    spells every expansion node with two characters, so the node budget
    (``TREEPLAN_BUDGET`` or the default, as for :func:`expand`) applies as
    to a build.
    """
    if n < 1:
        raise DomainError("expansion size must be at least 1")
    _within_budget(p, n, node_budget())
    codes: dict[PlanPath, str] = {}
    for sigma in sorted(p.nodes, key=len, reverse=True):
        copies: dict[str, int] = {}
        for tau in p.children(sigma):
            code = codes[tau]
            copies[code] = copies.get(code, 0) + (n if tau in p.inf_nodes else 1)
        codes[sigma] = "(" + "".join(code * copies[code] for code in sorted(copies)) + ")"
    return codes[()]


def induced_automorphism(e: Expansion, perm: Mapping[int, int]) -> dict[Node, Node]:
    """Automorphism obtained by renaming every non-star tag through ``perm``."""
    if sorted(perm) != list(range(e.n)) or sorted(perm.values()) != list(range(e.n)):
        raise DomainError(f"perm must be a bijection on 0..{e.n - 1}")
    return {v: v.retag(perm.__getitem__) for v in e.nodes()}
