"""Tree plans and their finite expansions.

A tree plan is a finite prefix-closed set of branch-index paths with a
``1``/``inf`` mark on every node (the root is always ``1``).  Expanding a
plan at size ``n`` replaces every mark-``inf`` node by ``n`` tagged copies
per parent and every mark-``1`` node by a single star-tagged copy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import BudgetError, DomainError, PlanSyntaxError
from .trees import STAR, FiniteTree, Node, PlanPath, ROOT

DEFAULT_NODE_BUDGET = 2_000_000


def node_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("TREEPLAN_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise BudgetError(f"TREEPLAN_BUDGET is not an integer: {env!r}")
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
                if sigma[:-1] not in kids:
                    raise DomainError(f"plan is not prefix-closed at {sigma}")
                kids[sigma[:-1]].append(sigma)
        for sigma, below in kids.items():
            below.sort()
            if [tau[-1] for tau in below] != list(range(len(below))):
                raise DomainError(f"branch indices below {sigma} are not consecutive")
        object.__setattr__(
            self, "_children", {sigma: tuple(below) for sigma, below in kids.items()}
        )
        counts = {(): 0}
        for sigma in sorted(self.nodes, key=len)[1:]:
            counts[sigma] = counts[sigma[:-1]] + (sigma in self.inf_nodes)
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

    def parse_node(path: PlanPath):
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
        branch = 0
        while True:
            skip_ws()
            if pos < len(src) and src[pos] == "(":
                parse_node(path + (branch,))
                branch += 1
            else:
                break
        expect(")")

    parse_node(())
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


class Expansion:
    """The finite structure obtained from a plan at size ``n``.

    Carries the plan, the tree of tagged paths and per-plan-node fibers.
    """

    __slots__ = ("plan", "n", "tree", "_fibers")

    def __init__(self, plan: TreePlan, n: int, tree: FiniteTree, fibers: dict):
        self.plan = plan
        self.n = n
        self.tree = tree
        self._fibers = fibers

    def fiber(self, sigma: PlanPath) -> list[Node]:
        if sigma not in self.plan.nodes:
            raise DomainError(f"unknown plan node {sigma}")
        return list(self._fibers[sigma])

    def nodes(self) -> list[Node]:
        return self.tree.sorted_nodes()

    def __contains__(self, node: Node) -> bool:
        return node in self.tree

    def __len__(self) -> int:
        return len(self.tree)

    def mark_is_inf(self, node: Node) -> bool:
        return node.plan_path in self.plan.inf_nodes

    def __repr__(self) -> str:
        return f"Expansion({plan_text(self.plan)!r}, n={self.n}, size={len(self)})"


def expand(p: TreePlan, n: int, budget: Optional[int] = None) -> Expansion:
    """Materialize the expansion of ``p`` at size ``n``: one walk fills its tree and fibers.

    Every mark-1 plan child contributes one star-tagged copy per parent;
    every inf child contributes ``n`` tagged copies.  Rejects ``n < 1`` and
    anything above the node budget.
    """
    if n < 1:
        raise DomainError("expansion size must be at least 1")
    limit = node_budget(budget)
    size = predicted_size(p, n)
    if size > limit:
        raise BudgetError(f"expansion would have {size} nodes; budget is {limit}")

    nodes: list[Node] = []
    fibers: dict[PlanPath, list[Node]] = {sigma: [] for sigma in p.nodes}

    def grow(node: Node, sigma: PlanPath):
        nodes.append(node)
        fibers[sigma].append(node)
        for tau in p.children(sigma):
            branch = tau[-1]
            if tau in p.inf_nodes:
                for t in range(n):
                    grow(node.child(branch, t), tau)
            else:
                grow(node.child(branch, STAR), tau)

    grow(ROOT, ())
    return Expansion(p, n, FiniteTree(nodes), fibers)


def induced_automorphism(e: Expansion, perm: Mapping[int, int]) -> dict[Node, Node]:
    """Automorphism obtained by renaming every non-star tag through ``perm``."""
    if sorted(perm) != list(range(e.n)) or sorted(perm.values()) != list(range(e.n)):
        raise DomainError(f"perm must be a bijection on 0..{e.n - 1}")
    return {v: v.retag(perm.__getitem__) for v in e.nodes()}
