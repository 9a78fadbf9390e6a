"""Embedding extension, automorphism construction, amalgamation, plan
inference from finite samples, and the dividing criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .closure import (
    NodeSet,
    PickFrame,
    _orbit_in,
    anchor_in,
    embed_pairs,
    extend_least,
    orbit_key,
    tcl,
)
from .errors import CapacityError, DomainError, InferenceError
from .plan import (
    Expansion,
    TreePlan,
    _parse_plan_source,
    expand,
    expansion_code,
    make_plan,
    strip_comments,
)
from .trees import (
    FiniteTree,
    Node,
    PlanPath,
    ROOT,
    STAR,
    format_node,
    subtree_codes,
)

# --------------------------------------------------------------------------
# Embeddings between expansions


def check_embedding(src: Expansion, dst: Expansion, f: dict[Node, Node]) -> None:
    """Raise unless ``f`` is a total label-preserving embedding of ``src``."""
    if src.plan != dst.plan:
        raise DomainError("expansions come from different plans")
    if set(f.keys()) != set(src.tree.nodes):
        raise DomainError("map is not total on the source")
    _check_partial_embedding(dst, f)


def _check_partial_embedding(dst: Expansion, f: dict[Node, Node]) -> None:
    values = set(f.values())
    if len(values) != len(f):
        raise DomainError("map is not injective")
    if f.get(ROOT) != ROOT:
        raise DomainError("map must fix the root")
    for a, b in f.items():
        if b not in dst:
            raise DomainError(f"image {b} is outside the target")
        if a.plan_path != b.plan_path:
            raise DomainError(f"map breaks labels at {a}")
        if a.depth:
            pa = a.parent()
            if pa in f and f[pa] != b.parent():
                raise DomainError(f"map breaks pred at {a}")


def extend_embedding(
    src: Expansion,
    closed: NodeSet,
    f: dict[Node, Node],
    dst: Expansion,
    c: Node,
) -> dict[Node, Node]:
    """Extend an embedding of a tree-closed set by one node above it.

    For a singleton-branch node nothing changes (it is already in the
    closure).  Otherwise the node maps by one
    :func:`~treeplan.closure.extend_least` step: to the least fresh sibling
    under the image of its predecessor, with the closure above it.  Raises
    CapacityError when every sibling is taken.
    """
    src.require(c)
    if frozenset(f.keys()) != closed:
        raise DomainError("map domain must equal the closed set")
    if tcl(src, closed) != closed:
        raise DomainError("base set is not tree-closed")
    if c.parent() not in closed:
        raise DomainError("predecessor of the new node must be in the base")
    _check_partial_embedding(dst, f)
    out = dict(f)
    for d, branch in extend_least(dst, out, set(f.values()), [c]):  # a forced step
        raise CapacityError(f"no fresh sibling under {format_node(d)} for branch {branch}")
    return out


def extend_to_automorphism(e: Expansion, f: dict[Node, Node]) -> dict[Node, Node]:
    """Grow a tree-closed partial embedding of ``e`` into itself until total.

    Each unmapped node, in node order, goes to the least fresh sibling
    under the image of its predecessor, as :func:`extend_embedding` would
    map it, and the closure above it follows, in one
    :func:`~treeplan.closure.extend_least` call.  Always succeeds: fibers on
    both sides have equal size, so a fresh sibling exists at every step; a
    total injection of a finite structure into itself is onto.
    """
    if tcl(e, f) != frozenset(f):
        raise DomainError("base set is not tree-closed")
    _check_partial_embedding(e, f)
    out = dict(f)
    extend_least(e, out, set(out.values()), e.nodes())
    return out


def rearrange(em: Expansion, en: Expansion, h: dict[Node, Node]) -> dict[Node, Node]:
    """Automorphism ``g`` of the larger expansion with ``g`` after ``h`` the
    identity on the smaller one.

    Also checks that ``h`` preserves projections, which every structure
    embedding here must.
    """
    if em.plan != en.plan:
        raise DomainError("expansions come from different plans")
    if em.n > en.n:
        raise DomainError("source must not be larger than target")
    check_embedding(em, en, h)
    seed = {h[a]: a for a in em.nodes()}
    g = extend_to_automorphism(en, seed)
    for a in em.nodes():
        if g[h[a]] != a:
            raise DomainError("rearrangement failed to invert the embedding")
    return g


def inclusion_embedding(em: Expansion, en: Expansion) -> dict[Node, Node]:
    """The natural embedding of a smaller expansion into a larger one."""
    if em.plan != en.plan or em.n > en.n:
        raise DomainError("no natural inclusion")
    return {v: v for v in em.nodes()}


def automorphism_over(
    e: Expansion, tup_a: tuple[Node, ...], tup_b: tuple[Node, ...]
) -> Optional[dict[Node, Node]]:
    """An automorphism of ``e`` carrying one tuple to the other entrywise,
    when their labeled quantifier-free types agree; None otherwise.

    Equal orbit keys give a label-preserving bijection of the downsets,
    which the closure embedding of the pairs extends."""
    e.require(*tup_a, *tup_b)
    if orbit_key(tup_a) != orbit_key(tup_b):
        return None
    f, _ = embed_pairs(e.plan, zip(tup_a, tup_b))
    return extend_to_automorphism(e, f)


# --------------------------------------------------------------------------
# Disjoint amalgamation


@dataclass(frozen=True)
class Amalgam:
    base: Expansion
    left: Expansion
    right: Expansion
    target: Expansion
    j1: dict[Node, Node]
    j2: dict[Node, Node]

    def images_agree_on_base(self, f1: dict[Node, Node], f2: dict[Node, Node]) -> bool:
        return all(self.j1[f1[a]] == self.j2[f2[a]] for a in self.base.nodes())

    def disjointness(self, f1: dict[Node, Node], f2: dict[Node, Node]) -> bool:
        common = set(self.j1.values()) & set(self.j2.values())
        base_image = {self.j1[f1[a]] for a in self.base.nodes()}
        return common == base_image


def amalgamate(
    base: Expansion,
    left: Expansion,
    right: Expansion,
    f1: dict[Node, Node],
    f2: dict[Node, Node],
) -> Amalgam:
    """Disjoint amalgam of two expansions over a common base.

    The target is the expansion at the sum of the two sizes; the left copy
    embeds by inclusion after rearranging, the right copy by the piecewise
    tag shift that fixes the base tags and moves the rest past the left
    block.  The images intersect exactly in the image of the base.
    """
    if not (base.plan == left.plan == right.plan):
        raise DomainError("amalgamation needs expansions of one plan")
    check_embedding(base, left, f1)
    check_embedding(base, right, f2)
    g1 = rearrange(base, left, f1)
    g2 = rearrange(base, right, f2)
    n0, n1, n2 = base.n, left.n, right.n
    target = expand(base.plan, n1 + n2)

    def shift(t: int) -> int:
        return t if t < n0 else t + n1

    j1 = {a: g1[a] for a in left.nodes()}
    j2 = {a: g2[a].retag(shift) for a in right.nodes()}
    return Amalgam(base, left, right, target, j1, j2)


# --------------------------------------------------------------------------
# Plan inference from finite samples


# A sample: its tree, every node's subtree code, the child classes so far.
_Sample = tuple[FiniteTree, dict[Node, str], dict[Node, list[tuple[str, int, Node]]]]

# A plan above a node, as its child classes: (parts of the class's plan,
# replicated copies, singleton copies) per class, in branch order.
_Parts = list[tuple["_Parts", int, int]]


def _children_classes(s: _Sample, v: Node) -> list[tuple[str, int, Node]]:
    # The children of ``v`` grouped by subtree code: (code, count, least
    # child).  Grouped once per sample, since they do not depend on n.
    tree, codes, grouped = s
    if v not in grouped:
        groups: dict[str, list[Node]] = {}
        for c in tree.children(v):
            groups.setdefault(codes[c], []).append(c)
        grouped[v] = sorted((code, len(kids), kids[0]) for code, kids in groups.items())
    return grouped[v]


def _assemble(parts: _Parts) -> TreePlan:
    # Each class's replicated copies take the next branches, then its
    # singleton copies; every copy carries the class's plan above it.
    marked: dict[PlanPath, bool] = {(): False}
    stack = [((), parts)]
    while stack:
        sigma, below = stack.pop()
        branch = 0
        for sub, inf_copies, one_copies in below:
            for is_inf, copies in ((True, inf_copies), (False, one_copies)):
                for _ in range(copies):
                    tau = sigma + (branch,)
                    marked[tau] = is_inf
                    stack.append((tau, sub))
                    branch += 1
    return make_plan(marked)


_NO_MATCHING = "no consistent class matching"


def _infer_known(s1: _Sample, v1: Node, s2: _Sample, v2: Node, n: int) -> _Parts:
    """The parts of the plan above ``v1`` and ``v2``, presumed expanded at
    ``n`` and ``n + 1``.

    On success every matched class of k replicated and m singleton copies
    has k*n + m children of its code at ``v1`` and k*(n + 1) + m at
    ``v2``, so by induction the assembled plan expands to the subtree at
    ``v1`` at ``n`` and to the subtree at ``v2`` at ``n + 1``.  Nothing is
    expanded here; :func:`infer_plan` checks the whole plan once.
    """
    classes1 = _children_classes(s1, v1)
    classes2 = _children_classes(s2, v2)
    if not classes1 and classes2:
        raise InferenceError("samples disagree at a leaf")
    if len(classes1) != len(classes2):
        raise InferenceError(
            "child classes do not correspond one-to-one",
            offending=[c for c, _, _ in classes1] + [c for c, _, _ in classes2],
        )

    edges: dict[tuple[int, int], tuple[_Parts, int, int]] = {}
    for i, (_, c1, rep1) in enumerate(classes1):
        for j, (_, c2, rep2) in enumerate(classes2):
            k = c2 - c1
            m = c1 - k * n
            if k < 0 or m < 0:
                continue
            try:
                edges[(i, j)] = (_infer_known(s1, rep1, s2, rep2, n), k, m)
            except InferenceError:
                pass

    assignment: list[Optional[int]] = [None] * len(classes1)
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
            _NO_MATCHING,
            offending=[code for code, _, _ in classes1],
        )
    return [edges[(i, assignment[i])] for i in range(len(classes1))]


def infer_plan(t1: FiniteTree, t2: FiniteTree) -> TreePlan:
    """Reconstruct a plan from samples presumed built at consecutive sizes.

    A node's children fall into classes by subtree code, computed once per
    sample, and grouped once per node.  Per matched child class the count
    difference gives the number of replicated children and the remainder
    the number of singletons.  The size parameter is searched from large to
    small (replication is preferred over coincidence), from the largest
    size the root's class counts allow: a class of c1 children at n pairs
    with one of c2 at n + 1 only if k = c2 - c1 >= 0 and c1 - k*n >= 0, so
    at any larger size some root class has no partner, and the size fails
    with no consistent class matching, untried.  The plan of a matched
    class expands to that class's subtrees at both sizes by construction,
    so no edge is re-expanded; the assembled plan is checked
    against both samples once, as a whole, on the plan, building no
    expansion (:func:`~treeplan.plan.expansion_code`), before it is
    returned.  On failure, the error lists each run of consecutive sizes
    that failed for one reason once, as ``n=hi..lo: reason``.
    """
    codes1, codes2 = subtree_codes(t1), subtree_codes(t2)
    shape1, shape2 = codes1[ROOT], codes2[ROOT]
    s1, s2 = (t1, codes1, {}), (t2, codes2, {})
    # Runs of consecutive sizes that failed for one reason:
    # [largest n, smallest n, reason].
    errors: list[list] = []

    def fail(n: int, reason: str) -> None:
        if errors and errors[-1][2] == reason:
            errors[-1][1] = n
        else:
            errors.append([n, n, reason])

    # Per root class, the largest n any partner allows (k = 0: every n).
    start = len(t1)
    classes1, classes2 = _children_classes(s1, ROOT), _children_classes(s2, ROOT)
    if len(classes1) == len(classes2):
        for _, c1, _ in classes1:
            ks = [c2 - c1 for _, c2, _ in classes2 if c2 >= c1]
            if 0 not in ks:
                start = min(start, max((c1 // k for k in ks), default=0))
    if start < len(t1):
        errors.append([len(t1), start + 1, _NO_MATCHING])
    for n in range(start, 0, -1):
        try:
            p = _assemble(_infer_known(s1, ROOT, s2, ROOT, n))
        except InferenceError as err:
            fail(n, str(err))
            continue
        if expansion_code(p, n) == shape1 and expansion_code(p, n + 1) == shape2:
            return p
        fail(n, "reconstruction does not reproduce the samples")
    raise InferenceError(
        "samples admit no consistent plan",
        offending=[
            f"n={hi}: {reason}" if hi == lo else f"n={hi}..{lo}: {reason}"
            for hi, lo, reason in errors
        ],
    )


def infer_plan_threshold(t: FiniteTree, threshold: int) -> TreePlan:
    """Single-sample heuristic: a child class repeated more than
    ``threshold`` times reads as one replicated child, otherwise as that
    many singletons.  Under-threshold replication is misread by design.
    """
    if threshold < 1:
        raise DomainError("threshold must be at least 1")
    sample = (t, subtree_codes(t), {})

    def infer(v: Node) -> _Parts:
        parts = []
        for _code, count, rep in _children_classes(sample, v):
            sub = infer(rep)
            parts.append((sub, 1, 0) if count > threshold else (sub, 0, count))
        return parts

    return _assemble(infer(ROOT))


# --------------------------------------------------------------------------
# The dividing criterion


@dataclass(frozen=True)
class DividingVerdict:
    divides: bool
    witness: Optional[Node] = None
    conjugates: Optional[frozenset[Node]] = None
    two_inconsistent: Optional[bool] = None


def instance_solutions(e: Expansion, witness: Node, k: int) -> frozenset[Node]:
    """Solutions of "the k-fold predecessor of x is the witness": the tests
    and the benchmark check conjugate families against these scans."""
    e.require(witness)
    depth = witness.depth + k
    return frozenset(
        x for x in e.nodes() if x.depth == depth and witness.is_prefix_of(x)
    )


def check_dividing(
    e: Expansion,
    a: Node,
    members_b: Iterable[Node],
    members_c: Iterable[Node],
) -> DividingVerdict:
    """Decide whether the type of ``a`` over B divides over C.

    It does exactly when ``a`` is outside the closure of C and some
    replicated node of the closure of B, itself outside the closure of C
    and with a conjugate over C other than itself, sits on the path
    between the C-anchor of ``a`` (exclusive) and ``a`` (inclusive).  The
    witness comes with its conjugate family over C: one orbit, so one
    depth, and their instance sets are pairwise disjoint by construction.
    """
    set_b = frozenset(members_b)
    set_c = frozenset(members_c)
    if not set_c <= set_b:
        raise DomainError("C must be contained in B")
    e.require(a, *set_b)
    closed_c = PickFrame(e, set_c, check=False).closed
    closed_b = PickFrame(e, set_b, check=False).closed
    # No prefix lies above the C-anchor of a member of the closure of C.
    for i in range(len(anchor_in(closed_c, a)) + 1, a.depth + 1):
        witness = a.prefix(i)
        if witness in closed_b and e.mark_is_inf(witness):
            family = _orbit_in(e, closed_c, witness)
            if len(family) >= 2:
                break
    else:
        return DividingVerdict(False)
    return DividingVerdict(True, witness, family, True)


# --------------------------------------------------------------------------
# Plain-tree input formats for inference


def parse_tree_text(text: str) -> FiniteTree:
    """Parse either the plan grammar or a node-per-line parent-index list.

    Marks in the plan grammar are checked, then ignored: every node becomes
    a star-tagged node on its branch path.
    """
    cleaned = strip_comments(text).strip()
    if not cleaned:
        raise DomainError("empty tree input")
    if cleaned.startswith("("):
        # A path is parsed before its children: one step per plan node.
        nodes: dict[PlanPath, Node] = {}
        for sigma in _parse_plan_source(cleaned):
            nodes[sigma] = nodes[sigma[:-1]].child(sigma[-1], STAR) if sigma else ROOT
        return FiniteTree(nodes.values())
    return _parse_parent_list(cleaned)


def _parse_parent_list(src: str) -> FiniteTree:
    parents: list[int] = []
    for raw in src.split():
        try:
            parents.append(int(raw))
        except ValueError:
            raise DomainError(f"bad parent index {raw!r}")
    if not parents or parents[0] != -1:
        raise DomainError("the first entry must be -1 (the root)")
    paths: list[Node] = [ROOT]
    child_counts = [0] * len(parents)
    for i, parent in enumerate(parents[1:], start=1):
        if not 0 <= parent < i:
            raise DomainError(f"node {i} must name an earlier parent")
        paths.append(paths[parent].child(child_counts[parent], STAR))
        child_counts[parent] += 1
    return FiniteTree(paths)
