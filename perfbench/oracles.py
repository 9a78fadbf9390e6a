"""Expected answers computed without the code under test, where that is
practical, and the criterion-8 brute force where it is not.

A plan is handled here as a dict from branch-index path to its ``inf``
flag, read straight from the plan text by a parser of this module's own.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\(|\)|inf|1")


def plan_marks(text: str) -> dict[tuple[int, ...], bool]:
    """Path -> is_inf for a plan written as ``(1 (inf ...) ...)``."""
    marks: dict[tuple[int, ...], bool] = {}
    stack: list[list] = []  # [path, next branch index]
    expect_mark = False
    for tok in _TOKEN.findall(text):
        if tok == "(":
            if stack:
                parent = stack[-1]
                path = parent[0] + (parent[1],)
                parent[1] += 1
            else:
                path = ()
            stack.append([path, 0])
            expect_mark = True
        elif tok == ")":
            stack.pop()
        elif expect_mark:
            marks[stack[-1][0]] = tok == "inf"
            expect_mark = False
    return marks


def inf_depth(marks, path) -> int:
    return sum(1 for i in range(1, len(path) + 1) if marks[path[:i]])


def fiber_size(marks, path, n: int) -> int:
    return n ** inf_depth(marks, path)


def expansion_size(marks, n: int) -> int:
    """Node count at size ``n``: the sum of all fiber sizes."""
    return sum(fiber_size(marks, path, n) for path in marks)


def largest_size(marks, limit: int) -> int:
    """Largest ``n`` whose expansion has at most ``limit`` nodes (at least 1)."""
    lo, hi = 1, 2
    while expansion_size(marks, hi) <= limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if expansion_size(marks, mid) <= limit else (lo, mid)
    return lo


def degree(marks) -> int:
    return max(inf_depth(marks, path) for path in marks)


def verify_q_rows(marks, n_max: int) -> int:
    """Rows of an exact fiber check: one per plan node and size, plus one
    per prefix pair and witness in the lower fiber."""
    pairs = [(s, t) for s in marks for t in marks if t[: len(s)] == s]
    return sum(
        len(marks) + sum(fiber_size(marks, s, n) for s, _ in pairs)
        for n in range(1, n_max + 1)
    )


def canonical(marks) -> str:
    """Mark-annotated sorted-children code; equal iff the plans are isomorphic."""

    def code(path):
        kids = sorted(
            code(t) for t in marks if len(t) == len(path) + 1 and t[:-1] == path
        )
        return "(" + ("i" if marks[path] else "1") + "".join(kids) + ")"

    return code(())


def marks_of_treeplan(p) -> dict[tuple[int, ...], bool]:
    return {path: path in p.inf_nodes for path in p.nodes}


def sample_text(marks, n: int) -> str:
    """The expansion at size ``n`` as a plain tree in the paren grammar."""

    def render(path):
        kids = [t for t in sorted(marks) if len(t) == len(path) + 1 and t[:-1] == path]
        parts = []
        for t in kids:
            parts.extend([render(t)] * (n if marks[t] else 1))
        return "(1" + "".join(" " + part for part in parts) + ")"

    return render(())


def node_texts(marks, n: int) -> list[str]:
    """Every node of the expansion at size ``n``, in the ``branch:tag`` syntax."""
    out = []

    def grow(path, segs):
        out.append("/".join(segs) if segs else "eps")
        for t in sorted(marks):
            if len(t) == len(path) + 1 and t[:-1] == path:
                tags = [str(i) for i in range(n)] if marks[t] else ["*"]
                for tag in tags:
                    grow(t, segs + [f"{t[-1]}:{tag}"])

    grow((), [])
    return out


def dividing_brute_force(tp, e, a, set_b, set_c) -> bool:
    """Criterion 8 by orbits: the type of ``a`` over B divides over C iff ``a``
    moves over C and some replicated node below ``a`` and below B has a
    conjugate family over C whose instance sets are pairwise disjoint."""
    if len(tp.orbit(e, a, set_c)) < 2:
        return False
    for i in range(1, a.depth + 1):
        cand = a.prefix(i)
        if not e.mark_is_inf(cand):
            continue
        if not any(cand.is_prefix_of(b) for b in set_b):
            continue
        family = sorted(tp.orbit(e, cand, set_c))
        if len(family) < 2:
            continue
        k = a.depth - cand.depth
        sets = [tp.analysis.instance_solutions(e, w, k) for w in family]
        if all(
            not (sets[x] & sets[y])
            for x in range(len(sets))
            for y in range(x + 1, len(sets))
        ):
            return True
    return False
