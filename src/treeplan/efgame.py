"""k-round back-and-forth games between two expansions of one plan.

The duplicator strategy maintains a partial embedding of the tree closure
of its picks: answers inside the closure are read off the embedding, and
fresh picks are answered by a fresh realization of the same
quantifier-free type over the anchor, lexicographically least for
determinism.  The exhaustive spoiler is a memoized minimax search over
move orbits, one least representative per orbit over the picks so far,
read off their tree closure (:func:`~treeplan.closure.orbit_reps`) at a
cost independent of the expansion size; past its position budget it
degrades to a seeded random player and says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .closure import orbit_reps, tuple_code
from .errors import BudgetError, DomainError
from .plan import Expansion, plan_canonical
from .trees import Node, ROOT, STAR, format_node, meet_nodes


@dataclass(frozen=True)
class GameState:
    left: Expansion
    right: Expansion
    picks_left: tuple[Node, ...] = ()
    picks_right: tuple[Node, ...] = ()
    rounds_left: int = 0


def partial_isomorphism(
    picks_left: tuple[Node, ...], picks_right: tuple[Node, ...]
) -> bool:
    """Does the pick correspondence (extended by root |-> root) preserve
    equality, the order, pred- and meet-relations, and plan labels?

    Each side maps a node to the index of its first pick (the root is
    index 0).  Once both sides agree on those indices, a meet equals the
    same picks on both sides exactly when it has the same first index, so
    every pair of picks is checked once.
    """
    pairs = [(ROOT, ROOT)] + list(zip(picks_left, picks_right))
    where_l: dict[Node, int] = {}
    where_r: dict[Node, int] = {}
    for i, (a, b) in enumerate(pairs):
        if a.plan_path != b.plan_path:
            return False
        where_l.setdefault(a, i)
        where_r.setdefault(b, i)
    for a, b in pairs:
        if where_l[a] != where_r[b]:
            return False
    for a, b in pairs:
        pa, pb = a.parent(), b.parent()
        for a2, b2 in pairs:
            if a.is_prefix_of(a2) != b.is_prefix_of(b2):
                return False
            if (pa == a2) != (pb == b2):
                return False
            if where_l.get(meet_nodes(a, a2)) != where_r.get(meet_nodes(b, b2)):
                return False
    return True


def game_won(state: GameState) -> bool:
    """Final win test for the duplicator; only meaningful with no rounds left."""
    if state.rounds_left != 0:
        raise DomainError("the game is not over yet")
    return partial_isomorphism(state.picks_left, state.picks_right)


# --------------------------------------------------------------------------
# The duplicator


def _one_close(e: Expansion, f: dict[Node, Node], img: set[Node], u: Node, v: Node):
    # Pull every singleton-branch child of a mapped node into the embedding.
    stack = [(u, v)]
    while stack:
        cu, cv = stack.pop()
        for tau in e.plan.children(cu.plan_path):
            if tau in e.plan.inf_nodes:
                continue
            nu, nv = cu.child(tau[-1], STAR), cv.child(tau[-1], STAR)
            if nu not in f:
                f[nu] = nv
                img.add(nv)
                stack.append((nu, nv))


def _add_pair(e: Expansion, f: dict[Node, Node], img: set[Node], u: Node, v: Node):
    f[u] = v
    img.add(v)
    _one_close(e, f, img, u, v)


def _deepest_mapped(f: dict[Node, Node], a: Node) -> Node:
    for i in range(a.depth, -1, -1):
        if a.prefix(i) in f:
            return a.prefix(i)
    raise DomainError("embedding does not contain the root")


def _rebuild_embedding(state: GameState) -> tuple[dict[Node, Node], set[Node], bool]:
    """Replay the pick pairs into the maintained closure embedding.

    Returns (map, image, still_sound): the flag drops when the transcript
    is not consistent with any embedding, e.g. after a forced bad pick.
    """
    f: dict[Node, Node] = {}
    img: set[Node] = set()
    _add_pair(state.left, f, img, ROOT, ROOT)
    sound = True
    for a, b in zip(state.picks_left, state.picks_right):
        if a in f:
            sound = sound and f[a] == b
            continue
        if b in img:
            sound = False
            continue
        pa = _deepest_mapped(f, a)
        pb = f[pa]
        k = a.depth - pa.depth
        if b.depth - pb.depth != k or not pb.is_prefix_of(b):
            sound = False
            continue
        ok = True
        for d in range(1, k + 1):
            u, v = a.prefix(pa.depth + d), b.prefix(pb.depth + d)
            if u in f:
                # Pulled in by the singleton closure of an earlier step.
                if f[u] != v:
                    ok = False
                    break
                continue
            if u.plan_path != v.plan_path or v in img:
                ok = False
                break
            _add_pair(state.left, f, img, u, v)
        sound = sound and ok
    return f, img, sound


class ClosureDuplicator:
    """The closure-embedding duplicator."""

    def __init__(self):
        self.notes: list[str] = []

    def respond(self, state: GameState, side: str, node: Node) -> Node:
        f, img, _sound = _rebuild_embedding(state)
        if side == "L":
            return self._answer(state.right, f, img, node)
        inverse = {v: u for u, v in f.items()}
        return self._answer(state.left, inverse, set(f.keys()), node)

    def _answer(
        self,
        dst: Expansion,
        f: dict[Node, Node],
        img: set[Node],
        node: Node,
    ) -> Node:
        if node in f:
            return f[node]
        pa = _deepest_mapped(f, node)
        v = f[pa]
        used = set(img)
        for d in range(pa.depth + 1, node.depth + 1):
            branch, _tag = node.segs[d - 1]
            tau = node.prefix(d).plan_path
            if tau not in dst.plan.inf_nodes:
                v = v.child(branch, STAR)
                used.add(v)
                continue
            fresh = None
            for t in range(dst.n):
                cand = v.child(branch, t)
                if cand not in used:
                    fresh = cand
                    break
            if fresh is None:
                # Capacity exhausted below the threshold; forced into a
                # (likely losing) repeat, reported rather than masked.
                self.notes.append(
                    f"capacity exhausted at {format_node(v)} branch {branch}"
                )
                fresh = v.child(branch, 0)
            v = fresh
            used.add(v)
        return v


# --------------------------------------------------------------------------
# Spoilers


class _Search:
    """Memoized minimax over pick-orbit representatives."""

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def spoiler_wins(self, state: GameState) -> bool:
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")
        if not partial_isomorphism(state.picks_left, state.picks_right):
            return True
        if state.rounds_left == 0:
            return False
        key = (
            state.left.n,
            state.right.n,
            tuple_code(state.left, state.picks_left),
            tuple_code(state.right, state.picks_right),
            state.rounds_left,
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = False
        for side in ("L", "R"):
            for move in self.candidate_moves(state, side):
                if self.move_wins(state, side, move):
                    result = True
                    break
            if result:
                break
        self.memo[key] = result
        return result

    def candidate_moves(self, state: GameState, side: str) -> list[Node]:
        e = state.left if side == "L" else state.right
        picks = state.picks_left if side == "L" else state.picks_right
        return orbit_reps(e, picks)

    def move_wins(self, state: GameState, side: str, move: Node) -> bool:
        other = state.right if side == "L" else state.left
        their_picks = state.picks_right if side == "L" else state.picks_left
        for reply in orbit_reps(other, their_picks):
            if side == "L":
                child = replace(
                    state,
                    picks_left=state.picks_left + (move,),
                    picks_right=state.picks_right + (reply,),
                    rounds_left=state.rounds_left - 1,
                )
            else:
                child = replace(
                    state,
                    picks_left=state.picks_left + (reply,),
                    picks_right=state.picks_right + (move,),
                    rounds_left=state.rounds_left - 1,
                )
            if not self.spoiler_wins(child):
                return False
        return True


class ExhaustiveSpoiler:
    """Optimal spoiler by minimax; falls back to seeded random over budget.

    ``budget`` bounds the minimax positions visited for one pick: the count
    restarts at every pick, while the memo of solved positions is kept
    across picks.
    """

    def __init__(self, budget: int = 100_000, seed: int = 0):
        self.budget = budget
        self.seed = seed
        self.notes: list[str] = []
        self._search: Optional[_Search] = None
        self._search_plan: Optional[str] = None

    def _searcher(self, state: GameState) -> _Search:
        key = plan_canonical(state.left.plan)
        if self._search is None or self._search_plan != key:
            self._search = _Search(self.budget)
            self._search_plan = key
        self._search.visited = 0
        return self._search

    def pick(self, state: GameState) -> tuple[str, Node]:
        search = self._searcher(state)
        try:
            for side in ("L", "R"):
                for move in search.candidate_moves(state, side):
                    if search.move_wins(state, side, move):
                        return (side, move)
            return ("L", search.candidate_moves(state, "L")[0])
        except BudgetError:
            self.notes.append(
                f"budget {self.budget} exceeded; random fallback with seed {self.seed}"
            )
            return RandomSpoiler(self.seed + len(state.picks_left)).pick(state)


class RandomSpoiler:
    """Uniform random picks from a fixed seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.notes: list[str] = []

    def pick(self, state: GameState) -> tuple[str, Node]:
        rng = random.Random(self.seed * 1_000_003 + len(state.picks_left))
        side = rng.choice(("L", "R"))
        e = state.left if side == "L" else state.right
        return (side, rng.choice(e.nodes()))


def game_value(
    left: Expansion, right: Expansion, k: int, budget: int = 100_000
) -> str:
    """Theoretical winner under optimal play: "S" or "D"."""
    search = _Search(budget)
    state = GameState(left, right, (), (), k)
    return "S" if search.spoiler_wins(state) else "D"


# --------------------------------------------------------------------------
# Playing games


@dataclass(frozen=True)
class Outcome:
    winner: str
    transcript: str
    illegal: Optional[str] = None

    @property
    def duplicator_won(self) -> bool:
        return self.winner == "D"


def play(left: Expansion, right: Expansion, k: int, spoiler, duplicator) -> Outcome:
    """Alternate spoiler picks and duplicator answers for ``k`` rounds.

    An illegal move loses immediately for its side and is flagged in the
    transcript.  Strategy notes are embedded as ``#`` comment lines.
    """
    if k < 0:
        raise DomainError("round count must be non-negative")
    state = GameState(left, right, (), (), k)
    lines: list[str] = []
    illegal = None
    winner = None
    for r in range(1, k + 1):
        side, node = spoiler.pick(state)
        board = left if side == "L" else right
        if side not in ("L", "R") or node not in board:
            illegal = f"spoiler played {format_node(node)} off the board"
            winner = "D"
            break
        lines.append(f"{r};{side};{format_node(node)}")
        answer = duplicator.respond(state, side, node)
        other = right if side == "L" else left
        answer_side = "R" if side == "L" else "L"
        if answer not in other:
            illegal = f"duplicator played {format_node(answer)} off the board"
            winner = "S"
            lines.append(f"{r};{answer_side};<illegal {format_node(answer)}>")
            break
        lines.append(f"{r};{answer_side};{format_node(answer)}")
        if side == "L":
            state = replace(
                state,
                picks_left=state.picks_left + (node,),
                picks_right=state.picks_right + (answer,),
                rounds_left=state.rounds_left - 1,
            )
        else:
            state = replace(
                state,
                picks_left=state.picks_left + (answer,),
                picks_right=state.picks_right + (node,),
                rounds_left=state.rounds_left - 1,
            )
    if winner is None:
        winner = "D" if game_won(state) else "S"
    for agent in (spoiler, duplicator):
        for note in getattr(agent, "notes", []):
            lines.append(f"# {note}")
        if hasattr(agent, "notes"):
            agent.notes = []
    if illegal:
        lines.append(f"# illegal: {illegal}")
    lines.append(f"winner={winner}")
    return Outcome(winner, "\n".join(lines) + "\n", illegal)
