"""k-round back-and-forth games between two expansions of one plan.

The duplicator strategy maintains a partial embedding of the tree closure
of its picks, replayed from the pick pairs by
:func:`~treeplan.closure.embed_pairs`: answers inside the closure are read
off the embedding, and fresh picks are answered by a fresh realization of
the same quantifier-free type over the anchor, lexicographically least for
determinism.  The exhaustive spoiler is a memoized minimax search over
move orbits, one least representative per orbit over the picks so far,
read off their tree closure (:func:`~treeplan.closure.orbit_reps`) at a
cost independent of the expansion size, and memoized by the orbits of the
picks (:func:`~treeplan.closure.orbit_key`); past its position budget it
degrades to a seeded random player and says so.  A restriction of a
partial isomorphism is one, and the search only moves on from positions
that passed the check, so each position it reaches checks only its newest
pick pair, in time linear in the number of picks; the full check runs once
per search entry and at the end of a played game.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .closure import anchor_in, close_pair, embed_pairs, least_free_child, orbit_key, orbit_reps
from .errors import BudgetError, DomainError
from .plan import Expansion, TreePlan
from .trees import Node, ROOT, Segment, format_node, meet_nodes


@dataclass(slots=True)
class GameState:
    left: Expansion
    right: Expansion
    picks_left: tuple[Node, ...] = ()
    picks_right: tuple[Node, ...] = ()
    rounds_left: int = 0

    def after(self, left: Node, right: Node) -> "GameState":
        """The state after one round that picked ``left`` and ``right``."""
        return GameState(
            self.left,
            self.right,
            self.picks_left + (left,),
            self.picks_right + (right,),
            self.rounds_left - 1,
        )


def partial_isomorphism(
    picks_left: tuple[Node, ...], picks_right: tuple[Node, ...]
) -> bool:
    """Does the pick correspondence (extended by root |-> root) preserve
    equality, the order, pred- and meet-relations, and plan labels?

    The picks pair up as ``zip`` pairs them.  Each prefix of the pairs is
    checked as an extension of the one before
    (:func:`_extends_partial_isomorphism`), in O(m^2) for m pairs.
    """
    return all(
        _extends_partial_isomorphism(picks_left[:i], picks_right[:i])
        for i in range(1, min(len(picks_left), len(picks_right)) + 1)
    )


def _extends_partial_isomorphism(
    picks_left: tuple[Node, ...], picks_right: tuple[Node, ...]
) -> bool:
    """:func:`partial_isomorphism` for picks whose prefix without the last
    pair is already one: only the newest pair (a, b) is checked, in O(m)
    for m picks.

    Each side maps a node to the index of its first pick (the root is
    index 0).  Once both sides agree on those indices, a meet equals the
    same picks on both sides exactly when it has the same first index.
    A restriction of a partial isomorphism is one, so no relation among
    earlier pairs can fail but through the new pair.  The plan paths of a
    and b must agree, and their first-pick indices too; a repeat of an
    earlier pair then passes at once.  A new pair must agree with every
    earlier one on the index of their meet.  That covers the prefix
    relations both ways (a is below x exactly when their meet is a, x
    below a when it is x), and so the parent relations, since paired picks
    have equal depths.  The one relation among earlier picks that a new
    pick can change is a meet becoming a: two picks above a meet at a
    exactly when they lie under different children of a.  So the picks
    above a must fall under a's children in the same groups as their
    partners under b's children, a bijection between the child segments.
    """
    a, b = picks_left[-1], picks_right[-1]
    if a.plan_path != b.plan_path:
        return False
    pairs = [(ROOT, ROOT)] + list(zip(picks_left[:-1], picks_right[:-1]))
    where_l: dict[Node, int] = {}
    where_r: dict[Node, int] = {}
    for i, (x, y) in enumerate(pairs):
        where_l.setdefault(x, i)
        where_r.setdefault(y, i)
    first = where_l.get(a)
    if first != where_r.get(b):
        return False
    if first is not None:
        return True
    new = where_l[a] = where_r[b] = len(pairs)
    child_of_b: dict[Segment, Segment] = {}
    child_of_a: dict[Segment, Segment] = {}
    for x, y in pairs:
        i = where_l.get(meet_nodes(a, x))
        if i != where_r.get(meet_nodes(b, y)):
            return False
        if i == new:
            # x lies above a and y above b.
            cx, cy = x[a.depth], y[b.depth]
            if child_of_b.setdefault(cx, cy) != cy or child_of_a.setdefault(cy, cx) != cx:
                return False
    return True


def game_won(state: GameState) -> bool:
    """Final win test for the duplicator; only meaningful with no rounds left."""
    if state.rounds_left != 0:
        raise DomainError("the game is not over yet")
    return partial_isomorphism(state.picks_left, state.picks_right)


# --------------------------------------------------------------------------
# The duplicator


class ClosureDuplicator:
    """The closure-embedding duplicator."""

    def __init__(self):
        self.notes: list[str] = []

    def respond(self, state: GameState, side: str, node: Node) -> Node:
        f, img = embed_pairs(state.left.plan, zip(state.picks_left, state.picks_right))
        if side == "L":
            return self._answer(state.right, f, img, node)
        inverse = {v: u for u, v in f.items()}
        return self._answer(state.left, inverse, set(f), node)

    def _answer(
        self,
        dst: Expansion,
        f: dict[Node, Node],
        img: set[Node],
        node: Node,
    ) -> Node:
        # Each step above the anchor takes the least child outside the image
        # under its parent's image, as extend_to_automorphism does; a step
        # looks only under the step before, so the image needs no update.
        for d in range(anchor_in(f, node).depth + 1, node.depth + 1):
            u = node.prefix(d)
            if u in f:
                continue
            v = f[u.parent()]
            branch = u[-1][0]
            fresh = least_free_child(dst, v, branch, img)
            if fresh is None:
                # Capacity exhausted below the threshold; forced into a
                # (likely losing) repeat, reported rather than masked.
                self.notes.append(
                    f"capacity exhausted at {format_node(v)} branch {branch}"
                )
                fresh = v.child(branch, 0)
            close_pair(dst.plan, f, u, fresh)
        return f[node]


# --------------------------------------------------------------------------
# Spoilers


class _Search:
    """Minimax over pick-orbit representatives, memoized by pick orbits.

    A move only reaches positions whose parent passed the partial
    isomorphism check, and a restriction of a partial isomorphism is one,
    so such a position checks only its newest pair
    (:func:`_extends_partial_isomorphism`, O(m) for m picks).  The full
    O(m^2) check runs once, on the state handed to :meth:`spoiler_wins`.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def spoiler_wins(self, state: GameState) -> bool:
        return self._solve(state, partial_isomorphism)

    def _solve(self, state: GameState, check) -> bool:
        # ``check`` decides whether the picks form a partial isomorphism.
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")
        if not check(state.picks_left, state.picks_right):
            return True
        if state.rounds_left == 0:
            return False
        key = (
            state.left.n,
            state.right.n,
            orbit_key(state.picks_left),
            orbit_key(state.picks_right),
            state.rounds_left,
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self.winning_move(state) is not None
        self.memo[key] = result
        return result

    def _wins_after(self, state: GameState, left: Node, right: Node) -> bool:
        return self._solve(state.after(left, right), _extends_partial_isomorphism)

    def winning_move(self, state: GameState) -> Optional[tuple[str, Node]]:
        """The first spoiler move, left side first, that wins against every
        reply; None when there is none.  ``state`` must be a partial
        isomorphism.

        Moves and replies range over the orbit representatives of each
        side, listed once for the position.
        """
        reps_left = orbit_reps(state.left, state.picks_left)
        reps_right = orbit_reps(state.right, state.picks_right)
        for move in reps_left:
            if all(self._wins_after(state, move, reply) for reply in reps_right):
                return ("L", move)
        for move in reps_right:
            if all(self._wins_after(state, reply, move) for reply in reps_left):
                return ("R", move)
        return None


class ExhaustiveSpoiler:
    """Optimal spoiler by minimax; falls back to seeded random over budget.

    ``budget`` bounds the minimax positions visited for one pick: the count
    restarts at every pick, while the memo of solved positions is kept
    across picks of games on the same plan.
    """

    def __init__(self, budget: int = 100_000, seed: int = 0):
        self.budget = budget
        self.seed = seed
        self.notes: list[str] = []
        self._search: Optional[_Search] = None
        self._search_plan: Optional[TreePlan] = None

    def _searcher(self, state: GameState) -> _Search:
        # Memo keys name plan nodes, so they are only sound for one plan.
        if self._search is None or self._search_plan != state.left.plan:
            self._search = _Search(self.budget)
            self._search_plan = state.left.plan
        self._search.visited = 0
        return self._search

    def pick(self, state: GameState) -> tuple[str, Node]:
        if not partial_isomorphism(state.picks_left, state.picks_right):
            # Already won: every move wins, and the root is the least one.
            return ("L", ROOT)
        search = self._searcher(state)
        try:
            move = search.winning_move(state)
        except BudgetError:
            self.notes.append(
                f"budget {self.budget} exceeded; random fallback with seed {self.seed}"
            )
            return RandomSpoiler(self.seed + len(state.picks_left)).pick(state)
        # Without a winning move every pick loses; the root is the least one.
        return move if move is not None else ("L", ROOT)


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
        state = state.after(node, answer) if side == "L" else state.after(answer, node)
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
