"""k-round back-and-forth games between two expansions of one plan.

The duplicator strategy maintains a partial embedding of the tree closure
of its picks, replayed from the pick pairs by
:func:`~treeplan.closure.embed_pairs`: answers inside the closure are read
off the embedding, and fresh picks are answered by a fresh realization of
the same quantifier-free type over the anchor, lexicographically least for
determinism (:func:`~treeplan.closure.extend_least`).  Below the size
threshold a fresh node may not exist; the forced repeat that follows
always loses, since no reply keeps the orbit keys equal, and is noted.
The exhaustive spoiler is a memoized minimax search over move orbits, one
least representative per orbit over the picks so far, read off their tree
closure at a cost independent of the expansion size, and memoized by the
orbits of the picks (:func:`~treeplan.closure.orbit_key`).  Each side's
closure and key live in a :class:`~treeplan.closure.PickFrame` that grows
by one node per round instead of being rebuilt; past its position budget
the search degrades to a seeded random player and says so.  The one pick
test is orbit-key equality: the picks of the two sides correspond exactly
when their orbit keys are equal, so a move and a reply keep the partial
isomorphism exactly when they extend the picks to equal keys, and a
position pairs each move with the one reply of its key.  The full test
runs once per search entry and at the end of a played game.  Both boards
must expand one plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .closure import PickFrame, embed_pairs, extend_least, orbit_key
from .errors import BudgetError, DomainError
from .plan import Expansion, TreePlan, predicted_size
from .trees import Node, ROOT, format_node


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
    the labeled quantifier-free type, ``pred`` and ``meet`` terms included?

    The picks pair up as ``zip`` pairs them, and the two tuples of pairs
    must have equal orbit keys (:func:`~treeplan.closure.orbit_key`).
    """
    m = min(len(picks_left), len(picks_right))
    return orbit_key(picks_left[:m]) == orbit_key(picks_right[:m])


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
        dst = state.right
        if side == "R":
            f, img, dst = {v: u for u, v in f.items()}, set(f), state.left
        for v, branch in extend_least(dst, f, img, [node]):
            # Capacity exhausted below the threshold: the forced repeat
            # always loses, and is reported rather than masked.
            self.notes.append(f"capacity exhausted at {format_node(v)} branch {branch}")
        return f[node]


# --------------------------------------------------------------------------
# Spoilers


class _Search:
    """Minimax over pick-orbit representatives, memoized by pick orbits.

    Each side's picks are a :class:`~treeplan.closure.PickFrame`, built
    once at the search's entry and stepped by one node per round.  Each
    position lists the representatives of both sides once, each keyed by
    the orbit key of the picks it extends.  The representatives of one
    side lie in distinct orbits over its picks, so their keys are
    distinct, and a move has at most one reply that keeps the keys of the
    two sides equal.  A move whose key the other side lacks wins at once;
    otherwise only that one pair is solved, so every position visited has
    equal keys on both sides and is memoized by the key of one.
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise DomainError("the game budget must be non-negative")
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def spoiler_wins(self, state: GameState) -> bool:
        if partial_isomorphism(state.picks_left, state.picks_right):
            left, right = _frames(state)
            return self._solve(left, right, state.rounds_left, left.key)
        # A state handed in already lost counts as one won position.
        self._visit()
        return True

    def _visit(self) -> None:
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")

    def _solve(
        self,
        left: PickFrame,
        right: PickFrame,
        rounds: int,
        key: tuple[Node, ...],
        move: Optional[Node] = None,
        reply: Optional[Node] = None,
    ) -> bool:
        # The position with ``rounds`` left whose picks are the frames',
        # extended by ``move`` on the left and ``reply`` on the right when
        # they are given; ``key``: the orbit key of either side's picks, the
        # two being equal.  The frames are stepped only when the memo misses.
        self._visit()
        if rounds == 0:
            return False
        memo_key = (left.e.n, right.e.n, key, rounds)
        hit = self.memo.get(memo_key)
        if hit is not None:
            return hit
        if move is not None:
            left, right = left.step(move), right.step(reply)
        result = self._winning_move(left, right, rounds) is not None
        self.memo[memo_key] = result
        return result

    def winning_move(self, state: GameState) -> Optional[tuple[str, Node]]:
        """The first spoiler move, left side first and in node order, that
        wins against every reply; None when there is none.  ``state`` must
        be a partial isomorphism.
        """
        return self._winning_move(*_frames(state), state.rounds_left)

    def _winning_move(
        self, left: PickFrame, right: PickFrame, rounds: int
    ) -> Optional[tuple[str, Node]]:
        moves, replies = left.keyed_reps(), right.keyed_reps()
        for key, move in moves.items():
            reply = replies.get(key)
            if reply is None or self._solve(left, right, rounds - 1, key, move, reply):
                return ("L", move)
        for key, move in replies.items():
            reply = moves.get(key)
            if reply is None or self._solve(left, right, rounds - 1, key, reply, move):
                return ("R", move)
        return None


def _frames(state: GameState) -> tuple[PickFrame, PickFrame]:
    return PickFrame(state.left, state.picks_left), PickFrame(state.right, state.picks_right)


class ExhaustiveSpoiler:
    """Optimal spoiler by minimax; falls back to seeded random over budget.

    ``budget`` bounds the minimax positions visited for one pick: the count
    restarts at every pick, while the memo of solved positions is kept
    across picks of games on the same plan.  A budget of 0 falls back at
    once; a negative one raises :class:`DomainError`.
    """

    def __init__(self, budget: int = 100_000, seed: int = 0):
        self.budget = budget
        self.seed = seed
        self.notes: list[str] = []
        self._search = _Search(budget)  # checks the budget
        self._search_plan: Optional[TreePlan] = None

    def _searcher(self, state: GameState) -> _Search:
        # Memo keys name plan nodes, so they are only sound for one plan.
        if self._search_plan != state.left.plan:
            self._search.memo.clear()
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
        # The draw of ``rng.choice(e.nodes())``, without listing the nodes.
        return (side, e.node_at(rng.randrange(predicted_size(e.plan, e.n))))


def _require_game(left: Expansion, right: Expansion, k: int) -> None:
    if k < 0:
        raise DomainError("round count must be non-negative")
    if left.plan != right.plan:
        raise DomainError("a game needs two expansions of one plan")


def game_value(
    left: Expansion, right: Expansion, k: int, budget: int = 100_000
) -> str:
    """Theoretical winner under optimal play: "S" or "D".

    Raises :class:`DomainError` for ``k < 0``, a negative budget or boards
    of two plans.
    """
    _require_game(left, right, k)
    return "S" if _Search(budget).spoiler_wins(GameState(left, right, (), (), k)) else "D"


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
    Raises :class:`DomainError` for ``k < 0`` or boards of two plans.
    """
    _require_game(left, right, k)
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
