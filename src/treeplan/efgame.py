"""k-round back-and-forth games between two expansions of one plan.

The duplicator strategy maintains a partial embedding of the tree closure
of its picks, both ways, kept from one answer to the state it leads to
and otherwise, or after a forced step, replayed from the pick pairs by
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
position pairs each move with the one reply of its key; a last round is
decided from tag-table widths and orbit counts, before a frame is
stepped into it (see :class:`_Search`).  The full test runs once per
search entry and at the end of a played game.  Both boards must expand
one plan.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .closure import PickFrame, embed_pairs, extend_least, orbit_key
from .errors import BudgetError, DomainError
from .plan import Expansion, TreePlan, predicted_size
from .trees import Node, ROOT, format_node

DEFAULT_GAME_BUDGET = 100_000


class GameState(NamedTuple):
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
    """The closure-embedding duplicator; it keeps the embedding of its last
    answer for the state that answer leads to (see the module docstring)."""

    def __init__(self):
        self.notes: list[str] = []
        self._kept: Optional[tuple] = None

    def respond(self, state: GameState, side: str, node: Node) -> Node:
        kept, self._kept = self._kept, None
        if kept and kept[0][:4] == state[:4]:  # the same boards and picks
            maps = kept[1]
        else:
            f, img = embed_pairs(state.left.plan, zip(state.picks_left, state.picks_right))
            inverse = {v: u for u, v in f.items()}
            maps = {"L": (f, img, state.right), "R": (inverse, set(f), state.left)}
        f, img, dst = maps[side]
        if node not in f:
            new = len(f)
            forced = extend_least(dst, f, img, [node])
            # Capacity exhausted below the threshold: the forced repeat
            # always loses, and is reported rather than masked.
            for v, branch in forced:
                self.notes.append(f"capacity exhausted at {format_node(v)} branch {branch}")
            if forced:  # the embedding is no longer one-to-one: not kept
                return f[node]
            back, back_img, _ = maps["R" if side == "L" else "L"]
            for u, v in list(f.items())[new:]:
                back[v] = u
                back_img.add(u)
        answer = f[node]
        self._kept = (state.after(node, answer) if side == "L" else state.after(answer, node), maps)
        return answer


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

    A position with one round left is lost by the spoiler exactly when
    the representatives of the two sides have the same keys.  That is
    decided from the frames one round up, before they are stepped by the
    move and reply (:meth:`~treeplan.closure.PickFrame.tally`).  Every
    closure node is its own orbit.  Every other orbit starts at the least
    child outside the closure under a closure node ``c`` on an inf
    branch: it exists when the tag table ``names[(renamed c, branch)]``,
    one entry per closure child of ``c`` there, is shorter than ``n``; it
    is renamed to that length; and it opens one orbit per node of the
    subplan at its plan path τ.  So the count is ``len(closed)`` plus
    ``sizes[τ]`` per table shorter than ``n``.  Equal keys mean one
    renamed closure, so tables of equal lengths, none above
    ``min(n_L, n_R)``: the keys of the representatives, and then the
    counts, agree exactly when ``n_L == n_R`` or every table is shorter
    than ``min(n_L, n_R)``.  A step by a node outside the closure, with
    anchor depth ``d``, changes the figures only at its inf steps above
    ``d``: each adds the gain of its plan node σ
    (:func:`~treeplan.plan._subplan_sizes`) and subtracts ``sizes[σ]``
    when its table reaches ``n``, that table being the anchor's, one
    longer, at step ``d + 1``, and a new one of length 1 above.

    When the rule decides, the visits of the position's moves, one per
    representative a side, are counted without listing them, at the top
    of :meth:`winning_move` too.  Otherwise, or when the visits do not
    fit the budget, the frames are stepped and the position runs the
    loop over its moves as every other does, so the first winning move,
    the visits and the memo are those of the loop.
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
        # two being equal.  The frames are stepped only when the memo misses
        # and the last-round rule does not decide.
        self._visit()
        if rounds == 0:
            return False
        memo_key = (left.e.n, right.e.n, key, rounds)
        hit = self.memo.get(memo_key)
        if hit is not None:
            return hit
        result = self._winning_move(left, right, rounds, move, reply) is not None
        self.memo[memo_key] = result
        return result

    def winning_move(self, state: GameState) -> Optional[tuple[str, Node]]:
        """The first spoiler move, left side first and in node order, that
        wins against every reply; None when there is none.  ``state`` must
        be a partial isomorphism.
        """
        return self._winning_move(*_frames(state), state.rounds_left)

    def _winning_move(
        self,
        left: PickFrame,
        right: PickFrame,
        rounds: int,
        move: Optional[Node] = None,
        reply: Optional[Node] = None,
    ) -> Optional[tuple[str, Node]]:
        # The frames, stepped by ``move`` and ``reply`` when they are given,
        # once the last-round rule of the class docstring has not decided.
        if rounds == 1:
            count, width = left.tally(move)
            n, m = left.e.n, right.e.n
            if (n == m or width < min(n, m)) and self.visited + 2 * count <= self.budget:
                self.visited += 2 * count
                return None
        if move is not None:
            left, right = left.step(move), right.step(reply)
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

    def __init__(self, budget: int = DEFAULT_GAME_BUDGET, seed: int = 0):
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
        """The first winning move, else the root on the left, as on a state
        already won; a pick off its board raises :class:`DomainError`."""
        left, right = _frames(state)
        if left.key != right.key:
            # Already won: every move wins, and the root is the least one.
            return ("L", ROOT)
        try:
            move = self._searcher(state)._winning_move(left, right, state.rounds_left)
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
    left: Expansion, right: Expansion, k: int, budget: int = DEFAULT_GAME_BUDGET
) -> str:
    """Theoretical winner under optimal play: "S" or "D".

    Raises :class:`DomainError` for ``k < 0``, a negative budget or boards
    of two plans.
    """
    _require_game(left, right, k)
    return "S" if _Search(budget).spoiler_wins(GameState(left, right, (), (), k)) else "D"


# --------------------------------------------------------------------------
# Playing games


class Outcome(NamedTuple):
    winner: str
    transcript: str
    illegal: Optional[str] = None

    @property
    def duplicator_won(self) -> bool:
        return self.winner == "D"


def play(left: Expansion, right: Expansion, k: int, spoiler, duplicator) -> Outcome:
    """Alternate spoiler picks and duplicator answers for ``k`` rounds.

    A move is legal when it is a :class:`Node` of its board, as
    :meth:`Expansion.require <treeplan.plan.Expansion.require>` asks; a
    plain tuple spelling a node is not.  An illegal move loses immediately
    for its side and is flagged in the transcript.  Strategy notes are
    embedded as ``#`` comment lines.  Raises :class:`DomainError` for
    ``k < 0`` or boards of two plans.
    """
    _require_game(left, right, k)
    state = GameState(left, right, (), (), k)
    lines: list[str] = []
    illegal = None
    winner = None
    for r in range(1, k + 1):
        side, node = spoiler.pick(state)
        board = left if side == "L" else right
        if side not in ("L", "R") or not isinstance(node, Node) or node not in board:
            illegal = f"spoiler played {format_node(node)} off the board"
            winner = "D"
            break
        lines.append(f"{r};{side};{format_node(node)}")
        answer = duplicator.respond(state, side, node)
        other = right if side == "L" else left
        answer_side = "R" if side == "L" else "L"
        if not isinstance(answer, Node) or answer not in other:
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
