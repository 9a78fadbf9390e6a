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
pick pair.  That check reads one pick signature per node
(:func:`_pick_signature`): its plan path, its first index among the picks,
and for a new node the first pick index of its meet with each earlier pick
and the child segments the picks above it lie under.  A pair passes when
its two signatures are equal, so a position signs each representative of
each side once and compares signatures for every move and reply.  The full
check runs once per search entry and at the end of a played game.  Both
boards must expand one plan.
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
    """:func:`partial_isomorphism` for picks of equal length whose prefix
    without the last pair is already one: the newest pair passes exactly
    when its two pick signatures (:func:`_pick_signature`) are equal.
    """
    return _pick_signature(picks_left[:-1], picks_left[-1]) == _pick_signature(
        picks_right[:-1], picks_right[-1]
    )


def _pick_signature(picks: tuple[Node, ...], a: Node) -> tuple:
    """What the newest-pair check reads of a pick ``a`` after ``picks``."""
    return _pick_signatures(picks, (a,))[0]


def _pick_signatures(picks: tuple[Node, ...], nodes) -> list[tuple]:
    """The pick signature of each of ``nodes`` against ``picks``, in O(m)
    each for m picks once the first-pick map is built.

    The first-pick map sends a node to the index of its first occurrence
    among the root (index 0) and the picks.  A restriction of a partial
    isomorphism is one, so no relation among earlier picks can fail but
    through the new pair (a, b), and paired earlier picks already agree
    on their first-pick indices.  Then a meet equals the same picks on
    both sides exactly when it has the same first-pick index.  So a new
    pair passes exactly when its two signatures are equal:

    - the plan path of ``a`` (labels, and so depths);
    - the first-pick index of ``a``; for a repeated pick that is the whole
      signature, since its partner is then fixed;
    - for a new pick, the first-pick index of the meet of ``a`` with the
      root and each distinct earlier pick, ``a`` itself counting as the
      next index and None standing for a meet off the picks.  That covers
      the prefix relations both ways (a is below x exactly when their meet
      is a, x below a when it is x), and so the parent relations;
    - for the picks above ``a``, the child segment of ``a`` each lies
      under, renamed in order of first use.  Two picks above ``a`` meet at
      ``a`` exactly when they lie under different children, the one
      relation among earlier picks that a new pick can change; equal
      renamings are a bijection between the child segments.
    """
    first: dict[Node, int] = {}
    for i, x in enumerate((ROOT,) + picks):
        first.setdefault(x, i)
    new = len(picks) + 1
    signatures = []
    for a in nodes:
        path = a.plan_path
        index = first.get(a)
        if index is not None:
            signatures.append((path, index))
            continue
        depth = len(a)
        meets: list[Optional[int]] = []
        above: list[int] = []
        children: dict[Segment, int] = {}
        for x in first:
            m = meet_nodes(a, x)
            if len(m) == depth:
                meets.append(new)
                above.append(children.setdefault(x[depth], len(children)))
            else:
                meets.append(first.get(m))
        signatures.append((path, None, tuple(meets), tuple(above)))
    return signatures


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
    so such a position checks only its newest pair.  Each position lists
    the representatives of both sides once and computes the pick signature
    (:func:`_pick_signatures`) of each once; a move and a reply pass
    exactly when their signatures are equal.  A pair that fails is a
    spoiler win that counts as one visited position, with no state built
    for it.  The full O(m^2) check runs once, on the state handed to
    :meth:`spoiler_wins`.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.visited = 0
        self.memo: dict = {}

    def spoiler_wins(self, state: GameState) -> bool:
        return self._solve(state, checked=False)

    def _visit(self) -> None:
        self.visited += 1
        if self.visited > self.budget:
            raise BudgetError(f"game tree exceeded {self.budget} nodes")

    def _solve(self, state: GameState, checked: bool = True) -> bool:
        # ``checked``: the picks are already known to be a partial isomorphism.
        self._visit()
        if not checked and not partial_isomorphism(state.picks_left, state.picks_right):
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

    def _wins_after(self, state: GameState, left: Node, right: Node, passes: bool) -> bool:
        if not passes:
            # The new pair breaks the partial isomorphism: a won position.
            self._visit()
            return True
        return self._solve(state.after(left, right))

    def winning_move(self, state: GameState) -> Optional[tuple[str, Node]]:
        """The first spoiler move, left side first, that wins against every
        reply; None when there is none.  ``state`` must be a partial
        isomorphism.

        Moves and replies range over the orbit representatives of each
        side, listed once for the position with their pick signatures.
        """
        reps_left = orbit_reps(state.left, state.picks_left)
        reps_right = orbit_reps(state.right, state.picks_right)
        signed_left = list(zip(reps_left, _pick_signatures(state.picks_left, reps_left)))
        signed_right = list(zip(reps_right, _pick_signatures(state.picks_right, reps_right)))
        for move, sig in signed_left:
            if all(
                self._wins_after(state, move, reply, sig == reply_sig)
                for reply, reply_sig in signed_right
            ):
                return ("L", move)
        for move, sig in signed_right:
            if all(
                self._wins_after(state, reply, move, sig == reply_sig)
                for reply, reply_sig in signed_left
            ):
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


def _require_game(left: Expansion, right: Expansion, k: int) -> None:
    if k < 0:
        raise DomainError("round count must be non-negative")
    if left.plan != right.plan:
        raise DomainError("a game needs two expansions of one plan")


def game_value(
    left: Expansion, right: Expansion, k: int, budget: int = 100_000
) -> str:
    """Theoretical winner under optimal play: "S" or "D".

    Raises :class:`DomainError` for ``k < 0`` or boards of two plans.
    """
    _require_game(left, right, k)
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
