import itertools
import random
from types import SimpleNamespace

import pytest

from treeplan import (
    BudgetError,
    DomainError,
    ClosureDuplicator,
    ExhaustiveSpoiler,
    GameState,
    RandomSpoiler,
    evaluate,
    expand,
    game_value,
    game_won,
    induced_automorphism,
    parse_node,
    parse_plan,
    parse_formula,
    partial_isomorphism,
    play,
    separating_family,
    size_threshold,
)
from treeplan import efgame
from treeplan.closure import PickFrame, embed_pairs, orbit_key, orbit_reps, tuple_code
from treeplan.trees import format_node, meet_nodes

from conftest import (
    PLANS,
    closure_answer_reference,
    same_type,
    search_outcome,
    winning_move_reference,
)


def node(text):
    return parse_node(text)


class TestGameWon:
    def test_empty_picks(self):
        state = GameState(expand(PLANS["A"], 1), expand(PLANS["A"], 2), (), (), 0)
        assert game_won(state)

    def test_root_to_non_root_fails(self):
        left, right = expand(PLANS["A"], 2), expand(PLANS["A"], 2)
        state = GameState(left, right, (node("eps"),), (node("0:0"),), 0)
        assert not game_won(state)

    def test_distinct_leaf_pairs(self):
        left, right = expand(PLANS["A"], 2), expand(PLANS["A"], 3)
        state = GameState(
            left,
            right,
            (node("0:0"), node("0:1")),
            (node("0:2"), node("0:0")),
            0,
        )
        assert game_won(state)

    def test_requires_finished_game(self):
        state = GameState(expand(PLANS["A"], 1), expand(PLANS["A"], 1), (), (), 1)
        with pytest.raises(DomainError):
            game_won(state)

    def test_meet_relation_checked(self):
        left = expand(PLANS["B"], 2)
        right = expand(PLANS["B"], 2)
        # Same-parent pair against different-parent pair: meets differ.
        state = GameState(
            left,
            right,
            (node("0:0/0:0"), node("0:0/0:1")),
            (node("0:0/0:0"), node("0:1/0:1")),
            0,
        )
        assert not partial_isomorphism(state.picks_left, state.picks_right)

    def test_partial_isomorphism_on_every_inner_extension(self):
        # Chain plans are where an old meet can become the new pick: two
        # leaves may meet at depth 1 on one side and at depth 2 on the other.
        # Every two-leaf partial isomorphism (the first left leaf fixed, as
        # all leaves are in one orbit), extended by every pair of inner nodes.
        e = expand(PLANS["chain3"], 2)
        leaves = e.fiber((0, 0, 0))
        inner = [v for v in e.nodes() if v.depth < 3]
        checked = 0
        for second in leaves:
            for right in itertools.product(leaves, repeat=2):
                left = (leaves[0], second)
                if not same_type(e, left, e, right):
                    continue
                for a in inner:
                    for b in e.fiber(a.plan_path):
                        picks = (left + (a,), right + (b,))
                        assert partial_isomorphism(*picks) == same_type(e, picks[0], e, picks[1])
                        checked += 1
        assert checked > 2_000

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_signatures_on_random_extensions(self, name):
        # A tuple's signature is its orbit key.  Prefixes are random picks
        # paired with their images under a tag permutation, or with random
        # nodes on the same plan paths, when their types agree.  Each is
        # extended by a random node, often the meet of two earlier picks so
        # that picks above it may split between its children, paired with
        # every node on its plan path.
        rng = random.Random(name)
        e = expand(PLANS[name], 3)
        nodes = e.nodes()
        checked = 0
        for _ in range(60):
            left = tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)))
            if rng.random() < 0.5:
                perm = list(range(e.n))
                rng.shuffle(perm)
                swap = induced_automorphism(e, dict(enumerate(perm)))
                right = tuple(swap[x] for x in left)
            else:
                partner = {x: rng.choice(e.fiber(x.plan_path)) for x in left}
                right = tuple(partner[x] for x in left)
            if not same_type(e, left, e, right):
                continue
            a = rng.choice(nodes)
            if left and rng.random() < 0.5:
                a = meet_nodes(rng.choice(left), rng.choice(left))
            for b in e.fiber(a.plan_path):
                picks = (left + (a,), right + (b,))
                assert partial_isomorphism(*picks) == same_type(e, picks[0], e, picks[1]), picks
                checked += 1
        assert checked > 30

    def test_meets_off_the_picks_must_agree_in_depth(self):
        # pred(pred(x)) = meet(x, y) on the left only: the meet is a term,
        # even where it lands on no pick.
        left = (node("0:0/0:0/0:0"), node("0:0/0:1/0:0"))
        right = (node("0:0/0:0/0:0"), node("0:0/0:0/0:1"))
        assert not partial_isomorphism(left, right)
        assert not partial_isomorphism(left + (node("0:0"),), right + (node("0:0"),))

    def test_pred_terms_checked(self):
        # pred(x) = pred(y) holds on the left and fails on the right, though
        # the picks relate alike: neither is below the other, and they meet
        # off the picks.
        e = expand(PLANS["chain3"], 2)
        left = (node("0:0/0:0/0:0"), node("0:0/0:0/0:1"))
        right = (node("0:0/0:0/0:0"), node("0:0/0:1/0:0"))
        same_pred = parse_formula("pred(x) = pred(y)")
        assert evaluate(e, same_pred, dict(zip("xy", left)))
        assert not evaluate(e, same_pred, dict(zip("xy", right)))
        assert not partial_isomorphism(left, right)
        assert not game_won(GameState(e, expand(PLANS["chain3"], 3), left, right, 0))

    def test_unequal_pick_counts_pair_the_shorter_prefix(self):
        # Picks pair up as zip pairs them: the longer side's extra picks
        # are not part of the correspondence.
        a, b = node("0:0/0:0"), node("0:0/0:1")
        assert partial_isomorphism((a, b), ())
        assert partial_isomorphism((), (a, b))
        assert partial_isomorphism((a, a), (a,))
        assert partial_isomorphism((a, b, a), (a, b))
        assert not partial_isomorphism((a, b, a), (a, a))


class TestGameState:
    @pytest.mark.parametrize("name", ["A", "B", "inf_one_inf"])
    def test_after_appends_one_round(self, name):
        left, right = expand(PLANS[name], 2), expand(PLANS[name], 3)
        state = GameState(left, right, (node("eps"),), (node("eps"),), 3)
        a, b = left.nodes()[-1], right.nodes()[-1]
        expected = state._replace(
            picks_left=state.picks_left + (a,),
            picks_right=state.picks_right + (b,),
            rounds_left=state.rounds_left - 1,
        )
        assert state.after(a, b) == expected


class TestDuplicator:
    def test_answers_root_with_root(self):
        left, right = expand(PLANS["A"], 3), expand(PLANS["A"], 4)
        state = GameState(left, right, (), (), 1)
        assert ClosureDuplicator().respond(state, "L", node("eps")) == node("eps")

    def test_repeat_gets_same_answer(self):
        left, right = expand(PLANS["A"], 3), expand(PLANS["A"], 4)
        state = GameState(left, right, (node("0:1"),), (node("0:0"),), 1)
        assert ClosureDuplicator().respond(state, "L", node("0:1")) == node("0:0")

    def test_distinct_leaves_get_distinct_answers(self):
        # Two picks on the large side answered by two distinct leaves on the
        # small side; possible exactly because 3 meets the k=2 threshold.
        assert size_threshold(PLANS["A"], 2) == 3
        left, right = expand(PLANS["A"], 3), expand(PLANS["A"], 5)
        dup = ClosureDuplicator()
        state = GameState(left, right, (), (), 2)
        first = dup.respond(state, "R", node("0:4"))
        state = GameState(left, right, (first,), (node("0:4"),), 1)
        second = dup.respond(state, "R", node("0:2"))
        assert first != second
        assert first.parent() == second.parent() == node("eps")

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_answer_matches_reference_walk(self, name):
        # Random positions, built from duplicator answers and some random
        # stray answers, on both sides and at sizes 1-3, so capacity runs
        # out below the threshold on most plans.
        rng = random.Random(name)
        exhausted = 0
        for _ in range(30):
            left = expand(PLANS[name], rng.randint(1, 3))
            right = expand(PLANS[name], rng.randint(1, 3))
            state = GameState(left, right, (), (), 4)
            for _ in range(rng.randint(1, 4)):
                side = rng.choice("LR")
                board, other = (left, right) if side == "L" else (right, left)
                pick = rng.choice(board.nodes())
                f, img = embed_pairs(left.plan, zip(state.picks_left, state.picks_right))
                if side == "R":
                    f, img = {v: u for u, v in f.items()}, set(f)
                expected = closure_answer_reference(other, f, img, pick)
                dup = ClosureDuplicator()
                assert (dup.respond(state, side, pick), dup.notes) == expected
                exhausted += bool(dup.notes)
                answer = expected[0]
                if rng.random() < 0.2:
                    answer = rng.choice(other.nodes())
                if side == "L":
                    state = state.after(pick, answer)
                else:
                    state = state.after(answer, pick)
        if name in ("inf_one_inf", "one_chain_inf", "twin_ones"):
            assert exhausted

    def test_a_played_game_replays_only_the_root(self, monkeypatch):
        # Each answer leads to the next state, so the embedding is kept
        # from round to round and replayed once, for the empty picks.
        replayed = []

        def counted(plan, pairs):
            pairs = list(pairs)
            replayed.append(pairs)
            return embed_pairs(plan, pairs)

        monkeypatch.setattr(efgame, "embed_pairs", counted)
        p = PLANS["B"]
        n0 = size_threshold(p, 3)
        out = play(expand(p, n0), expand(p, n0 + 1), 3, RandomSpoiler(5), ClosureDuplicator())
        assert out.winner == "D" and "capacity" not in out.transcript
        assert replayed == [[]]


class ScriptedSpoiler:
    def __init__(self, moves):
        self.moves = [(side, node(text)) for side, text in moves]

    def pick(self, state):
        return self.moves[len(state.picks_left)]


class TestPlay:
    def test_pick_below_singleton_child_is_replayed(self):
        # The first pick pulls 0:0/0:* into the embedding as the singleton
        # child of 0:0; the replay must still map the pick above it, so the
        # second pick gets a fresh answer.
        p = PLANS["inf_one_inf"]
        n0 = size_threshold(p, 2)
        spoiler = ScriptedSpoiler([("R", "0:0/0:*/0:0"), ("R", "0:0/0:*/0:1")])
        out = play(expand(p, n0), expand(p, n0 + 1), 2, spoiler, ClosureDuplicator())
        assert out.transcript.endswith("winner=D\n")

    def test_negative_budget_rejected(self):
        left, right = expand(PLANS["A"], 1), expand(PLANS["A"], 2)
        with pytest.raises(DomainError, match="budget"):
            game_value(left, right, 2, budget=-1)
        with pytest.raises(DomainError, match="budget"):
            ExhaustiveSpoiler(budget=-5)

    def test_zero_budget_falls_back_at_once(self):
        left, right = expand(PLANS["A"], 2), expand(PLANS["A"], 3)
        out = play(left, right, 2, ExhaustiveSpoiler(budget=0), ClosureDuplicator())
        assert out.transcript.count("# budget 0 exceeded; random fallback with seed 0") == 2

    def test_two_plans_rejected(self):
        left, right = expand(PLANS["A"], 2), expand(PLANS["B"], 2)
        with pytest.raises(DomainError, match="one plan"):
            play(left, right, 2, ExhaustiveSpoiler(), ClosureDuplicator())

    def test_zero_rounds(self):
        out = play(
            expand(PLANS["A"], 1),
            expand(PLANS["A"], 2),
            0,
            ExhaustiveSpoiler(),
            ClosureDuplicator(),
        )
        assert out.winner == "D"

    def test_spoiler_wins_below_threshold(self):
        out = play(
            expand(PLANS["A"], 1),
            expand(PLANS["A"], 2),
            2,
            ExhaustiveSpoiler(),
            ClosureDuplicator(),
        )
        assert out.winner == "S"

    def test_duplicator_wins_above_threshold(self):
        out = play(
            expand(PLANS["A"], 3),
            expand(PLANS["A"], 8),
            2,
            ExhaustiveSpoiler(),
            ClosureDuplicator(),
        )
        assert out.winner == "D"

    def test_transcript_format(self):
        out = play(
            expand(PLANS["A"], 2),
            expand(PLANS["A"], 2),
            1,
            RandomSpoiler(seed=1),
            ClosureDuplicator(),
        )
        lines = out.transcript.strip().splitlines()
        assert lines[-1] in ("winner=D", "winner=S")
        move_lines = [l for l in lines if not l.startswith(("#", "winner"))]
        assert len(move_lines) == 2
        for line in move_lines:
            round_no, side, _ = line.split(";")
            assert round_no == "1" and side in ("L", "R")

    def test_deterministic_given_seed(self):
        def run():
            return play(
                expand(PLANS["B"], 2),
                expand(PLANS["B"], 3),
                2,
                RandomSpoiler(seed=42),
                ClosureDuplicator(),
            ).transcript

        assert run() == run()

    def test_budget_fallback_flagged(self):
        out = play(
            expand(PLANS["B"], 3),
            expand(PLANS["B"], 4),
            3,
            ExhaustiveSpoiler(budget=10, seed=5),
            ClosureDuplicator(),
        )
        assert "budget" in out.transcript

    # A move must be a Node of its board: a plain tuple spelling one is
    # illegal too, and loses for its side.
    @pytest.mark.parametrize("move", [node("0:5"), ((0, 1),)], ids=["off_board", "plain_tuple"])
    def test_illegal_spoiler_move_loses(self, move):
        spoiler = SimpleNamespace(pick=lambda state: ("L", move))
        out = play(expand(PLANS["A"], 2), expand(PLANS["A"], 3), 2, spoiler, ClosureDuplicator())
        illegal = f"spoiler played {format_node(move)} off the board"
        assert out == ("D", f"# illegal: {illegal}\nwinner=D\n", illegal)

    @pytest.mark.parametrize("answer", [node("0:7"), ((0, 1),)], ids=["off_board", "plain_tuple"])
    def test_illegal_duplicator_answer_loses(self, answer):
        spoiler = SimpleNamespace(pick=lambda state: ("L", node("0:1")))
        duplicator = SimpleNamespace(respond=lambda state, side, picked: answer)
        out = play(expand(PLANS["A"], 2), expand(PLANS["A"], 3), 2, spoiler, duplicator)
        text = format_node(answer)
        illegal = f"duplicator played {text} off the board"
        transcript = f"1;L;0:1\n1;R;<illegal {text}>\n# illegal: {illegal}\nwinner=S\n"
        assert out == ("S", transcript, illegal)


# RandomSpoiler transcripts from before the spoiler drew node indices
# instead of listing the nodes: boards (3, 5), keyed by (plan, seed, k).
RANDOM_TRANSCRIPTS = {
    ("A", 3, 2): "1;L;eps\n1;R;eps\n2;R;0:2\n2;L;0:0\nwinner=D\n",
    ("A", 3, 3): "1;L;eps\n1;R;eps\n2;R;0:2\n2;L;0:0\n3;L;0:0\n3;R;0:2\nwinner=D\n",
    ("A", 11, 2): "1;R;0:2\n1;L;0:0\n2;L;0:1\n2;R;0:0\nwinner=D\n",
    ("A", 11, 3): "1;R;0:2\n1;L;0:0\n2;L;0:1\n2;R;0:0\n3;R;0:4\n3;L;0:2\nwinner=D\n",
    ("B", 3, 2): "1;L;eps\n1;R;eps\n2;R;0:1/0:4\n2;L;0:0/0:0\nwinner=D\n",
    ("B", 3, 3): "1;L;eps\n1;R;eps\n2;R;0:1/0:4\n2;L;0:0/0:0\n3;L;0:2/0:2\n3;R;0:0/0:0\n"
    "winner=D\n",
    ("B", 11, 2): "1;R;0:2\n1;L;0:0\n2;L;0:2/0:1\n2;R;0:0/0:0\nwinner=D\n",
    ("B", 11, 3): "1;R;0:2\n1;L;0:0\n2;L;0:2/0:1\n2;R;0:0/0:0\n3;R;0:3/0:1\n3;L;0:1/0:0\n"
    "winner=D\n",
    ("inf_one_inf", 3, 2): "1;L;eps\n1;R;eps\n2;R;0:3/0:*/0:0\n2;L;0:0/0:*/0:0\nwinner=D\n",
    ("inf_one_inf", 3, 3): "1;L;eps\n1;R;eps\n2;R;0:3/0:*/0:0\n2;L;0:0/0:*/0:0\n3;L;0:1\n"
    "3;R;0:0\nwinner=D\n",
    ("inf_one_inf", 11, 2): "1;R;0:3/0:*/0:2\n1;L;0:0/0:*/0:0\n2;L;0:1/0:*/0:2\n"
    "2;R;0:0/0:*/0:0\nwinner=D\n",
    ("inf_one_inf", 11, 3): "1;R;0:3/0:*/0:2\n1;L;0:0/0:*/0:0\n2;L;0:1/0:*/0:2\n"
    "2;R;0:0/0:*/0:0\n3;R;0:2/0:*/0:2\n3;L;0:2/0:*/0:0\nwinner=D\n",
}


class TestPinnedTranscripts:
    """Games on boards whose budget of 0 forbids building their trees:
    every move, answer and check runs on membership alone."""

    @pytest.mark.parametrize("key", sorted(RANDOM_TRANSCRIPTS), ids=str)
    def test_random_spoiler(self, key):
        name, seed, k = key
        left, right = expand(PLANS[name], 3, budget=0), expand(PLANS[name], 5, budget=0)
        out = play(left, right, k, RandomSpoiler(seed), ClosureDuplicator())
        assert out.transcript == RANDOM_TRANSCRIPTS[key]

    def test_exhaustive_spoiler_random_fallback(self):
        # The transcript of ``ef --n1 3 --n2 4 --k 3 --game-budget 10`` on B.
        left, right = expand(PLANS["B"], 3, budget=0), expand(PLANS["B"], 4, budget=0)
        out = play(left, right, 3, ExhaustiveSpoiler(budget=10), ClosureDuplicator())
        assert out.transcript == (
            "1;R;0:2/0:1\n1;L;0:0/0:0\n2;R;0:0/0:3\n2;L;0:1/0:0\n"
            "3;R;0:2/0:0\n3;L;0:0/0:1\n"
            + "# budget 10 exceeded; random fallback with seed 0\n" * 3
            + "winner=D\n"
        )

    def test_games_at_a_million(self):
        for name in ("B", "inf_one_inf"):
            left, right = expand(PLANS[name], 10**6), expand(PLANS[name], 10**6 + 1)
            assert game_value(left, right, 3) == "D"
            out = play(left, right, 3, RandomSpoiler(7), ClosureDuplicator())
            assert out.winner == "D"


class TestExhaustiveSpoiler:
    @pytest.mark.parametrize("n2", [2, 3])
    def test_reused_on_a_reordered_plan(self, n2):
        # The two plans are isomorphic with their branches swapped, so a memo
        # carried over from the first names the wrong nodes in the second.
        first, second = parse_plan("(1 (inf) (1))"), parse_plan("(1 (1) (inf))")
        spoiler = ExhaustiveSpoiler()
        play(expand(first, 1), expand(first, n2), 2, spoiler, ClosureDuplicator())
        left, right = expand(second, 1), expand(second, n2)
        reused = play(left, right, 2, spoiler, ClosureDuplicator())
        fresh = play(left, right, 2, ExhaustiveSpoiler(), ClosureDuplicator())
        assert reused.transcript == fresh.transcript
        assert reused.winner == game_value(left, right, 2) == "S"

    def test_representatives_listed_once_per_position(self, monkeypatch):
        # The search lists representatives through its frames only.
        calls = []
        keyed_reps = PickFrame.keyed_reps

        def counted(frame):
            calls.append(frame.key)
            return keyed_reps(frame)

        monkeypatch.setattr(PickFrame, "keyed_reps", counted)
        p = parse_plan("(1 (inf (inf)) (1 (inf)))")
        left, right = expand(p, 3), expand(p, 4)
        search = efgame._Search(100_000)
        assert not search.spoiler_wins(GameState(left, right, (), (), 3))
        assert 0 < len(calls) <= 4 * len(search.memo)
        assert game_value(left, right, 3) == "D"


    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_memo_key_is_the_type(self, name):
        # Equal keys exactly when the labeled quantifier-free types agree.
        rng = random.Random(name)
        e = expand(PLANS[name], 3)
        nodes = e.nodes()
        tuples = [
            tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3))) for _ in range(40)
        ]
        for a in tuples:
            for b in tuples:
                if len(a) == len(b):
                    same_key = orbit_key(a) == orbit_key(b)
                    assert same_key == (tuple_code(e, a) == tuple_code(e, b)), (a, b)

    def test_memo_hit_across_starts(self):
        # A start off the least representatives, as after a random fallback
        # pick, is answered from a position of the same type solved earlier.
        left, right = expand(PLANS["A"], 4), expand(PLANS["A"], 5)
        search = efgame._Search(100_000)
        solved = GameState(left, right, (node("0:0"),), (node("0:0"),), 2)
        assert not search.spoiler_wins(solved)
        search.visited = 0
        moved = GameState(left, right, (node("0:3"),), (node("0:2"),), 2)
        assert not search.spoiler_wins(moved)
        assert search.visited == 1

    def test_pick_on_a_lost_position_takes_the_least_left_rep(self):
        left, right = expand(PLANS["B"], 2), expand(PLANS["B"], 3)
        picks_left, picks_right = (node("0:0"), node("0:1")), (node("0:0"), node("0:0"))
        state = GameState(left, right, picks_left, picks_right, 1)
        assert not partial_isomorphism(state.picks_left, state.picks_right)
        move = ExhaustiveSpoiler().pick(state)
        assert move == ("L", orbit_reps(left, state.picks_left)[0])

    def test_pick_on_a_won_state_runs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a won state")

        monkeypatch.setattr(efgame._Search, "_winning_move", no_search)
        left, right = expand(PLANS["B"], 2), expand(PLANS["B"], 3)
        picks_left, picks_right = (node("0:0"), node("0:1")), (node("0:0"), node("0:0"))
        state = GameState(left, right, picks_left, picks_right, 2)
        assert ExhaustiveSpoiler().pick(state) == ("L", node("eps"))

    def test_pick_off_the_board_rejected(self):
        # 0:2 is not a node of Γ(2); its keys differ from the right side's,
        # so only the board check, not the search, can reject the state.
        left, right = expand(PLANS["A"], 2), expand(PLANS["A"], 3)
        picks_left, picks_right = (node("0:0"), node("0:2")), (node("0:0"), node("0:0"))
        state = GameState(left, right, picks_left, picks_right, 1)
        assert not partial_isomorphism(state.picks_left, state.picks_right)
        with pytest.raises(DomainError):
            ExhaustiveSpoiler().pick(state)


class TestSearch:
    def test_lost_position_from_outside_is_a_spoiler_win(self):
        # The state handed in gets the full check, not just its newest pair:
        # here only the first pair fails.
        left, right = expand(PLANS["B"], 2), expand(PLANS["B"], 3)
        picks_left, picks_right = (node("0:0/0:0"), node("eps")), (node("0:0"), node("eps"))
        state = GameState(left, right, picks_left, picks_right, 1)
        assert partial_isomorphism(state.picks_left[1:], state.picks_right[1:])
        search = efgame._Search(100_000)
        assert search.spoiler_wins(state)
        assert search.visited == 1

    def test_full_check_runs_once_per_entry(self, monkeypatch):
        calls = []

        def counted(picks_left, picks_right):
            calls.append(picks_left)
            return partial_isomorphism(picks_left, picks_right)

        monkeypatch.setattr(efgame, "partial_isomorphism", counted)
        left, right = expand(PLANS["B"], 3), expand(PLANS["B"], 4)
        assert game_value(left, right, 3) == "D"
        assert calls == [()]

    @pytest.mark.parametrize(
        "name, n1, n2, k, value, visited, solved",
        [
            ("A", 1, 2, 2, True, 11, 3),
            ("B", 3, 4, 3, False, 209, 18),
            ("inf_one_inf", 2, 3, 3, True, 140, 12),
            # Last rounds lost by capacity: a tag table fills Γ(2).
            ("B", 2, 3, 3, True, 83, 10),
        ],
    )
    def test_positions_visited(self, name, n1, n2, k, value, visited, solved):
        # Only pairs whose keys agree are visited.  The memo sizes are those
        # of the search that visited every pair of representatives: the
        # same positions are solved.
        left, right = expand(PLANS[name], n1), expand(PLANS[name], n2)
        search = efgame._Search(100_000)
        assert search.spoiler_wins(GameState(left, right, (), (), k)) == value
        assert search.visited == visited
        assert len(search.memo) == solved

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_extended_keys_of_the_reps_are_distinct(self, name):
        # Representatives lie in distinct orbits over the picks, so a move
        # has at most one reply with its key.
        rng = random.Random(name)
        for _ in range(20):
            e = expand(PLANS[name], rng.randint(1, 3))
            picks = tuple(rng.choice(e.nodes()) for _ in range(rng.randint(0, 3)))
            reps = orbit_reps(e, picks)
            assert len({orbit_key(picks + (a,)) for a in reps}) == len(reps), picks

    def test_last_round_at_the_top_lists_no_reps(self, monkeypatch):
        # A one-round position handed to the top-level call, as by
        # ExhaustiveSpoiler.pick, is answered as one inside the search:
        # every tag table is shorter than 3, so the keyed representatives
        # of the two sides agree, none are listed, and the visits of its
        # moves, one per representative a side, are tallied.
        left, right = expand(PLANS["B"], 3), expand(PLANS["B"], 4)
        picks = (node("0:1"), node("0:1/0:2"))
        state = GameState(left, right, picks, picks, 1)
        frames = PickFrame(left, picks), PickFrame(right, picks)
        (count, width), tally_right = (frame.tally() for frame in frames)
        assert width < min(left.n, right.n) and tally_right == (count, width)
        assert frames[0].keyed_reps().keys() == frames[1].keyed_reps().keys()
        assert count == len(frames[0].reps())
        expected = winning_move_reference(state)

        def no_reps(frame):
            raise AssertionError("representatives listed")

        monkeypatch.setattr(PickFrame, "keyed_reps", no_reps)
        search = efgame._Search(100_000)
        assert search_outcome(search, state) == (None, 2 * count, {}) == expected
        assert ExhaustiveSpoiler().pick(state) == ("L", node("eps"))

    def test_decided_last_rounds_step_no_frame(self, monkeypatch):
        # In two rounds on Γ(3) and Γ(4) of B no pick fills a tag table of
        # Γ(3), so the rule decides every last round from the frames above
        # it: none is stepped into, and the search is the reference's.
        left, right = expand(PLANS["B"], 3), expand(PLANS["B"], 4)
        state = GameState(left, right, (), (), 2)
        expected = winning_move_reference(state)
        steps, step = [], PickFrame.step
        monkeypatch.setattr(PickFrame, "step", lambda frame, a: steps.append(a) or step(frame, a))
        search = efgame._Search(100_000)
        assert search_outcome(search, state) == expected
        assert expected[0] is None and len(expected[2]) > 1 and steps == []


class TestSearchAgainstReference:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_the_pairwise_search(self, name):
        # The same first winning move, positions visited and memo, also
        # when the budget runs out early or halfway through.
        p = PLANS[name]
        for k in (1, 2, 3):
            n0 = max(1, size_threshold(p, k))
            for n1, n2 in sorted({(1, 2), (n0, n0 + 1)}):
                left, right = expand(p, n1), expand(p, n2)
                state = GameState(left, right, (), (), k)
                expected = winning_move_reference(state)
                move, visited, _memo = expected
                assert search_outcome(efgame._Search(100_000), state) == expected, (k, n1, n2)
                assert game_value(left, right, k) == ("D" if move is None else "S")
                for budget in (50, visited // 2):
                    if budget < visited:
                        assert search_outcome(efgame._Search(budget), state) == winning_move_reference(
                            state, budget
                        ), (k, n1, n2, budget)

    def test_last_round_lost_by_capacity(self):
        # Two picks take both children of 0:0 on Γ(2) but not on Γ(3): the
        # keys agree and a tag table reaches the smaller size, so the rule
        # does not decide, the keyed representatives differ, and the last
        # round runs the loop, which finds the move only the right side has.
        left, right = expand(PLANS["B"], 2), expand(PLANS["B"], 3)
        a, b = node("0:0/0:0"), node("0:0/0:1")
        frames = PickFrame(left, (a, b)), PickFrame(right, (a, b))
        assert frames[0].key == frames[1].key
        assert frames[0].tally()[1] == frames[1].tally()[1] == min(left.n, right.n)
        assert frames[0].tally() == PickFrame(left, (a,)).tally(b)
        assert frames[0].keyed_reps().keys() != frames[1].keyed_reps().keys()
        state = GameState(left, right, (a,), (a,), 2)
        move, visited, memo = expected = winning_move_reference(state)
        assert move is not None and ((left.n, right.n, frames[0].key, 1), True) in memo.items()
        for budget in range(visited + 1):
            assert search_outcome(efgame._Search(budget), state) == winning_move_reference(
                state, budget
            ), budget
        assert search_outcome(efgame._Search(100_000), state) == expected

    def test_budget_runs_out_inside_a_last_round(self):
        # In two rounds on Γ(3) and Γ(4) of B, the first move, the root,
        # leads to a last round that the rule decides, three moves a side:
        # no tag table, so the keyed representatives of the two sides agree.
        # Its six visits do not fit a budget from 1 to 6, so the search
        # runs the loop there and stops at the visit the reference stops at.
        left, right = expand(PLANS["B"], 3), expand(PLANS["B"], 4)
        root = node("eps")
        frames = PickFrame(left, (root,)), PickFrame(right, (root,))
        count, width = PickFrame(left).tally(root)
        assert (count, width) == frames[0].tally() == (3, 0)
        assert frames[0].keyed_reps().keys() == frames[1].keyed_reps().keys()
        assert len(frames[0].reps()) == count
        state = GameState(left, right, (), (), 2)
        for budget in range(1, 1 + 2 * count):
            outcome = search_outcome(efgame._Search(budget), state)
            assert outcome[:2] == (BudgetError, budget + 1)
            assert outcome == winning_move_reference(state, budget)
        # One more visit fits them: that position is solved, and the budget
        # runs out at the next one.
        budget = 1 + 2 * count
        outcome = search_outcome(efgame._Search(budget), state)
        assert outcome == winning_move_reference(state, budget)
        assert outcome[2] == {(3, 4, (root,), 1): False}


class TestGameValue:
    def test_negative_rounds_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            game_value(expand(PLANS["A"], 1), expand(PLANS["A"], 2), -1)

    def test_two_plans_rejected(self):
        left, right = expand(PLANS["A"], 2), expand(PLANS["B"], 2)
        with pytest.raises(DomainError, match="one plan"):
            game_value(left, right, 2)

    def test_equal_plans_parsed_twice_accepted(self):
        left, right = expand(parse_plan("(1 (inf))"), 1), expand(parse_plan("(1 (inf))"), 2)
        assert game_value(left, right, 2) == "S"

    def test_spoiler_wins_small(self):
        assert game_value(expand(PLANS["A"], 1), expand(PLANS["A"], 2), 2) == "S"

    def test_duplicator_wins_equal(self):
        assert game_value(expand(PLANS["B"], 2), expand(PLANS["B"], 2), 3) == "D"

    def test_monotone_in_rounds(self):
        left, right = expand(PLANS["C"], 2), expand(PLANS["C"], 3)
        values = [game_value(left, right, k) for k in (1, 2, 3)]
        # Once the spoiler wins at k rounds, more rounds stay winning.
        for prev, cur in zip(values, values[1:]):
            if prev == "S":
                assert cur == "S"

    def test_duplicator_survival_is_monotone(self):
        left, right = expand(PLANS["B"], 4), expand(PLANS["B"], 5)
        for k in (3, 2, 1):
            out = play(left, right, k, ExhaustiveSpoiler(), ClosureDuplicator())
            assert out.winner == "D"


class TestMeasuredThreshold:
    @pytest.mark.parametrize("name", sorted(n for n, p in PLANS.items() if p.inf_nodes))
    def test_k_rounds_separate_sizes_below_k_only(self, name):
        # The measured threshold is k: far below the proven bound
        # size_threshold = k + ell * height on every plan of the corpus.
        p = PLANS[name]
        for k in (1, 2, 3):
            if k > 1:
                assert game_value(expand(p, k - 1), expand(p, k), k) == "S", k
            for n in range(k, k + 4):
                for m in range(n, k + 4):
                    assert game_value(expand(p, n), expand(p, m), k) == "D", (k, n, m)
            assert size_threshold(p, k) > k


class TestSoundnessLink:
    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "two_ones"])
    def test_game_agrees_with_counting_sentences(self, name):
        p = PLANS[name]
        pairs = [(1, 2), (2, 3), (2, 2), (3, 4)]
        for k in (1, 2, 3):
            family = separating_family(p, k)
            for n1, n2 in pairs:
                left, right = expand(p, n1), expand(p, n2)
                value = game_value(left, right, k)
                separated = any(
                    evaluate(left, f) != evaluate(right, f)
                    for f in family
                )
                if value == "S":
                    assert separated, (name, k, n1, n2)
                else:
                    assert not separated, (name, k, n1, n2)

    @pytest.mark.parametrize("name", ["A", "C"])
    def test_spoiler_win_realized_in_play(self, name):
        # Whenever minimax says the spoiler wins, the playing spoiler beats
        # the duplicator strategy too.
        p = PLANS[name]
        for k in (1, 2):
            for n1, n2 in ((1, 2), (1, 3), (2, 3)):
                left, right = expand(p, n1), expand(p, n2)
                if game_value(left, right, k) == "S":
                    out = play(left, right, k, ExhaustiveSpoiler(), ClosureDuplicator())
                    assert out.winner == "S"
