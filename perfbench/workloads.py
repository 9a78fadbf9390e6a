"""Task lists of the three workloads.

A task is one verdict.  ``run`` is the timed call: it builds its own
expansions and calls the library through module attributes looked up at
call time, so the traced run sees the wrapped functions.  It returns a
small value, never an expansion.  ``check`` runs off the clock and decides
the verdict from that value and, for cross-checks, the values of other
tasks.  A task with ``known_defect`` set may fail until that defect is
fixed; when it also has a ``signature``, only a failure whose value shows
the defect is excused.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import corpus
import oracles


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], bool]
    known_defect: Optional[str] = None
    # For a defect that only some inputs hit: does this value show it?
    signature: Optional[Callable[[object], bool]] = None


def build(tp, workload: str, seed: int, workdir: str) -> list[Task]:
    """Parse the corpus and generate the workload's tasks from ``seed``."""
    plans = {name: tp.parse_plan(text) for name, text in corpus.PLAN_TEXTS.items()}
    rng = random.Random(f"{workload}:{seed}")
    make_tasks = {"games": _games, "logic": _logic, "structure": _structure}[workload]
    return make_tasks(tp, plans, rng, workdir)


def _equals(expected):
    return lambda value, _results: value == expected


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(tp, argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tp.cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------
# games: back-and-forth games at and below the size threshold


DUPLICATOR_DROP = (
    "duplicator breaks equality with an earlier pick below a mark-1 node: "
    "_rebuild_embedding drops such picks (found by this benchmark)"
)


def _dropped_pick(transcript: str) -> bool:
    """Does a round break equality with an earlier one, with the elements
    involved lying below a mark-1 node?"""
    picks: dict[str, dict[str, str]] = {}
    for line in transcript.splitlines():
        if not line.startswith(("#", "winner=")):
            r, side, node = line.split(";")
            picks.setdefault(r, {})[side] = node
    rounds = [(both.get("L"), both.get("R")) for both in picks.values()]
    for j, (left, right) in enumerate(rounds):
        for left_i, right_i in rounds[:j]:
            if (left == left_i) != (right == right_i):
                return any("*/" in node for node in (left, right, left_i, right_i))
    return False


class ScriptedSpoiler:
    """Plays a fixed list of (side, node) moves."""

    def __init__(self, tp, moves):
        self.moves = [(side, tp.parse_node(node)) for side, node in moves]

    def pick(self, state):
        return self.moves[len(state.picks_left)]


def _games(tp, plans, rng, workdir) -> list[Task]:
    tasks = []

    def game(p, n1, n2, k, make_spoiler):
        def run():
            left, right = tp.expand(p, n1), tp.expand(p, n2)
            return tp.play(left, right, k, make_spoiler(), tp.ClosureDuplicator()).transcript

        return run

    def winner(expected):
        return lambda transcript, _r: transcript.endswith(f"winner={expected}\n")

    for name, p in plans.items():
        for k in (2, 3):
            if k == 3 and oracles.degree(oracles.plan_marks(corpus.PLAN_TEXTS[name])) > 2:
                # The k = 3 games of chain3 and chain3_one take about 10 s
                # together, more than the rest of a pass; they are left out
                # so that several passes fit in one run.
                continue
            n0 = max(1, tp.size_threshold(p, k))
            seed = rng.randrange(10**6)
            tasks.append(Task(
                f"exhaustive/{name}/k{k}/{n0}v{n0 + 1}",
                game(p, n0, n0 + 1, k,
                     lambda s=seed: tp.ExhaustiveSpoiler(budget=400_000, seed=s)),
                winner("D"),
            ))
            for j in range(2):
                seed = rng.randrange(10**6)
                tasks.append(Task(
                    f"random{j}/{name}/k{k}/{n0}v{n0 + 1}",
                    game(p, n0, n0 + 1, k, lambda s=seed: tp.RandomSpoiler(s)),
                    winner("D"),
                    known_defect=DUPLICATOR_DROP,
                    signature=_dropped_pick,
                ))

    # The dropped-pick defect, reproduced without a random spoiler.
    p = plans["inf_one_inf"]
    n0 = tp.size_threshold(p, 2)
    moves = [("R", "0:0/0:*/0:0"), ("R", "0:0/0:*/0:1")]
    tasks.append(Task(
        f"scripted/inf_one_inf/k2/{n0}v{n0 + 1}",
        game(p, n0, n0 + 1, 2, lambda: ScriptedSpoiler(tp, moves)),
        winner("D"),
        known_defect=DUPLICATOR_DROP,
    ))

    for name, p in plans.items():
        if not p.inf_nodes:
            continue
        seed = rng.randrange(10**6)
        tasks.append(Task(
            f"separate/{name}/k2/1v2",
            game(p, 1, 2, 2, lambda s=seed: tp.ExhaustiveSpoiler(seed=s)),
            winner("S"),
        ))

        def value(p=p):
            return tp.game_value(tp.expand(p, 1), tp.expand(p, 2), 2)

        tasks.append(Task(f"game_value/{name}/k2/1v2", value, _equals("S")))

    plan_file = _write(workdir, "A.plan", corpus.PLAN_TEXTS["A"])
    n0 = tp.size_threshold(plans["A"], 2)
    argv = ["ef", "--plan", plan_file, "--n1", str(n0), "--n2", str(n0 + 1),
            "--k", "2", "--seed", str(rng.randrange(10**6))]
    tasks.append(Task(
        "cli/ef/A/k2",
        lambda: _cli(tp, argv),
        lambda value, _r: value[0] == 0 and value[1].endswith("winner=D\n"),
    ))
    return tasks


# --------------------------------------------------------------------------
# logic: probe sentences in both evaluation modes, asymptotic checks


def _logic(tp, plans, rng, workdir) -> list[Task]:
    tasks = []

    def evaluation(p, n, f, fast):
        return lambda: tp.evaluate(tp.expand(p, n), f, fast=fast)

    def agrees_with(ref):
        def check(value, results):
            return ref in results and value == results[ref]

        return check

    for name, p in plans.items():
        for i, f in enumerate(corpus.probe_suite(tp, p)):
            n0 = max(1, tp.size_threshold(p, tp.qrank(f)))
            ref = f"probe/{name}/{i}/n{n0}/plain"
            for n in range(n0, n0 + corpus.PROBE_MARGIN + 1):
                for mode, fast in (("fast", True), ("plain", False)):
                    # Constant along the ladder, and fast = plain.
                    tasks.append(Task(
                        f"probe/{name}/{i}/n{n}/{mode}",
                        evaluation(p, n, f, fast),
                        agrees_with(ref),
                    ))

    shadowing = tp.parse_formula(corpus.DEFECT_SHADOWING)
    for name, p in plans.items():
        if (0,) not in p.nodes:
            continue
        n0 = max(1, tp.size_threshold(p, tp.qrank(shadowing)))
        for mode, fast in (("fast", True), ("plain", False)):
            tasks.append(Task(
                f"shadowing/{name}/n{n0}/{mode}",
                evaluation(p, n0, shadowing, fast),
                _equals(True),
                known_defect="ROADMAP item 4: shadowed variable unbound",
            ))

    low = min(corpus.ASYMPTOTIC_LADDER)

    def param_node(marks, path):
        # A fiber member every ladder point realizes; the tags come from the seed.
        segs = [
            f"{b}:{rng.randrange(low) if marks[path[: i + 1]] else '*'}"
            for i, b in enumerate(path)
        ]
        return tp.parse_node("/".join(segs))

    def asymptotic(p, f, params):
        def run():
            report = tp.asymptotic_check(
                p, f, "x", param_spec=params, ladder=corpus.ASYMPTOTIC_LADDER,
                tol=corpus.ASYMPTOTIC_TOL,
            )
            return (report.all_pass, report.classes_stable,
                    report.class_counts_exact, report.rows[-1].passed)

        return run

    def honest(value, _results):
        # No report may say all_pass while its class counts are inexact.
        all_pass, _stable, exact, _top = value
        return exact or not all_pass

    def criterion_4(value, results):
        return honest(value, results) and all(value)

    for i, (name, text, spec) in enumerate(corpus.ASYMPTOTIC_SUITE):
        marks = oracles.plan_marks(corpus.PLAN_TEXTS[name])
        params = {var: param_node(marks, path) for var, path in spec.items()}
        tasks.append(Task(
            f"asymptotic/{name}/{i}",
            asymptotic(plans[name], tp.parse_formula(text), params),
            criterion_4,
        ))
    name, text, spec = corpus.DEFECT_ASYMPTOTIC
    params = {var: tp.parse_node(node) for var, node in spec.items()}
    tasks.append(Task(
        f"asymptotic/{name}/defect",
        asymptotic(plans[name], tp.parse_formula(text), params),
        honest,
        known_defect="ROADMAP item 3: all_pass ignores class_counts_exact",
    ))

    plan_file = _write(workdir, "B.plan", corpus.PLAN_TEXTS["B"])
    sentence = "exists x. exists y. !(x = y) & pred(x) = pred(y)"
    n = 1 + rng.randrange(4)
    check_argv = ["check", "--plan", plan_file, "--n", str(n), "--formula", sentence]

    def check_cli(value, _results):
        truth = tp.evaluate(tp.expand(plans["B"], n), tp.parse_formula(sentence))
        return value == (0 if truth else 1, "true\n" if truth else "false\n")

    tasks.append(Task(f"cli/check/B/n{n}", lambda: _cli(tp, check_argv), check_cli))

    plan_file = _write(workdir, "C.plan", corpus.PLAN_TEXTS["C"])
    ladder = ",".join(map(str, corpus.ASYMPTOTIC_LADDER))
    asym_argv = ["asymptotic", "--plan", plan_file, "--formula", "P[0](x)",
                 "--ladder", ladder, "--tol", str(corpus.ASYMPTOTIC_TOL)]
    tasks.append(Task(
        "cli/asymptotic/C",
        lambda: _cli(tp, asym_argv),
        lambda value, _r: value[0] == 0
        and len(value[1].splitlines()) == 1 + len(corpus.ASYMPTOTIC_LADDER),
    ))
    return tasks


# --------------------------------------------------------------------------
# structure: exact counting, large expansions, inference, dividing

VERIFY_N = 8
INFER_SIZES = range(1, 5)
LARGE_NODES = 3_000  # node count of each plan's large expansion
HEAP_NODES = 40_000  # node count of the one heap-sized expansion
DIVIDING_TRIPLES = 30  # per plan, as in criterion 8


LONE_CONJUGATE = (
    "check_dividing reports divides with a one-member conjugate family "
    "when B fills the witness's fiber (found by this benchmark)"
)


def _structure(tp, plans, rng, workdir) -> list[Task]:
    tasks = []
    marks = {name: oracles.plan_marks(text) for name, text in corpus.PLAN_TEXTS.items()}

    for name, p in plans.items():
        m = marks[name]

        def verify_p(p=p):
            report = tp.verify_P(p, VERIFY_N)
            return report.all_pass, tuple(row.observed for row in report.rows)

        def verify_q(p=p):
            report = tp.verify_Q(p, VERIFY_N)
            return report.all_pass, len(report.rows)

        def sizes_ok(value, _results, m=m):
            sizes = tuple(oracles.expansion_size(m, n) for n in range(1, VERIFY_N + 1))
            return value == (True, sizes)

        def rows_ok(value, _results, m=m):
            return value == (True, oracles.verify_q_rows(m, VERIFY_N))

        tasks.append(Task(f"verify_P/{name}", verify_p, sizes_ok))
        tasks.append(Task(f"verify_Q/{name}", verify_q, rows_ok))

    for name, p in plans.items():
        m = marks[name]
        if not 1 <= oracles.degree(m) <= 2:
            continue
        n = oracles.largest_size(m, LARGE_NODES)

        def large(p=p, n=n):
            return len(tp.expand(p, n))

        def size_check(value, _results, p=p, n=n, m=m):
            return value == tp.plan.predicted_size(p, n) == tp.poly_P(p)(n) \
                == oracles.expansion_size(m, n)

        tasks.append(Task(f"expand/{name}/n{n}", large, size_check))
        if name == "B":
            # One expansion big enough that the node representation sets the heap.
            n = oracles.largest_size(m, HEAP_NODES)
            tasks.append(Task(f"expand/{name}/n{n}", functools.partial(large, n=n),
                              functools.partial(size_check, n=n)))

    def same_plan(m):
        return lambda value, _r: \
            oracles.canonical(oracles.marks_of_treeplan(value)) == oracles.canonical(m)

    for name, p in plans.items():
        for n in INFER_SIZES:
            def infer(p=p, n=n):
                return tp.infer_plan(tp.expand(p, n).tree, tp.expand(p, n + 1).tree)

            tasks.append(Task(f"infer/{name}/n{n}", infer, same_plan(marks[name])))

    for name, p in plans.items():
        # One task per plan: its triples share one expansion, as in
        # criterion 8, and the task time averages over them.
        n = 2 + tp.ell(p) * tp.height(p)
        nodes = oracles.node_texts(marks[name], n)
        triples = []
        for _ in range(DIVIDING_TRIPLES):
            set_b = frozenset(
                tp.parse_node(t) for t in rng.sample(nodes, rng.randint(0, min(3, len(nodes))))
            )
            set_c = frozenset(rng.sample(sorted(set_b), rng.randint(0, len(set_b))))
            triples.append((tp.parse_node(rng.choice(nodes)), set_b, set_c))

        def dividing(p=p, n=n, triples=triples):
            e = tp.expand(p, n)
            verdicts = [tp.check_dividing(e, a, b, c) for a, b, c in triples]
            return tuple((v.divides, len(v.conjugates or ())) for v in verdicts)

        def mismatches(value, p=p, n=n, triples=triples):
            e = tp.expand(p, n)
            return [
                (divides, size) for (divides, size), (a, b, c) in zip(value, triples)
                if divides != oracles.dividing_brute_force(tp, e, a, b, c)
            ]

        tasks.append(Task(
            f"dividing/{name}/n{n}",
            dividing,
            lambda value, _r, mismatches=mismatches: not mismatches(value),
            known_defect=LONE_CONJUGATE,
            signature=lambda value, mismatches=mismatches: all(
                divides and size < 2 for divides, size in mismatches(value)
            ),
        ))

    d_file = _write(workdir, "D.plan", corpus.PLAN_TEXTS["D"])
    verify_argv = ["verify", "--plan", d_file, "--n", "6"]
    tasks.append(Task(
        "cli/verify/D",
        lambda: _cli(tp, verify_argv),
        lambda value, _r: value[0] == 0
        and len(value[1].splitlines()) == 1 + 6 + oracles.verify_q_rows(marks["D"], 6),
    ))

    name = "inf_mixed"
    t1 = _write(workdir, "t1.tree", oracles.sample_text(marks[name], 3))
    t2 = _write(workdir, "t2.tree", oracles.sample_text(marks[name], 4))
    infer_argv = ["infer", t1, t2]

    def inferred_matches(value, _results):
        code, text = value
        return code == 0 and oracles.canonical(oracles.plan_marks(text)) == \
            oracles.canonical(marks[name])

    tasks.append(Task(f"cli/infer/{name}", lambda: _cli(tp, infer_argv), inferred_matches))

    b_file = _write(workdir, "B.plan", corpus.PLAN_TEXTS["B"])
    expand_argv = ["expand", "--plan", b_file, "--n", "20"]
    tasks.append(Task(
        "cli/expand/B/n20",
        lambda: _cli(tp, expand_argv),
        lambda value, _r: value[0] == 0
        and sum(line.startswith("node,") for line in value[1].splitlines())
        == oracles.expansion_size(marks["B"], 20),
    ))
    return tasks
