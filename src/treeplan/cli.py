"""Command-line surface: batch verification and report generation.

Exit codes: 0 pass, 1 property failure, 2 parse/usage error (also for
undecodable or too deeply nested input), 3 budget exceeded, 4 inference
inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import analysis, counting, efgame, logic
from .errors import (
    BudgetError,
    DomainError,
    FormulaSyntaxError,
    InferenceError,
    PlanSyntaxError,
    TreePlanError,
    UnboundVariableError,
)
from .plan import TreePlan, expand, parse_plan, plan_text
from .trees import Node, format_node, parse_node, path_text

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INFER = 4


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise DomainError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


def _read_plan(path: str) -> TreePlan:
    return parse_plan(_read_text(path))


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pretty_table(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return (
        "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
        )
        + "\n"
    )


def _csv_or_pretty(csv_text: str, pretty: bool) -> str:
    if not pretty:
        return csv_text
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return _pretty_table(rows)


def cmd_expand(args) -> int:
    p = _read_plan(args.plan)
    e = expand(p, args.n, budget=args.budget)
    lines = ["kind,node,value"]
    labels = {sigma: path_text(sigma) or "<>" for sigma in p.sorted_nodes()}
    sizes = dict.fromkeys(labels, 0)  # the fibers, tallied off the node list
    for v in e.nodes():
        sigma = v.plan_path
        sizes[sigma] += 1
        lines.append(f"node,{format_node(v)},{labels[sigma]}")
    lines += [f"fiber,{label},{sizes[sigma]}" for sigma, label in labels.items()]
    _emit(_csv_or_pretty("\n".join(lines) + "\n", args.pretty), args.out)
    return EXIT_PASS


def cmd_verify(args) -> int:
    p = _read_plan(args.plan)
    report_p = counting.verify_P(p, args.n, budget=args.budget)
    report_q = counting.verify_Q(p, args.n, budget=args.budget)
    text = report_p.to_csv() + "".join(
        line + "\n" for line in report_q.to_csv().splitlines()[1:]
    )
    _emit(_csv_or_pretty(text, args.pretty), args.out)
    return EXIT_PASS if (report_p.all_pass and report_q.all_pass) else EXIT_FAIL


def cmd_ef(args) -> int:
    p = _read_plan(args.plan)
    left = expand(p, args.n1, budget=args.budget)
    right = expand(p, args.n2, budget=args.budget)
    if args.spoiler == "exhaustive":
        spoiler = efgame.ExhaustiveSpoiler(budget=args.game_budget, seed=args.seed)
    else:
        spoiler = efgame.RandomSpoiler(seed=args.seed)
    outcome = efgame.play(left, right, args.k, spoiler, efgame.ClosureDuplicator())
    _emit(outcome.transcript, args.out)
    return EXIT_PASS if outcome.duplicator_won else EXIT_FAIL


def cmd_check(args) -> int:
    p = _read_plan(args.plan)
    e = expand(p, args.n, budget=args.budget)
    f = logic.parse_formula(args.formula)
    free = sorted(logic.free_vars(f))
    if not free:
        value = logic.evaluate(e, f, fast=True)
        _emit(("true" if value else "false") + "\n", args.out)
        return EXIT_PASS if value else EXIT_FAIL
    if len(free) == 1:
        count = len(logic.solution_set(e, f, free[0]))
        _emit(f"{count}\n", args.out)
        return EXIT_PASS
    raise DomainError(f"formula has several free variables: {free}")


def _parse_params(items: list[str]) -> dict[str, Node]:
    """The ``NAME=NODE`` bindings of repeated ``--param`` options."""
    params: dict[str, Node] = {}
    for item in items:
        name, sep, text = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise DomainError(f"--param needs NAME=NODE, got {item!r}")
        if name in params:
            raise DomainError(f"parameter {name} is bound twice")
        params[name] = parse_node(text)
    return params


def cmd_asymptotic(args) -> int:
    p = _read_plan(args.plan)
    f = logic.parse_formula(args.formula)
    params = _parse_params(args.param)
    free = sorted(logic.free_vars(f) - params.keys())
    if len(free) != 1:
        raise DomainError("the asymptotic check needs exactly one free variable")
    try:
        ladder = [int(part) for part in args.ladder.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"ladder sizes must be integers: {args.ladder!r}") from None
    report = logic.asymptotic_check(
        p, f, free[0], param_spec=params, ladder=ladder, tol=args.tol,
        budget=args.budget,
    )
    _emit(_csv_or_pretty(report.to_csv(), args.pretty), args.out)
    return EXIT_PASS if report.all_pass else EXIT_FAIL


def cmd_infer(args) -> int:
    t1 = analysis.parse_tree_text(_read_text(args.tree1))
    t2 = analysis.parse_tree_text(_read_text(args.tree2))
    p = analysis.infer_plan(t1, t2)
    _emit(plan_text(p) + "\n", args.out)
    return EXIT_PASS


def cmd_dividing(args) -> int:
    p = _read_plan(args.plan)
    e = expand(p, args.n, budget=args.budget)
    a = parse_node(args.a)
    set_b = frozenset(parse_node(s) for s in args.b.split(",") if s.strip())
    set_c = frozenset(parse_node(s) for s in args.c.split(",") if s.strip()) if args.c else frozenset()
    verdict = analysis.check_dividing(e, a, set_b, set_c)
    lines = [f"divides={'true' if verdict.divides else 'false'}"]
    if verdict.witness is not None:
        lines.append(f"witness={format_node(verdict.witness)}")
        family = ",".join(format_node(w) for w in sorted(verdict.conjugates))
        lines.append(f"conjugates={family}")
        lines.append(f"two_inconsistent={'true' if verdict.two_inconsistent else 'false'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, since an ``append`` action copies its default list."""
    parser = argparse.ArgumentParser(
        prog="treeplan",
        description="Tree plans: expansions, exact counting, logic, games, inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, plan=True, n=False):
        if plan:
            sp.add_argument("--plan", required=True, help="plan file")
        if n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--budget", type=int, default=None, help="node budget")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("expand", help="materialize an expansion")
    common(sp, n=True)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("verify", help="exact counting identities up to n")
    common(sp, n=True)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ef", help="play a k-round game between two expansions")
    common(sp)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--spoiler", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--game-budget", type=int, default=100_000)
    sp.set_defaults(func=cmd_ef)

    sp = sub.add_parser("check", help="evaluate a sentence or count solutions")
    common(sp, n=True)
    sp.add_argument("--formula", required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("asymptotic", help="dimension/measure report over a ladder")
    common(sp)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--ladder", default="2,3,4", help="comma-separated sizes")
    sp.add_argument("--tol", type=float, default=0.1)
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=NODE",
        help="bind a formula variable to a node, e.g. b=0:0/0:0 (repeatable)",
    )
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("infer", help="reconstruct a plan from two tree samples")
    sp.add_argument("tree1")
    sp.add_argument("tree2")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("dividing", help="decide the dividing criterion")
    common(sp, n=True)
    sp.add_argument("--a", required=True, help="node, e.g. 0:0/0:1")
    sp.add_argument("--b", required=True, help="comma-separated nodes")
    sp.add_argument("--c", default="", help="comma-separated nodes (subset of B)")
    sp.set_defaults(func=cmd_dividing)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PlanSyntaxError, FormulaSyntaxError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as err:
        print(f"budget error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except InferenceError as err:
        print(f"inference error: {err}", file=sys.stderr)
        for item in err.offending:
            print(f"  class: {item}", file=sys.stderr)
        return EXIT_INFER
    except (DomainError, UnboundVariableError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        # Parsers and tree walks recurse once per level of a plan, tree or formula.
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except TreePlanError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
