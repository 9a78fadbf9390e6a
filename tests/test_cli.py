import pytest

from treeplan import logic, parse_formula, parse_node
from treeplan.cli import build_parser, main

from conftest import PLAN_TEXTS, PLANS


@pytest.fixture
def plan_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.plan"
        path.write_text(PLAN_TEXTS[name] + "\n")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_single_node(self, plan_file, capsys):
        code, out, _ = run(capsys, ["expand", "--plan", plan_file("single"), "--n", "1"])
        assert code == 0
        node_lines = [l for l in out.splitlines() if l.startswith("node,")]
        assert node_lines == ["node,eps,<>"]

    def test_plan_a_three_nodes(self, plan_file, capsys):
        code, out, _ = run(capsys, ["expand", "--plan", plan_file("A"), "--n", "2"])
        assert code == 0
        node_lines = [l for l in out.splitlines() if l.startswith("node,")]
        assert len(node_lines) == 3
        assert "fiber,0,2" in out

    def test_bad_plan_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.plan"
        path.write_text("(inf)")
        code, _, err = run(capsys, ["expand", "--plan", str(path), "--n", "1"])
        assert code == 2 and "parse error" in err

    def test_budget_exits_3(self, plan_file, capsys):
        code, _, err = run(
            capsys,
            ["expand", "--plan", plan_file("B"), "--n", "5", "--budget", "10"],
        )
        assert code == 3 and "budget" in err


class TestVerify:
    def test_corpus_plan_passes(self, plan_file, capsys):
        code, out, _ = run(capsys, ["verify", "--plan", plan_file("D"), "--n", "3"])
        assert code == 0
        assert out.startswith("plan,quantity,n,observed,predicted,pass")
        assert ",false" not in out

    def test_budget(self, plan_file, capsys):
        code, _, _ = run(
            capsys, ["verify", "--plan", plan_file("B"), "--n", "6", "--budget", "20"]
        )
        assert code == 3

    def test_pretty(self, plan_file, capsys):
        code, out, _ = run(
            capsys, ["verify", "--plan", plan_file("A"), "--n", "2", "--pretty"]
        )
        assert code == 0 and "," not in out.splitlines()[0]


class TestEf:
    def test_above_threshold_duplicator_wins(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            ["ef", "--plan", plan_file("A"), "--n1", "3", "--n2", "8", "--k", "2"],
        )
        assert code == 0 and out.strip().endswith("winner=D")

    def test_zero_rounds(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            ["ef", "--plan", plan_file("A"), "--n1", "1", "--n2", "2", "--k", "0"],
        )
        assert code == 0

    def test_below_threshold_spoiler_wins(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            ["ef", "--plan", plan_file("A"), "--n1", "1", "--n2", "2", "--k", "2"],
        )
        assert code == 1 and out.strip().endswith("winner=S")

    def test_seeded_random_deterministic(self, plan_file, capsys):
        argv = [
            "ef", "--plan", plan_file("B"), "--n1", "2", "--n2", "3",
            "--k", "2", "--spoiler", "random", "--seed", "9",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_pretty_is_a_usage_error(self, plan_file, capsys):
        # Only expand, verify and asymptotic print tables.
        argv = ["ef", "--plan", plan_file("A"), "--n1", "1", "--n2", "2", "--k", "1", "--pretty"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err


class TestCheck:
    def test_tautology(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            ["check", "--plan", plan_file("A"), "--n", "2", "--formula", "forall x. x = x"],
        )
        assert code == 0 and out.strip() == "true"

    def test_count(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "check", "--plan", plan_file("C"), "--n", "3",
                "--formula", "pred(x) = eps & P[0](x)",
            ],
        )
        assert code == 0 and out.strip() == "3"

    def test_pred_power_with_a_20_digit_exponent(self, plan_file, capsys):
        # pred^k is one term node, so the exponent costs nothing to parse
        # and clamps at the root as pred^2 already does.
        argv = ["check", "--plan", plan_file("A"), "--n", "3", "--formula"]
        for power in ("2", "99999999999999999999"):
            code, out, err = run(capsys, argv + [f"pred^{power}(x) = eps"])
            assert (code, out, err) == (0, "4\n", "")

    def test_false_sentence(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            ["check", "--plan", plan_file("single"), "--n", "1",
             "--formula", "exists x. !(x = eps)"],
        )
        assert code == 1 and out.strip() == "false"

    def test_syntax_error(self, plan_file, capsys):
        code, _, err = run(
            capsys,
            ["check", "--plan", plan_file("A"), "--n", "2", "--formula", "x = "],
        )
        assert code == 2 and "parse error" in err


class TestAsymptotic:
    def test_plan_c_report(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "asymptotic", "--plan", plan_file("C"), "--formula", "P[0](x)",
                "--ladder", "10,20,50", "--tol", "0.02",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,observed,delta,mu,predicted,ratio,pass"
        assert len(lines) == 4
        assert lines[-1].startswith("50,50,1,0.500000")

    def test_inexact_class_counts_exit_1(self, plan_file, capsys):
        # With b bound, x is the one free variable left; the class counts
        # the relative fiber polynomials predict are not exact here.
        code, out, _ = run(
            capsys,
            ["asymptotic", "--plan", plan_file("B"),
             "--formula", "P[0.0](x) & !(pred(x) = pred(b))",
             "--param", "b=0:0/0:0", "--ladder", "3,4,5,50"],
        )
        assert code == 1
        assert out.strip().splitlines()[-1].endswith(",true")

    def test_param_report_matches_the_library(self, plan_file, capsys):
        formula = "P[0.0](x) & !(pred(x) = pred(b))"
        code, out, _ = run(
            capsys,
            ["asymptotic", "--plan", plan_file("B"), "--formula", formula,
             "--param", "b=0:0/0:0", "--ladder", "3,4"],
        )
        report = logic.asymptotic_check(
            PLANS["B"], parse_formula(formula), "x",
            param_spec={"b": parse_node("0:0/0:0")}, ladder=(3, 4),
        )
        assert out == report.to_csv()
        assert code == (0 if report.all_pass else 1)

    def test_two_unbound_variables_exit_2(self, plan_file, capsys):
        code, _, err = run(
            capsys,
            ["asymptotic", "--plan", plan_file("B"),
             "--formula", "P[0.0](x) & !(pred(x) = pred(b))"],
        )
        assert code == 2 and "exactly one free variable" in err

    @pytest.mark.parametrize(
        "param", ["b", "=0:0/0:0", "b=", "b=0:x", "b=0:0/0:0/0:0"]
    )
    def test_malformed_param_exits_2(self, plan_file, capsys, param):
        # The last one parses but is not a node of the expansions.
        code, out, err = run(
            capsys,
            ["asymptotic", "--plan", plan_file("B"),
             "--formula", "P[0.0](x) & !(pred(x) = pred(b))",
             "--param", param, "--ladder", "3,4"],
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")

    def test_param_bound_twice_exits_2(self, plan_file, capsys):
        code, _, err = run(
            capsys,
            ["asymptotic", "--plan", plan_file("B"), "--formula", "P[0.0](x)",
             "--param", "b=0:0", "--param", "b=0:1", "--ladder", "3,4"],
        )
        assert code == 2 and "bound twice" in err


class TestRepeatedCalls:
    def test_param_does_not_carry_over(self, plan_file, capsys):
        # The parser is built once per process; each call's ``--param``
        # list must start empty, so the last call has two free variables.
        head = ["asymptotic", "--plan", plan_file("B"),
                "--formula", "P[0.0](x) & !(pred(x) = b)", "--ladder", "3,4"]
        argvs = [head + ["--param", "b=0:0"], head + ["--param", "b=0:1"], head]
        outcomes = [run(capsys, argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert outcomes == fresh
        # Two reports (a verdict, 0 or 1), then a usage error.
        assert [code < 2 and out != "" for code, out, _ in outcomes] == [True, True, False]
        assert outcomes[2][0] == 2 and "exactly one free variable" in outcomes[2][2]


class TestInfer:
    def test_round_trip(self, tmp_path, capsys):
        from treeplan import expand, parse_plan

        p = parse_plan(PLAN_TEXTS["D"])
        for n, name in ((2, "t1"), (3, "t2")):
            e = expand(p, n)
            lines = []
            order = {v: i for i, v in enumerate(e.nodes())}
            for v in e.nodes():
                lines.append("-1" if v.depth == 0 else str(order[v.parent()]))
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, ["infer", str(tmp_path / "t1"), str(tmp_path / "t2")]
        )
        assert code == 0
        from treeplan import plan_isomorphic

        assert plan_isomorphic(parse_plan(out.strip()), p)

    def test_single_nodes(self, tmp_path, capsys):
        (tmp_path / "a").write_text("(1)")
        (tmp_path / "b").write_text("-1")
        code, out, _ = run(capsys, ["infer", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 0 and out.strip() == "(1)"

    def test_inconsistent_exits_4(self, tmp_path, capsys):
        from treeplan import expand, parse_plan

        t1 = expand(parse_plan(PLAN_TEXTS["B"]), 2)
        t2 = expand(parse_plan(PLAN_TEXTS["C"]), 3)
        for name, e in (("t1", t1), ("t2", t2)):
            order = {v: i for i, v in enumerate(e.nodes())}
            lines = ["-1" if v.depth == 0 else str(order[v.parent()]) for v in e.nodes()]
            (tmp_path / name).write_text("\n".join(lines))
        code, _, err = run(capsys, ["infer", str(tmp_path / "t1"), str(tmp_path / "t2")])
        assert code == 4 and "inference error" in err


class TestDividing:
    def test_spec_example(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "dividing", "--plan", plan_file("B"), "--n", "3",
                "--a", "0:0/0:1", "--b", "0:0", "--c", "",
            ],
        )
        assert code == 0
        assert "divides=true" in out
        assert "witness=0:0" in out
        assert "conjugates=0:0,0:1,0:2" in out
        assert "two_inconsistent=true" in out

    def test_not_dividing(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "dividing", "--plan", plan_file("B"), "--n", "3",
                "--a", "0:0/0:1", "--b", "", "--c", "",
            ],
        )
        assert code == 0 and out.strip() == "divides=false"

    def test_member_of_c_never_divides(self, plan_file, capsys):
        code, out, _ = run(
            capsys,
            [
                "dividing", "--plan", plan_file("B"), "--n", "3",
                "--a", "0:0", "--b", "0:0", "--c", "0:0",
            ],
        )
        assert code == 0 and out.strip() == "divides=false"


class TestAtAMillion:
    """Games and sentences need only membership, so they run at sizes whose
    trees are far over the node budget; listing the nodes still is not."""

    def test_ef(self, plan_file, capsys):
        code, out, err = run(
            capsys,
            ["ef", "--plan", plan_file("B"), "--n1", "1000000", "--n2", "1000001", "--k", "3"],
        )
        assert (code, err) == (0, "") and out.endswith("winner=D\n")

    def test_check_sentence(self, plan_file, capsys):
        sentence = "exists x. exists y. !(x = y) & pred(x) = pred(y)"
        argv = ["check", "--plan", plan_file("B"), "--n", "1000000", "--formula", sentence]
        assert run(capsys, argv) == (0, "true\n", "")

    @pytest.mark.parametrize(
        "argv",
        [["expand", "--n", "1000000"], ["check", "--n", "1000000", "--formula", "pred(x) = eps"]],
        ids=["expand", "check_count"],
    )
    def test_listing_exits_3(self, plan_file, capsys, argv):
        code, out, err = run(capsys, argv[:1] + ["--plan", plan_file("B")] + argv[1:])
        assert (code, out) == (3, "")
        assert err == "budget error: expansion would have 1000001000001 nodes; budget is 2000000\n"


class TestDeepPlan:
    # The plan parser keeps an explicit stack, so a 5,000-deep chain plan
    # is read and checked, not refused as nested too deeply.
    def test_check(self, tmp_path, capsys):
        deep_plan = tmp_path / "deep.plan"
        deep_plan.write_text("(1 " * 5000 + ")" * 5000)
        argv = ["check", "--plan", str(deep_plan), "--n", "1", "--formula", "exists x. x = eps"]
        assert run(capsys, argv) == (0, "true\n", "")


class TestDeepTreeInference:
    def test_failure_prints_one_line_per_reason(self, tmp_path, capsys):
        # 3,000 sizes fail for one reason: one range, not one line each.
        (tmp_path / "deep.tree").write_text("(1 " * 3000 + ")" * 3000)
        (tmp_path / "two.tree").write_text("(1 (1) (1))")
        argv = ["infer", str(tmp_path / "deep.tree"), str(tmp_path / "two.tree")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "inference error: samples admit no consistent plan",
            "  class: n=3000..1: no consistent class matching",
        ]


class TestGoldenTranscripts:
    """Whole stdout and exit code of one run per command family, so a
    change that should keep output byte-identical is checked line by line."""

    @pytest.mark.parametrize(
        "name, argv, code, expected",
        [
            (
                "inf_one_inf",
                ["ef", "--n1", "2", "--n2", "3", "--k", "3"],
                1,
                "1;L;0:0\n1;R;0:0\n2;L;0:1\n2;R;0:1\n3;R;0:2\n3;L;0:0\n"
                "# capacity exhausted at eps branch 0\nwinner=S\n",
            ),
            (
                "B",
                ["ef", "--n1", "3", "--n2", "4", "--k", "3", "--game-budget", "10"],
                0,
                "1;R;0:2/0:1\n1;L;0:0/0:0\n2;R;0:0/0:3\n2;L;0:1/0:0\n"
                "3;R;0:2/0:0\n3;L;0:0/0:1\n"
                + "# budget 10 exceeded; random fallback with seed 0\n" * 3
                + "winner=D\n",
            ),
            (
                "chain3",
                ["dividing", "--n", "3", "--a", "0:1/0:2/0:0", "--b", "0:1/0:2,0:1", "--c", "0:1"],
                0,
                "divides=true\nwitness=0:1/0:2\nconjugates=0:1/0:0,0:1/0:1,0:1/0:2\n"
                "two_inconsistent=true\n",
            ),
            (
                "C",
                ["asymptotic", "--formula", "P[0](x) | P[1](x)", "--ladder", "3,5,8"],
                0,
                "n,observed,delta,mu,predicted,ratio,pass\n"
                "3,6,1,1.000000,7.000,0.857143,false\n"
                "5,10,1,1.000000,11.000,0.909091,true\n"
                "8,16,1,1.000000,17.000,0.941176,true\n",
            ),
        ],
        ids=["ef_capacity_note", "ef_budget_fallback", "dividing_conjugates", "asymptotic_C"],
    )
    def test_transcript(self, plan_file, capsys, name, argv, code, expected):
        argv = argv[:1] + ["--plan", plan_file(name)] + argv[1:]
        assert run(capsys, argv) == (code, expected, "")


# A deep plan parses now (see TestDeepPlan), so the deep inputs refused
# here are unbalanced: the error names the position of the missing ")".
DEEP_UNCLOSED = "(1 " * 3000 + ")" * 2999
NOT_UTF8 = b"(1 (\xff))"
DEEP_PARENTHESES = "(" * 3000 + "eps = eps" + ")" * 3000


class TestMalformedInput:
    @pytest.mark.parametrize(
        "content, argv",
        [
            (DEEP_UNCLOSED, ["expand", "--plan", "{bad}", "--n", "1"]),
            (DEEP_UNCLOSED, ["infer", "{bad}", "{tree}"]),
            # Negations are counted in a loop; parentheses still recurse.
            (None, ["check", "--plan", "{plan}", "--n", "1", "--formula", DEEP_PARENTHESES]),
            (NOT_UTF8, ["expand", "--plan", "{bad}", "--n", "1"]),
            (NOT_UTF8, ["infer", "{tree}", "{bad}"]),
            (None, ["asymptotic", "--plan", "{plan}", "--formula", "P[0](x)", "--ladder", "a,b"]),
            ("(1 () (1))", ["infer", "{bad}", "{tree}"]),
            ("(inf (1))", ["infer", "{bad}", "{tree}"]),
        ],
        ids=[
            "deep_plan", "deep_tree", "deep_formula", "non_utf8_plan", "non_utf8_tree",
            "bad_ladder", "markless_tree", "inf_root_tree",
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, capsys, content, argv):
        paths = {"plan": tmp_path / "ok.plan", "tree": tmp_path / "ok.tree", "bad": tmp_path / "bad"}
        paths["plan"].write_text("(1 (inf))")
        paths["tree"].write_text("(1 (1) (1))")
        if isinstance(content, bytes):
            paths["bad"].write_bytes(content)
        elif content is not None:
            paths["bad"].write_text(content)
        argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv]
        code, _, err = run(capsys, argv)
        assert code in (2, 3, 4)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_long_conjunction(self, tmp_path, capsys):
        # The formula walks keep explicit stacks, so a chain of 3,000
        # connectives is answered, not refused as nested too deeply.
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        formula = "forall x. " + " & ".join(["x = x"] * 3000)
        code, out, err = run(capsys, ["check", "--plan", str(plan), "--n", "2", "--formula", formula])
        assert (code, out, err) == (0, "true\n", "")

    def test_too_many_quantifiers(self, tmp_path, capsys):
        # The sentence parses, but compiling it recurses once per quantifier.
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        formula = "".join(f"exists x{i}. " for i in range(600)) + "x0 = x599"
        code, out, err = run(capsys, ["check", "--plan", str(plan), "--n", "2", "--formula", formula])
        assert (code, out, err) == (2, "", "error: input nested too deeply\n")

    def test_long_conjunction_in_the_asymptotic_report(self, tmp_path, capsys):
        # The report renders the formula, with one loop per chain.
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        formula = " & ".join(["P[0](x)"] * 3000)
        code, out, err = run(capsys, ["asymptotic", "--plan", str(plan), "--formula", formula])
        assert code in (0, 1) and err == ""
        assert out.startswith("n,observed,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["asymptotic", "--plan", "{plan}", "--formula", "P[0](x)", "--tol", "nan"],
            ["asymptotic", "--plan", "{plan}", "--formula", "P[0](x)", "--tol", "-0.5"],
            ["ef", "--plan", "{plan}", "--n1", "2", "--n2", "3", "--k", "2", "--game-budget", "-5"],
        ],
        ids=["tol_nan", "tol_negative", "game_budget_negative"],
    )
    def test_bad_numeric_option_exits_2(self, tmp_path, capsys, argv):
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        code, out, err = run(capsys, [arg.format(plan=plan) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--plan", "{plan}", "--n", "2"],
            ["verify", "--plan", "{plan}", "--n", "2"],
            ["ef", "--plan", "{plan}", "--n1", "2", "--n2", "3", "--k", "2"],
            ["check", "--plan", "{plan}", "--n", "2", "--formula", "exists x. pred(x) = eps"],
            ["check", "--plan", "{plan}", "--n", "2", "--formula", "pred(x) = eps"],
            ["asymptotic", "--plan", "{plan}", "--formula", "P[0](x)"],
            ["dividing", "--plan", "{plan}", "--n", "2", "--a", "0:1", "--b", "0:1"],
        ],
        ids=["expand", "verify", "ef", "check_sentence", "check_count", "asymptotic", "dividing"],
    )
    def test_negative_budget_exits_2(self, tmp_path, capsys, argv):
        # Refused when expanding, before any tree is built or game played.
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        argv = [arg.format(plan=plan) for arg in argv] + ["--budget", "-5"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: the node budget must be non-negative, got -5\n"

    def test_long_conjunction_with_a_free_variable(self, tmp_path, capsys):
        plan = tmp_path / "ok.plan"
        plan.write_text("(1 (inf))")
        # The root and its two children: the root is its own predecessor.
        formula = " & ".join(["pred(x) = eps"] * 3000)
        code, out, err = run(capsys, ["check", "--plan", str(plan), "--n", "2", "--formula", formula])
        assert (code, out, err) == (0, "3\n", "")


class TestOutput:
    def test_out_file(self, plan_file, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            ["verify", "--plan", plan_file("A"), "--n", "2", "--out", str(target)],
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("plan,quantity")
