"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
they are also captured in the regular output on failure.
"""

import random
import time
import zlib

import pytest

from treeplan import (
    ClosureDuplicator,
    ExhaustiveSpoiler,
    RandomSpoiler,
    check_dividing,
    deg,
    dim_measure,
    ell,
    expand,
    height,
    induced_automorphism,
    infer_plan,
    orbit,
    parse_formula,
    plan_isomorphic,
    plan_text,
    play,
    pseudofinite_probe,
    qftp,
    qrank,
    rearrange,
    separating_family,
    size_threshold,
    verify_P,
    verify_Q,
)
from treeplan.analysis import automorphism_over, check_embedding, instance_solutions
from treeplan.counting import fiber_above, poly_P
from treeplan.logic import asymptotic_check
from treeplan.plan import predicted_size

from conftest import PLANS, random_embedding, random_subset


def verdict(number: int, ok: bool, description: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert ok, f"criterion {number} failed: {description}"


N_MAX = 6


def test_criterion_1_exact_counting():
    """Size and fiber counts match the polynomials exactly, n = 1..6."""
    start = time.time()
    assert len(PLANS) >= 20
    assert {"A", "B", "C", "D"} <= set(PLANS)
    for p in PLANS.values():
        assert len(p) <= 8 and height(p) <= 3
    failures = []
    for name, p in PLANS.items():
        if not verify_P(p, N_MAX).all_pass:
            failures.append((name, "P"))
        if not verify_Q(p, N_MAX).all_pass:
            failures.append((name, "Q"))
    elapsed = time.time() - start
    verdict(
        1,
        not failures and elapsed <= 60,
        f"exact counting over {len(PLANS)} plans, n<=6, zero tolerance "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_fiber_exactness():
    """Every fiber and every relative fiber above every witness is exact."""
    checked = 0
    failures = []
    for name, p in PLANS.items():
        report = verify_Q(p, N_MAX)
        for row in report.rows:
            checked += 1
            if not row.passed:
                failures.append((name, row.quantity, row.n))
    verdict(
        2,
        not failures,
        f"fiber and relative-fiber identities exact ({checked} checks)",
    )


def test_criterion_3_limit_surrogate():
    """Ratios approach the measure: within 10% at n=50, shrinking deviations."""
    sizes = (10, 20, 50)
    bad = []
    tested = 0
    for name, p in PLANS.items():
        if deg(p) > 2:
            continue
        expansions = {n: expand(p, n) for n in sizes}
        size_poly = poly_P(p)
        pairs = [
            (sigma, sigma_p)
            for sigma in p.sorted_nodes()
            for sigma_p in p.sorted_nodes()
            if sigma_p[: len(sigma)] == sigma
        ]
        for sigma, sigma_p in pairs:
            dm = dim_measure(p, sigma, sigma_p)
            devs = []
            for n in sizes:
                e = expansions[n]
                witness = e.fiber(sigma)[0]
                observed = len(fiber_above(e, witness, sigma_p))
                ratio = observed / (float(size_poly(n)) ** float(dm.delta))
                devs.append(abs(ratio - dm.mu))
            tested += 1
            if devs[-1] > 0.1 * dm.mu:
                bad.append((name, sigma, sigma_p, "tolerance"))
            if not (devs[0] >= devs[1] - 1e-12 and devs[1] >= devs[2] - 1e-12):
                bad.append((name, sigma, sigma_p, "trend"))

    # Closed-form target for the two-leaf-fiber plan at n = 50.
    e50 = expand(PLANS["C"], 50)
    ratio = len(e50.fiber((0,))) / len(e50)
    target_ok = abs(ratio - 0.5) < 0.005 and ratio == pytest.approx(50 / 101)

    verdict(
        3,
        not bad and target_ok,
        f"limit surrogate within 10% at n=50 with shrinking deviation "
        f"({tested} witness pairs; two-fiber plan ratio {ratio:.4f})",
    )


ASYMPTOTIC_SUITE = [
    ("A", "x = x", {}),
    ("C", "P[0](x)", {}),
    ("B", "P[0.0](x)", {}),
    ("C", "pred(x) = eps", {}),
    ("B", "pred(x) = b & P[0.0](x)", {"b": (0,)}),
    ("B", "pred^2(x) = eps & P[0.0](x)", {}),
    ("D", "P[1](x)", {}),
    ("D", "pred(x) = eps", {}),
    ("deep_and_leaf", "meet(x, b) = b & P[0.0](x)", {"b": (0,)}),
    ("double_deep", "P[0.0](x) | P[0.1](x)", {}),
    ("B", "x = b | x = c", {"b": (0,), "c": (0, 0)}),
    ("inf_one_inf", "P[0.0.0](x)", {}),
]


def test_criterion_4_asymptotic_classes():
    """Class counts match the relative fiber polynomials exactly and the
    predicted dimension/measure lands within 0.1 at the ladder top."""
    start = time.time()
    assert len(ASYMPTOTIC_SUITE) >= 10
    bad = []
    for name, text, params in ASYMPTOTIC_SUITE:
        f = parse_formula(text)
        assert qrank(f) == 0
        assert len(params) <= 2
        report = asymptotic_check(
            PLANS[name], f, "x", param_spec=params, ladder=(3, 4, 5, 40), tol=0.1
        )
        if not report.classes_stable:
            bad.append((name, text, "unstable classes"))
        if not report.class_counts_exact:
            bad.append((name, text, "inexact class counts"))
        if not report.rows[-1].passed:
            bad.append((name, text, "tolerance"))
    elapsed = time.time() - start
    verdict(
        4,
        not bad and elapsed <= 300,
        f"{len(ASYMPTOTIC_SUITE)} quantifier-free formulas: exact classes, "
        f"(delta, mu) within 0.1 at ladder top ({elapsed:.1f}s)",
    )


def test_criterion_5_ef_strategy():
    """The closure-embedding duplicator never loses above the size
    threshold; below it the exhaustive spoiler separates when counts do."""
    start = time.time()
    losses = []
    for name, p in PLANS.items():
        spoiler = ExhaustiveSpoiler(budget=400_000, seed=0)
        for k in (1, 2, 3):
            n0 = max(1, size_threshold(p, k))
            grid = (n0, n0 + 1, n0 + 2)
            pairs = [(a, b) for a in grid for b in grid if a <= b]
            for n1, n2 in pairs:
                left, right = expand(p, n1), expand(p, n2)
                out = play(left, right, k, spoiler, ClosureDuplicator())
                if out.winner != "D":
                    losses.append((name, k, n1, n2, "exhaustive"))
                for seed in (1, 2):
                    out = play(left, right, k, RandomSpoiler(seed), ClosureDuplicator())
                    if out.winner != "D":
                        losses.append((name, k, n1, n2, f"random{seed}"))

    # Below the threshold the spoiler must win whenever sizes genuinely differ.
    missing_wins = []
    for name, p in PLANS.items():
        if not p.inf_nodes:
            continue
        out = play(
            expand(p, 1), expand(p, 2), 2, ExhaustiveSpoiler(seed=0), ClosureDuplicator()
        )
        if out.winner != "S":
            missing_wins.append(name)
    elapsed = time.time() - start
    verdict(
        5,
        not losses and not missing_wins and elapsed <= 600,
        f"duplicator undefeated at sizes >= threshold for k in 1..3; "
        f"spoiler separates size 1 vs 2 at k=2 for every replicating plan "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_homogeneity():
    """Random embeddings invert to automorphisms; equal-type tuples are
    carried to each other by automorphisms.  No failures allowed."""
    rng = random.Random(2024)
    embed_checks = 0
    type_checks = 0
    for name, p in PLANS.items():
        for m, n in ((1, 2), (2, 3)):
            for _ in range(2):
                em, en = expand(p, m), expand(p, n)
                h = random_embedding(rng, em, en)
                g = rearrange(em, en, h)
                assert all(g[h[a]] == a for a in em.nodes())
                check_embedding(en, en, g)
                assert sorted(g.values()) == en.nodes()
                embed_checks += 1

        e = expand(p, 3)
        nodes = e.nodes()
        perms = []
        for _ in range(3):
            tags = list(range(3))
            rng.shuffle(tags)
            perms.append(dict(enumerate(tags)))
        for _ in range(4):
            tup = tuple(rng.choice(nodes) for _ in range(rng.randint(1, 3)))
            image = induced_automorphism(e, rng.choice(perms))
            partner = tuple(image[v] for v in tup)
            assert qftp(e.tree, tup) == qftp(e.tree, partner)
            g = automorphism_over(e, tup, partner)
            assert g is not None
            assert all(g[x] == y for x, y in zip(tup, partner))
            check_embedding(e, e, g)
            type_checks += 1
        # Pairs found by grouping rather than by construction.
        by_type = {}
        for _ in range(30):
            tup = tuple(rng.choice(nodes) for _ in range(2))
            by_type.setdefault(qftp(e.tree, tup).code, []).append(tup)
        for group in by_type.values():
            if len(group) >= 2:
                g = automorphism_over(e, group[0], group[1])
                assert g is not None
                type_checks += 1
    verdict(
        6,
        True,
        f"homogeneity: {embed_checks} rearrangements and {type_checks} "
        f"type-to-automorphism constructions, all verified",
    )


def test_criterion_7_inference_round_trip():
    """Two consecutive samples pin the plan down exactly."""
    start = time.time()
    bad = []
    for name, p in PLANS.items():
        for n in (1, 2, 3):
            inferred = infer_plan(expand(p, n).tree, expand(p, n + 1).tree)
            if not plan_isomorphic(inferred, p):
                bad.append((name, n, plan_text(inferred)))
    elapsed = time.time() - start
    verdict(
        7,
        not bad,
        f"plan reconstruction from samples at n and n+1, n in 1..3, exact "
        f"({elapsed:.1f}s)",
    )


def test_criterion_8_dividing_criterion():
    """The path criterion agrees with an orbit-based brute-force check."""
    start = time.time()
    disagreements = []
    per_plan = 30
    for name, p in PLANS.items():
        n = 2 + ell(p) * height(p)
        e = expand(p, n)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(per_plan):
            set_b = random_subset(rng, e.nodes(), 3)
            set_c = frozenset(rng.sample(sorted(set_b), rng.randint(0, len(set_b))))
            a = rng.choice(e.nodes())
            official = check_dividing(e, a, set_b, set_c).divides

            moving = len(orbit(e, a, set_c)) >= 2
            witnessed = False
            for i in range(1, a.depth + 1):
                cand = a.prefix(i)
                if not e.mark_is_inf(cand):
                    continue
                if not any(cand.is_prefix_of(b) for b in set_b):
                    continue
                family = sorted(orbit(e, cand, set_c))
                if len(family) < 2:
                    continue
                k = a.depth - cand.depth
                sets = [instance_solutions(e, w, k) for w in family]
                if all(
                    not (sets[x] & sets[y])
                    for x in range(len(sets))
                    for y in range(x + 1, len(sets))
                ):
                    witnessed = True
                    break
            if official != (moving and witnessed):
                disagreements.append((name, str(a)))
    elapsed = time.time() - start
    verdict(
        8,
        not disagreements,
        f"dividing verdicts agree with brute force on {per_plan} triples "
        f"per plan ({elapsed:.1f}s)",
    )


def _probe_suite(p):
    h = height(p)
    fixed = [
        "forall x. x = x",
        "exists x. !(x = eps)",
        f"forall x. pred^{h}(x) = eps" if h else "forall x. x = eps",
        "forall x. forall y. meet(x, y) <= x",
        "exists x. exists y. !(x = y) & pred(x) = pred(y)",
        "forall x. exists y. y <= x & P[](y)",
    ]
    suite = [parse_formula(text) for text in fixed]
    family = separating_family(p, 2)
    suite.extend(family[:3])
    rank3 = [f for f in separating_family(p, 3) if qrank(f) == 3]
    if rank3 and predicted_size(p, size_threshold(p, 3) + 3) <= 600:
        suite.append(rank3[0])
    else:
        suite.extend(family[3:4])
    padding = [
        "exists x. x = eps",
        "forall x. eps <= x",
        "forall x. meet(x, eps) = eps",
        "forall x. pred(eps) <= x",
    ]
    for text in padding:
        if len(suite) >= 10:
            break
        suite.append(parse_formula(text))
    return suite[:10]


def test_criterion_9_pseudofiniteness_probe():
    """Ten sentences per plan, evaluated along each sentence's own ladder:
    truth values never flip."""
    start = time.time()
    flips = []
    for name, p in PLANS.items():
        suite = _probe_suite(p)
        assert len(suite) == 10
        for f in suite:
            report = pseudofinite_probe(p, f, margin=3)
            if not report.constant:
                flips.append((name, report.formula))
    elapsed = time.time() - start
    verdict(
        9,
        not flips,
        f"probe ladders constant for 10 sentences x {len(PLANS)} plans "
        f"({elapsed:.1f}s)",
    )
