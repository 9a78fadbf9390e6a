"""The benchmark's own inputs: plan corpus, probe sentences, asymptotic suite
and the known-defect cases.

These are copies, not imports from ``tests/``, so that editing the test
suite cannot move the benchmark.  Everything here is plain data; the
functions that need the library take the imported ``treeplan`` package as
an argument.
"""

from __future__ import annotations

PLAN_TEXTS = {
    "A": "(1 (inf))",
    "B": "(1 (inf (inf)))",
    "C": "(1 (inf) (inf))",
    "D": "(1 (1 (inf)) (inf))",
    "single": "(1)",
    "one_leaf": "(1 (1))",
    "two_ones": "(1 (1) (1))",
    "chain3": "(1 (inf (inf (inf))))",
    "inf_one": "(1 (inf (1)))",
    "inf_two_ones": "(1 (inf (1) (1)))",
    "inf_mixed": "(1 (inf (inf) (1 (1))))",
    "twin_ones": "(1 (1 (inf)) (1 (inf)))",
    "leaf_and_branch": "(1 (inf) (1 (inf)))",
    "deep_and_leaf": "(1 (inf (inf)) (inf))",
    "deep_and_one": "(1 (inf (inf)) (1))",
    "double_deep": "(1 (inf (inf) (inf)))",
    "one_chain_inf": "(1 (1 (1 (inf))))",
    "chain3_one": "(1 (inf (inf (inf))) (1))",
    "one_two_infs": "(1 (1 (inf) (inf)))",
    "three_infs": "(1 (inf) (inf) (inf))",
    "one_chain_and_inf": "(1 (1 (1)) (inf))",
    "inf_one_inf": "(1 (inf (1 (inf))))",
    "one_and_deep": "(1 (1) (inf (inf)))",
}

# Criterion-4 suite: (plan, quantifier-free formula, parameters).  A
# parameter is a plan path; the benchmark picks the fiber member from the
# seed among tags every ladder point realizes.
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

# Ladder of the asymptotic tasks; its top is well above 40, where the
# class-count defect below stops being hidden by the tolerance check.
ASYMPTOTIC_LADDER = (3, 4, 5, 50)
ASYMPTOTIC_TOL = 0.1

# Known defects, kept visible: these tasks are expected to fail until the
# library is fixed, and they are the only tasks allowed to fail.
#
# ROADMAP item 3: the class has n^2 - n members but the check predicts n^2,
# so class_counts_exact is False while all_pass stays True.
DEFECT_ASYMPTOTIC = ("B", "P[0.0](x) & !(pred(x) = pred(b))", {"b": "0:0/0:0"})
# ROADMAP item 4: the inner quantifier unbinds the outer x; the sentence is
# true but evaluation raises UnboundVariableError.
DEFECT_SHADOWING = "exists x. (exists x. P[0](x)) & x = eps"

# Sizes above the threshold on each probe ladder (criterion 9 uses 3).
PROBE_MARGIN = 1


def probe_suite(tp, p) -> list:
    """Ten closed sentences for one plan: fixed shapes, counting sentences
    of rank 2, and one of rank 3 when the expansion stays small."""
    h = tp.height(p)
    fixed = [
        "forall x. x = x",
        "exists x. !(x = eps)",
        f"forall x. pred^{h}(x) = eps" if h else "forall x. x = eps",
        "forall x. forall y. meet(x, y) <= x",
        "exists x. exists y. !(x = y) & pred(x) = pred(y)",
        "forall x. exists y. y <= x & P[](y)",
    ]
    suite = [tp.parse_formula(text) for text in fixed]
    family = tp.separating_family(p, 2)
    suite.extend(family[:3])
    rank3 = [f for f in tp.separating_family(p, 3) if tp.qrank(f) == 3]
    if rank3 and tp.plan.predicted_size(p, tp.size_threshold(p, 3) + 3) <= 600:
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
        suite.append(tp.parse_formula(text))
    return suite[:10]
