"""Tree plans and their finite expansions: exact counting, first-order
model checking, back-and-forth games, plan inference, and the dividing
criterion."""

from .analysis import (
    Amalgam,
    DividingVerdict,
    amalgamate,
    automorphism_over,
    check_dividing,
    extend_embedding,
    extend_to_automorphism,
    infer_plan,
    infer_plan_threshold,
    parse_tree_text,
    rearrange,
)
from .closure import anchor, downset, orbit, tcl, type_count
from .counting import (
    DimMeasure,
    Polynomial,
    deg,
    dim_measure,
    lead_count,
    poly_P,
    poly_Q,
    poly_Q_rel,
    verify_P,
    verify_Q,
)
from .efgame import (
    ClosureDuplicator,
    ExhaustiveSpoiler,
    GameState,
    Outcome,
    RandomSpoiler,
    game_value,
    game_won,
    partial_isomorphism,
    play,
)
from .errors import (
    BudgetError,
    CapacityError,
    DomainError,
    FormulaSyntaxError,
    InferenceError,
    PlanSyntaxError,
    TreePlanError,
    UnboundVariableError,
)
from .logic import (
    asymptotic_check,
    classify_solutions,
    evaluate,
    formula_text,
    free_vars,
    parse_formula,
    parse_formulas,
    principal_formula,
    pseudofinite_probe,
    qrank,
    separating_family,
    size_threshold,
    solution_set,
)
from .plan import (
    Expansion,
    TreePlan,
    ell,
    expand,
    height,
    induced_automorphism,
    inf_count,
    make_plan,
    parse_plan,
    plan_isomorphic,
    plan_text,
    subplan,
)
from .trees import (
    FiniteTree,
    Node,
    ROOT,
    STAR,
    canonical,
    format_node,
    meet,
    parse_node,
    predk,
    qftp,
    subtree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
