"""First-order formulas over expansions: syntax, parsing, and model checking.

Terms are built from variables, the root constant, pred, and meet; atoms
are equality, the prefix order, and one fiber predicate per plan node.
Quantifiers scope to the end of the enclosing formula (or closing paren).

Evaluation compiles a formula once per call into nested closures over a
scope of variable bindings, then runs them.  Terms evaluate to segment
tuples rather than nodes: ``pred`` drops the last segment, ``meet`` is the
common prefix, and the order is a prefix test.  Quantifiers can
optionally range over one representative per orbit over the current
environment instead of the whole universe (``fast=True``): two candidates
in one orbit are exchanged by an automorphism fixing the environment, so
the truth value is unchanged.  The representatives are read off the tree
closure of the environment (:func:`~treeplan.closure.orbit_reps`), so
their number and cost do not grow with the expansion size.  Plain mode
ranges over every node and stays the brute-force path; both modes are
checked against a substitution-based reference evaluator in the test
suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from .closure import anchor_in, downset, orbit_reps, tcl
from .counting import dim_measure, poly_P, poly_Q_rel
from .errors import (
    DomainError,
    FormulaSyntaxError,
    UnboundVariableError,
)
from .plan import Expansion, TreePlan, ell, expand, height, strip_comments
from .trees import Node, PlanPath, ROOT, Segment, path_text

# --------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Eps:
    pass


@dataclass(frozen=True)
class Pred:
    arg: "Term"


@dataclass(frozen=True)
class MeetT:
    left: "Term"
    right: "Term"


Term = Union[Var, Eps, Pred, MeetT]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Leq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Label:
    path: PlanPath
    arg: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Eq, Leq, Label, Not, And, Or, Implies, Exists, Forall]


def conj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        raise DomainError("empty conjunction")
    out = parts[0]
    for f in parts[1:]:
        out = And(out, f)
    return out


def pred_power(t: Term, k: int) -> Term:
    for _ in range(k):
        t = Pred(t)
    return t


# --------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<leq><=)|(?P<predpow>pred\^\d+)|(?P<label>P\[)"
    r"|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[()=&|!,.\]]))"
)

_KEYWORDS = {"exists", "forall", "pred", "meet", "eps"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise FormulaSyntaxError(message, self.pos)

    def peek(self) -> Optional[tuple[str, str, int]]:
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            return None
        kind = m.lastgroup
        return (kind, m.group(kind), m.end())

    def next(self) -> Optional[tuple[str, str]]:
        tok = self.peek()
        if tok is None:
            if self.text[self.pos:].strip():
                self.error(f"unexpected input {self.text[self.pos:].strip()[:10]!r}")
            return None
        kind, value, end = tok
        self.pos = end
        return (kind, value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        tok = self.peek()
        if tok and tok[0] == kind and (value is None or tok[1] == value):
            self.pos = tok[2]
            return tok[1]
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got = self.accept(kind, value)
        if got is None:
            want = value if value is not None else kind
            self.error(f"expected {want!r}")
        return got

    # formula := implies ; quantifiers appear at the unary level and scope
    # to the end of the formula (or the closing paren).
    def formula(self) -> Formula:
        left = self.or_level()
        if self.accept("arrow"):
            return Implies(left, self.formula())
        return left

    def or_level(self) -> Formula:
        out = self.and_level()
        while self.accept("sym", "|"):
            out = Or(out, self.and_level())
        return out

    def and_level(self) -> Formula:
        out = self.unary()
        while self.accept("sym", "&"):
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.accept("sym", "!"):
            return Not(self.unary())
        tok = self.peek()
        if tok and tok[0] == "ident" and tok[1] in ("exists", "forall"):
            self.next()
            name = self.expect("ident")
            if name in _KEYWORDS:
                self.error(f"{name!r} cannot be a variable")
            self.expect("sym", ".")
            body = self.formula()
            return Exists(name, body) if tok[1] == "exists" else Forall(name, body)
        if tok and tok[0] == "label":
            return self.label_atom()
        if tok and tok[0] == "sym" and tok[1] == "(":
            # Could be a parenthesized formula; terms never start with '('.
            self.next()
            inner = self.formula()
            self.expect("sym", ")")
            return inner
        return self.comparison()

    def label_atom(self) -> Formula:
        self.expect("label")
        path: list[int] = []
        if not self.accept("sym", "]"):
            path.append(int(self.expect("int")))
            while self.accept("sym", "."):
                path.append(int(self.expect("int")))
            self.expect("sym", "]")
        self.expect("sym", "(")
        arg = self.term()
        self.expect("sym", ")")
        return Label(tuple(path), arg)

    def comparison(self) -> Formula:
        left = self.term()
        if self.accept("leq"):
            return Leq(left, self.term())
        self.expect("sym", "=")
        return Eq(left, self.term())

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            self.error("expected a term")
        kind, value, _ = tok
        if kind == "predpow":
            self.next()
            k = int(value.split("^")[1])
            self.expect("sym", "(")
            inner = self.term()
            self.expect("sym", ")")
            return pred_power(inner, k)
        if kind == "ident":
            self.next()
            if value == "eps":
                return Eps()
            if value == "pred":
                self.expect("sym", "(")
                inner = self.term()
                self.expect("sym", ")")
                return Pred(inner)
            if value == "meet":
                self.expect("sym", "(")
                left = self.term()
                self.expect("sym", ",")
                right = self.term()
                self.expect("sym", ")")
                return MeetT(left, right)
            if value in _KEYWORDS:
                self.error(f"{value!r} is not a term")
            return Var(value)
        self.error("expected a term")


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    out = parser.formula()
    if parser.text[parser.pos:].strip():
        parser.error("trailing input after formula")
    return out


def parse_formulas(text: str) -> list[Formula]:
    """Formula-file format: one formula per line, ``#`` starts a comment."""
    bodies = (line.strip() for line in strip_comments(text).splitlines())
    return [parse_formula(body) for body in bodies if body]


# --------------------------------------------------------------------------
# Rendering

def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Eps):
        return "eps"
    if isinstance(t, Pred):
        k, inner = 0, t
        while isinstance(inner, Pred):
            k += 1
            inner = inner.arg
        head = "pred" if k == 1 else f"pred^{k}"
        return f"{head}({_term_text(inner)})"
    return f"meet({_term_text(t.left)}, {_term_text(t.right)})"


def formula_text(f: Formula, _prec: int = 0) -> str:
    """Concrete syntax that parses back to the same tree."""

    def wrap(text: str, level: int) -> str:
        return f"({text})" if level < _prec else text

    if isinstance(f, Eq):
        return f"{_term_text(f.left)} = {_term_text(f.right)}"
    if isinstance(f, Leq):
        return f"{_term_text(f.left)} <= {_term_text(f.right)}"
    if isinstance(f, Label):
        return f"P[{path_text(f.path)}]({_term_text(f.arg)})"
    if isinstance(f, Not):
        if isinstance(f.sub, (Label, Not)):
            return "!" + formula_text(f.sub, 4)
        return f"!({formula_text(f.sub)})"
    if isinstance(f, And):
        return wrap(f"{formula_text(f.left, 3)} & {formula_text(f.right, 3)}", 2)
    if isinstance(f, Or):
        return wrap(f"{formula_text(f.left, 2)} | {formula_text(f.right, 2)}", 1)
    if isinstance(f, Implies):
        return wrap(f"{formula_text(f.left, 1)} -> {formula_text(f.right, 0)}", 0)
    if isinstance(f, (Exists, Forall)):
        q = "exists" if isinstance(f, Exists) else "forall"
        return wrap(f"{q} {f.var}. {formula_text(f.body, 0)}", 0)
    raise DomainError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Static analysis


def qrank(f: Formula) -> int:
    """Quantifier rank: nesting depth of quantifiers."""
    if isinstance(f, (Eq, Leq, Label)):
        return 0
    if isinstance(f, Not):
        return qrank(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return max(qrank(f.left), qrank(f.right))
    return 1 + qrank(f.body)


def _term_vars(t: Term, out: set[str]):
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Pred):
        _term_vars(t.arg, out)
    elif isinstance(t, MeetT):
        _term_vars(t.left, out)
        _term_vars(t.right, out)


def free_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]):
        if isinstance(g, (Eq, Leq)):
            names: set[str] = set()
            _term_vars(g.left, names)
            _term_vars(g.right, names)
            out.update(names - bound)
        elif isinstance(g, Label):
            names = set()
            _term_vars(g.arg, names)
            out.update(names - bound)
        elif isinstance(g, Not):
            walk(g.sub, bound)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left, bound)
            walk(g.right, bound)
        else:
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return frozenset(out)


# --------------------------------------------------------------------------
# Evaluation


# A compiled term maps a scope (variable names to nodes) to the segment
# tuple of its value: a variable gives its node, which is one, and a slice
# gives a plain tuple equal to the node it names.  A compiled formula maps
# a scope to its truth value.
Scope = dict[str, Node]
Segs = tuple[Segment, ...]


def _compile_term(t: Term) -> Callable[[Scope], Segs]:
    if isinstance(t, Var):
        name = t.name

        def var(scope: Scope) -> Segs:
            try:
                return scope[name]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {name!r}") from None

        return var
    if isinstance(t, Eps):
        return lambda scope: ()
    if isinstance(t, Pred):
        # pred^k drops the last k segments; a slice clamps at the root.
        k, inner = 0, t
        while isinstance(inner, Pred):
            k += 1
            inner = inner.arg
        arg = _compile_term(inner)
        return lambda scope: arg(scope)[:-k]
    if isinstance(t, MeetT):
        left, right = _compile_term(t.left), _compile_term(t.right)

        def meet(scope: Scope) -> Segs:
            a, b = left(scope), right(scope)
            i = 0
            for seg_a, seg_b in zip(a, b):
                if seg_a != seg_b:
                    break
                i += 1
            return a[:i]

        return meet
    raise DomainError(f"not a term: {t!r}")


def _compile(e: Expansion, f: Formula, fast: bool) -> Callable[[Scope], bool]:
    """``f`` as nested closures over a scope, built once per call.

    Atoms and connectives keep the left-to-right short-circuit order, and
    an atom raises its unbound-variable or bad-label error only when it is
    reached.  A quantifier ranges over every node in node order, or with
    ``fast`` over :func:`~treeplan.closure.orbit_reps` of the scope, and
    restores the outer binding of its variable on exit.
    """
    if isinstance(f, Eq):
        left, right = _compile_term(f.left), _compile_term(f.right)
        return lambda scope: left(scope) == right(scope)
    if isinstance(f, Leq):
        left, right = _compile_term(f.left), _compile_term(f.right)

        def leq(scope: Scope) -> bool:
            low = left(scope)
            return right(scope)[: len(low)] == low

        return leq
    if isinstance(f, Label):
        path = f.path
        if path not in e.plan.nodes:

            def bad_label(scope: Scope) -> bool:
                raise DomainError(f"label path {path} is not a node of the plan")

            return bad_label
        arg = _compile_term(f.arg)
        return lambda scope: tuple([branch for branch, _ in arg(scope)]) == path
    if isinstance(f, Not):
        sub = _compile(e, f.sub, fast)
        return lambda scope: not sub(scope)
    if isinstance(f, (And, Or, Implies)):
        left, right = _compile(e, f.left, fast), _compile(e, f.right, fast)
        if isinstance(f, And):
            return lambda scope: left(scope) and right(scope)
        if isinstance(f, Or):
            return lambda scope: left(scope) or right(scope)
        return lambda scope: (not left(scope)) or right(scope)
    if not isinstance(f, (Exists, Forall)):
        raise DomainError(f"not a formula: {f!r}")
    body, name, tree = _compile(e, f.body, fast), f.var, e.tree
    # Exists stops at the first true body, Forall at the first false one.
    stop = isinstance(f, Exists)

    def quantifier(scope: Scope) -> bool:
        outer = scope.get(name)
        result = not stop
        for x in orbit_reps(e, scope.values()) if fast else tree:
            scope[name] = x
            if body(scope) == stop:
                result = stop
                break
        if outer is None:
            scope.pop(name, None)
        else:
            scope[name] = outer
        return result

    return quantifier


def evaluate(
    e: Expansion,
    f: Formula,
    env: Optional[Mapping[str, Node]] = None,
    fast: bool = False,
) -> bool:
    """Truth value of ``f`` in ``e`` under ``env``.

    ``fast`` restricts quantifier ranges to one representative per orbit
    over the current environment, listed from its tree closure; sound
    because members of one orbit are automorphic over it.  A quantifier
    restores the outer binding of its variable on exit.
    """
    scope = dict(env or {})
    e.tree.require(*scope.values())
    return _compile(e, f, fast)(scope)


def solution_set(
    e: Expansion,
    f: Formula,
    free_var: str,
    params: Optional[Mapping[str, Node]] = None,
    fast: bool = False,
) -> frozenset[Node]:
    """All nodes that satisfy ``f`` when substituted for ``free_var``."""
    scope = dict(params or {})
    missing = free_vars(f) - set(scope) - {free_var}
    if missing:
        raise UnboundVariableError(f"unbound variables {sorted(missing)}")
    e.tree.require(*(v for name, v in scope.items() if name != free_var))
    holds = _compile(e, f, fast)
    out = []
    for x in e.tree:
        scope[free_var] = x
        if holds(scope):
            out.append(x)
    return frozenset(out)


# --------------------------------------------------------------------------
# Pseudofiniteness probe


def size_threshold(p: TreePlan, k: int) -> int:
    """Size above which expansions agree with each other on rank-k sentences."""
    return k + ell(p) * height(p)


@dataclass(frozen=True)
class ProbeReport:
    formula: str
    rank: int
    start: int
    values: tuple[tuple[int, bool], ...]
    constant: bool


def pseudofinite_probe(
    p: TreePlan,
    sentence: Formula,
    margin: int = 3,
    budget: Optional[int] = None,
) -> ProbeReport:
    """Evaluate a sentence along the ladder that starts at the rank threshold.

    Truth values should be constant there; the report says whether they are.
    """
    if free_vars(sentence):
        raise DomainError("the probe needs a closed sentence")
    k = qrank(sentence)
    n0 = max(1, size_threshold(p, k))
    values = []
    for n in range(n0, n0 + margin + 1):
        e = expand(p, n, budget=budget)
        values.append((n, evaluate(e, sentence, fast=True)))
    truths = {v for _, v in values}
    return ProbeReport(formula_text(sentence), k, n0, tuple(values), len(truths) == 1)


# --------------------------------------------------------------------------
# Principal formulas for 1-types


@dataclass(frozen=True)
class PrincipalFormula:
    """An isolating quantifier-free formula plus its parameter assignment.

    The formula's solution set in the expansion is exactly the orbit of the
    isolated element over the parameter set.
    """

    formula: Formula
    params: dict[str, Node] = field(compare=False)
    case: str = field(compare=False)

    def text(self) -> str:
        return formula_text(self.formula)


def principal_formula(e: Expansion, a: Node, members: Iterable[Node]) -> PrincipalFormula:
    """Quantifier-free formula in one variable isolating the labeled 1-type
    of ``a`` over the parameter set.

    Four cases: ``a`` a parameter; ``a`` strictly below a parameter; ``a``
    in the tree closure but not below the parameters; ``a`` outside the
    closure, pinned to its anchor with meet guards against parameters
    sitting above the anchor.
    """
    e.tree.require(a)
    bs = sorted(set(members))
    e.tree.require(*bs)
    names = {b: f"b{i}" for i, b in enumerate(bs)}
    params = {names[b]: b for b in bs}
    x = Var("x")

    if a in names:
        return PrincipalFormula(Eq(x, Var(names[a])), params, "member")

    below = [b for b in bs if a.is_prefix_of(b)]
    if below:
        c = min(below)
        k = c.depth - a.depth
        return PrincipalFormula(
            Eq(pred_power(Var(names[c]), k), x), params, "below"
        )

    closed = tcl(e, bs)
    down = downset(e, bs)

    def base_term(node: Node) -> Term:
        if node == ROOT:
            return Eps()
        if node in names:
            return Var(names[node])
        carrier = min(c for c in bs if node.is_prefix_of(c))
        return pred_power(Var(names[carrier]), carrier.depth - node.depth)

    if a in closed:
        prefixes = [a.prefix(i) for i in range(a.depth + 1)]
        base = max(v for v in prefixes if v == ROOT or v in down)
        k = a.depth - base.depth
        body = [Eq(pred_power(x, k), base_term(base)), Label(a.plan_path, x)]
        return PrincipalFormula(conj(body), params, "closure")

    anc = anchor_in(closed, a)
    if anc != ROOT and anc not in down:
        # Closure anchors outside the downset need their own parameter.
        params = dict(params)
        params["e"] = anc
        anc_term: Term = Var("e")
    else:
        anc_term = base_term(anc)
    k = a.depth - anc.depth
    body = [Eq(pred_power(x, k), anc_term), Label(a.plan_path, x)]
    for b in bs:
        if anc.is_prefix_of(b) and anc != b:
            body.append(Eq(MeetT(x, Var(names[b])), anc_term))
    return PrincipalFormula(conj(body), params, "free")


# --------------------------------------------------------------------------
# Solution classification and the asymptotic check


@dataclass(frozen=True)
class SolutionClass:
    """A block of the solution set: common anchor and common fiber."""

    anchor_node: Node
    sigma: PlanPath
    sigma_p: PlanPath
    count: int
    in_closure: bool


def classify_solutions(
    e: Expansion,
    f: Formula,
    free_var: str,
    params: Optional[Mapping[str, Node]] = None,
    fast: bool = False,
) -> frozenset[SolutionClass]:
    """Partition the solution set by (anchor over the parameters, fiber).

    Closure members sit in singleton classes; the remaining classes group
    solutions sharing an anchor and a plan projection.
    """
    params = dict(params or {})
    sols = solution_set(e, f, free_var, params, fast=fast)
    closed = tcl(e, params.values())
    singles = []
    grouped: dict[tuple[Node, PlanPath], int] = {}
    for a in sols:
        if a in closed:
            singles.append(
                SolutionClass(a, a.plan_path, a.plan_path, 1, True)
            )
        else:
            key = (anchor_in(closed, a), a.plan_path)
            grouped[key] = grouped.get(key, 0) + 1
    classes = set(singles)
    for (anc, sigma_p), count in grouped.items():
        classes.add(SolutionClass(anc, anc.plan_path, sigma_p, count, False))
    return frozenset(classes)


def formula_dim_measure(
    p: TreePlan, classes: Iterable[SolutionClass]
) -> tuple[Fraction, float]:
    """Dimension of a definable set and its measure: the maximum class
    dimension, and the sum of measures over the classes attaining it."""
    classes = list(classes)
    if not classes:
        return (Fraction(0), 0.0)
    dms = [(cls, dim_measure(p, cls.sigma, cls.sigma_p)) for cls in classes]
    delta = max(dm.delta for _, dm in dms)
    mu = sum(dm.mu for _, dm in dms if dm.delta == delta)
    return (delta, mu)


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    observed: int
    delta: Fraction
    mu: float
    predicted: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class AsymptoticReport:
    formula: str
    rows: tuple[AsymptoticRow, ...]
    classes_stable: bool
    class_counts_exact: bool
    trend_ok: bool
    top_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.top_pass and self.classes_stable and self.class_counts_exact

    def to_csv(self) -> str:
        lines = ["n,observed,delta,mu,predicted,ratio,pass"]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.observed},{r.delta},{r.mu:.6f},"
                f"{r.predicted:.3f},{r.ratio:.6f},{str(r.passed).lower()}"
            )
        return "\n".join(lines) + "\n"


ParamSpec = Mapping[str, Union[PlanPath, Node]]


def _instantiate_params(e: Expansion, spec: ParamSpec) -> dict[str, Node]:
    out: dict[str, Node] = {}
    for var, target in spec.items():
        if isinstance(target, Node):
            if target not in e:
                raise DomainError(f"parameter {var}={target} is not realizable at n={e.n}")
            out[var] = target
        else:
            fiber = e.fiber(tuple(target))
            if not fiber:
                raise DomainError(f"empty fiber for parameter {var} at n={e.n}")
            out[var] = fiber[0]
    return out


def asymptotic_check(
    p: TreePlan,
    f: Formula,
    free_var: str,
    param_spec: Optional[ParamSpec] = None,
    ladder: Iterable[int] = (2, 3, 4),
    tol: float = 0.1,
    budget: Optional[int] = None,
    fast: bool = False,
) -> AsymptoticReport:
    """Compare solution counts along a ladder against the predicted
    dimension and measure.

    The prediction is read off the classes realized at the smallest ladder
    point and validated at the larger ones: the ratio of the count to the
    expansion size raised to the dimension must land within ``tol`` of the
    measure at the top, class-count identities are checked exactly against
    the relative fiber polynomials (meaningful for quantifier-free
    formulas), and the report flags class-set instability and a
    non-shrinking remainder.  ``all_pass`` needs stable classes, exact
    class counts and the top within tolerance.
    """
    param_spec = dict(param_spec or {})
    points = sorted(set(ladder))
    if not points or points[0] < 1:
        raise DomainError("ladder must contain sizes >= 1")
    size_poly = poly_P(p)

    delta: Optional[Fraction] = None
    mu = 0.0
    rows = []
    key_sets = []
    exact = True
    devs = []
    for n in points:
        e = expand(p, n, budget=budget)
        params = _instantiate_params(e, param_spec)
        classes = classify_solutions(e, f, free_var, params, fast=fast)
        observed = sum(cls.count for cls in classes)
        if delta is None:
            delta, mu = formula_dim_measure(p, classes)
        key_sets.append(
            frozenset((cls.anchor_node, cls.sigma_p, cls.in_closure) for cls in classes)
        )
        for cls in classes:
            if not cls.in_closure:
                if cls.count != poly_Q_rel(p, cls.sigma, cls.sigma_p)(n):
                    exact = False
        size = size_poly(n)
        scale = float(size) ** float(delta)
        ratio = observed / scale
        devs.append(abs(ratio - mu))
        rows.append(
            AsymptoticRow(
                n, observed, delta, mu, mu * scale, ratio, abs(ratio - mu) <= tol
            )
        )
    stable = all(ks == key_sets[0] for ks in key_sets)
    trend_ok = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    return AsymptoticReport(
        formula_text(f),
        tuple(rows),
        stable,
        exact,
        trend_ok,
        rows[-1].passed,
    )


# --------------------------------------------------------------------------
# Counting sentences (used to cross-check game outcomes)


def at_least(m: int, make_body, prefix: str = "x") -> Formula:
    """Sentence fragment: at least ``m`` pairwise-distinct witnesses of
    ``make_body``; quantifier rank ``m``."""
    if m < 1:
        raise DomainError("need m >= 1")
    vs = [f"{prefix}{i}" for i in range(m)]

    def build(i: int) -> Formula:
        parts = [Not(Eq(Var(vs[i]), Var(vs[j]))) for j in range(i)]
        parts.append(make_body(Var(vs[i])))
        body = conj(parts)
        if i + 1 < m:
            body = And(body, build(i + 1))
        return Exists(vs[i], body)

    return build(0)


def separating_family(p: TreePlan, k: int) -> list[Formula]:
    """Rank-at-most-``k`` sentences that count fibers and relative fibers.

    Two expansions of the same plan that differ at quantifier rank ``k``
    differ on fiber cardinalities, which these sentences measure up to
    threshold ``k``.
    """
    out: list[Formula] = []
    for sigma in p.sorted_nodes():
        for m in range(1, k + 1):
            out.append(at_least(m, lambda v, s=sigma: Label(s, v)))
    for sigma in p.sorted_nodes():
        for tau in p.children(sigma):
            for m in range(1, k):
                def body(y):
                    inner = at_least(
                        m,
                        lambda v, t=tau, yy=y: And(Eq(Pred(v), yy), Label(t, v)),
                        prefix="w",
                    )
                    return inner

                out.append(
                    Exists(
                        "y",
                        And(Label(sigma, Var("y")), body(Var("y"))),
                    )
                )
                out.append(
                    Forall(
                        "y",
                        Implies(Label(sigma, Var("y")), body(Var("y"))),
                    )
                )
    return out
