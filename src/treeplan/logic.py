"""First-order formulas over expansions: syntax, parsing, and model checking.

Terms are built from variables, the root constant, pred, and meet; atoms
are equality, the prefix order, and one fiber predicate per plan node.
Quantifiers scope to the end of the enclosing formula (or closing paren).

Formulas are interned, and each keeps its compiled programs: evaluation
compiles a formula once, on first use, into generated Python source, laid
out as the comment above :class:`_Source` states.  Evaluation ranges
each quantifier over one representative per orbit over the picks so
far.  Members of one orbit are exchanged by an automorphism fixing the
picks, so the truth value is unchanged, and the cost does not grow with
the expansion size.  Definable sets are read off the same orbits: a
formula is evaluated once per orbit over its parameters, and each orbit
that satisfies it is listed from its anchor.  The test suite checks
evaluation against a brute-force reference evaluator.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .closure import PickFrame, _orbit_in, anchor_in, downset, tcl
from .counting import dim_measure, poly_P, poly_Q_rel
from .errors import (
    DomainError,
    FormulaSyntaxError,
    UnboundVariableError,
)
from .plan import (
    Expansion,
    TreePlan,
    _extensions,
    ell,
    expand,
    height,
    strip_comments,
)
from .trees import Frozen, Node, PlanPath, ROOT, _common_prefix, _fields, path_text

# --------------------------------------------------------------------------
# Abstract syntax


class _Formula(Frozen):
    """A term or formula node, interned: one built equal, field by field, to a
    live node is that node, so ``==`` and ``hash`` are identity.  Field values
    must be hashable.  Each class keeps an entry per live node under its field
    values; a slot keeps the node's compiled programs (:func:`_program`)."""

    __slots__ = ("_programs", "__weakref__")

    def __init_subclass__(cls):
        cls._live = {}

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = _fields(cls, args, kwargs)
        live = cls._live
        ref = live.get(args)
        if ref is None or (f := ref()) is None:
            # Not by Frozen.__new__, which binds the fields again: a third less per node.
            f = object.__new__(cls)
            for name, value in zip(cls.__match_args__, args):
                object.__setattr__(f, name, value)
            live[args] = ref = _Entry(f, _Entry.forget)
            ref.live, ref.key = live, args
        return f


class _Entry(weakref.ref):
    __slots__ = ("live", "key")

    def forget(self) -> None:
        if self.live.get(self.key) is self:
            del self.live[self.key]


# Names are strings, label paths plan paths, pred powers ints >= 1; other fields terms or formulas.
class Var(_Formula):
    __slots__ = __match_args__ = ("name",)


class Eps(_Formula):
    __slots__ = __match_args__ = ()


class Pred(_Formula):
    """``pred^power`` of ``arg``: the prefix ``power`` steps below it,
    clamped at the root."""

    __slots__ = __match_args__ = ("arg", "power")

    def __new__(cls, arg: Term, power: int = 1):
        if power < 1:
            raise DomainError("a pred power must be at least 1")
        return super().__new__(cls, arg, power)


class MeetT(_Formula):
    __slots__ = __match_args__ = ("left", "right")


Term = Union[Var, Eps, Pred, MeetT]


class Eq(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Leq(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Label(_Formula):
    __slots__ = __match_args__ = ("path", "arg")


class Not(_Formula):
    __slots__ = __match_args__ = ("sub",)


class And(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Implies(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Exists(_Formula):
    __slots__ = __match_args__ = ("var", "body")


class Forall(_Formula):
    __slots__ = __match_args__ = ("var", "body")


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
    """``pred^k`` of ``t`` as one term node; ``t`` itself when k = 0."""
    if k == 0:
        return t
    if isinstance(t, Pred):
        return Pred(t.arg, t.power + k)
    return Pred(t, k)


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
        # A chain of "->"s is collected in a loop and folded from the right.
        parts = [self.or_level()]
        while self.accept("arrow"):
            parts.append(self.or_level())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

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
        # A run of leading "!"s is counted, not recursed into.
        negations = 0
        while self.accept("sym", "!"):
            negations += 1
        out = self.negand()
        for _ in range(negations):
            out = Not(out)
        return out

    def negand(self) -> Formula:
        # A run of quantifier heads is read in a loop and folded from the
        # right over one body: a body reaches as far right as it can, so
        # each earlier body would be exactly the next quantifier.
        heads = []
        tok = self.peek()
        while tok and tok[0] == "ident" and tok[1] in ("exists", "forall"):
            self.next()
            name = self.expect("ident")
            if name in _KEYWORDS:
                self.error(f"{name!r} cannot be a variable")
            self.expect("sym", ".")
            heads.append((Exists if tok[1] == "exists" else Forall, name))
            tok = self.peek()
        if heads:
            out = self.formula()
            while heads:
                q, name = heads.pop()
                out = q(name, out)
            return out
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
                return pred_power(inner, 1)
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
            k += inner.power
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
        # One loop down the chain: a label follows the "!"s bare, anything
        # else in parentheses.
        negations = 0
        while isinstance(f, Not):
            negations += 1
            f = f.sub
        inner = formula_text(f)
        return "!" * negations + (inner if isinstance(f, Label) else f"({inner})")
    if isinstance(f, (And, Or)):
        # One loop down the left spine of the chain; a right operand of the
        # same connective keeps its parentheses, so the text parses back.
        op, sym, level = (And, " & ", 2) if isinstance(f, And) else (Or, " | ", 1)
        parts = []
        while isinstance(f, op):
            parts.append(f.right)
            f = f.left
        parts.append(f)
        return wrap(sym.join(formula_text(g, level + 1) for g in reversed(parts)), level)
    if isinstance(f, Implies):
        # One loop down the right spine of the chain, which needs no
        # parentheses: "->" groups to the right.
        parts = []
        while isinstance(f, Implies):
            parts.append(formula_text(f.left, 1))
            f = f.right
        parts.append(formula_text(f, 0))
        return wrap(" -> ".join(parts), 0)
    if isinstance(f, (Exists, Forall)):
        # One loop down the run of quantifiers, whose bodies need no
        # parentheses: each reaches to the end.
        heads = []
        while isinstance(f, (Exists, Forall)):
            heads.append(f"{'exists' if isinstance(f, Exists) else 'forall'} {f.var}. ")
            f = f.body
        return wrap("".join(heads) + formula_text(f, 0), 0)
    raise DomainError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Static analysis


def qrank(f: Formula) -> int:
    """Quantifier rank: nesting depth of quantifiers.  The walk keeps an
    explicit stack, as :func:`free_vars` does, so deep formulas do not
    recurse."""
    rank = 0
    stack = [(f, 0)]
    while stack:
        g, depth = stack.pop()
        if isinstance(g, Not):
            stack.append((g.sub, depth))
        elif isinstance(g, (And, Or, Implies)):
            stack += ((g.left, depth), (g.right, depth))
        elif isinstance(g, (Exists, Forall)):
            stack.append((g.body, depth + 1))
        else:
            rank = max(rank, depth)
    return rank


def free_vars(f: Formula) -> frozenset[str]:
    """The variables with a free occurrence in ``f``, by one walk over its
    formulas and terms with an explicit stack of (part, bound names)."""
    out: set[str] = set()
    stack: list = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, Var):
            if g.name not in bound:
                out.add(g.name)
        elif isinstance(g, (Pred, Label)):
            stack.append((g.arg, bound))
        elif isinstance(g, Not):
            stack.append((g.sub, bound))
        elif isinstance(g, (Eq, Leq, MeetT, And, Or, Implies)):
            stack += ((g.left, bound), (g.right, bound))
        elif isinstance(g, (Exists, Forall)):
            stack.append((g.body, bound | {g.var}))
    return frozenset(out)


# --------------------------------------------------------------------------
# Evaluation


# A formula compiles once into the source of one Python function per
# quantifier plus one for the formula, all nested in a ``bind`` function
# that takes the expansion; a variable is a local slot, and a term a
# segment tuple: ``eps`` is ``()``, ``pred^k`` a slice, ``meet`` ``()``
# unless the first segments agree, else ``trees._common_prefix``.  A
# quantifier ranges over ``frame.reps()``, and it hands a nested one
# ``frame.step(x)`` in the call; when two calls or more take it, each
# passes ``t or (t := frame.step(x))``, with ``t`` reset for each pick.
# So a frame steps at most once per pick, and only when a call is
# reached.  Until a body is done its calls hold ``_STEPPED`` for that
# frame: a NUL, which generated source never holds otherwise, since names
# from the formula enter it as reprs.  The truth function takes the frame
# of its bound nodes but the last, which only a quantifier reads, so
# ``evaluate`` builds none for a formula without one.  A shadowed pick
# stays in the frame: finer orbits, same truth.
# The source is flat: a quantifier is a call of its own function, whose
# parameters are the variables visible where it stands, and a meet nested
# in a meet goes to a walrus temporary, so its depth follows the
# alternation of connectives only.  No name from the formula enters the
# source except as a string.


_STEPPED = "\0"


def _unbound(name: str) -> bool:
    raise UnboundVariableError(f"unbound variable {name!r}")


def _bad_label(path: PlanPath) -> bool:
    raise DomainError(f"label path {path} is not a node of the plan")


class _Unbound(Exception):
    """A term names a variable that no quantifier or binding provides."""


# Precedence of a generated expression, loosest first; a part looser
# than its place gets parentheses.
_OR, _AND, _NOT, _ATOM = range(4)


def _wrap(code: tuple[str, int], level: int) -> str:
    text, prec = code
    return f"({text})" if prec < level else text


def _operands(f: Formula, op: type) -> list[Formula]:
    """The operands of the chain of ``op`` at the top of ``f``, left to
    right; for ``Or`` an implication is a disjunction with its premise
    negated."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, op):
            stack += (g.right, g.left)
        elif op is Or and isinstance(g, Implies):
            stack += (g.right, Not(g.left))
        else:
            out.append(g)
    return out


class _Source:
    """The generated source of one formula.

    A scope maps each visible variable to its slot ``v<i>``, in the order
    of the evaluation scope: an inner quantifier takes over the place of
    the variable it shadows.  Quantifier functions are ``q<i>``, walrus
    temporaries ``t<i>``, and ``bad<i>`` says, once the expansion is
    bound, that label path ``i`` is not a node of its plan.
    """

    def __init__(self):
        self.slots = 0
        self.temps = 0
        self.labels: dict[PlanPath, str] = {}
        self.defs: list[str] = []

    def slot(self) -> str:
        self.slots += 1
        return f"v{self.slots - 1}"

    def bound(self, code: str) -> tuple[str, str]:
        """A name for the value of ``code``, and the expression that binds
        it where it is first used: the code itself for a slot."""
        if code.isidentifier():
            return code, code
        self.temps += 1
        name = f"t{self.temps - 1}"
        return name, f"({name} := {code})"

    def term(self, t: Term, scope: dict[str, str], pre: list[str]) -> str:
        if isinstance(t, Var):
            if t.name not in scope:
                raise _Unbound(t.name)
            return scope[t.name]
        if isinstance(t, Eps):
            return "()"
        if isinstance(t, Pred):
            # pred^k drops the last k segments; a slice clamps at the root.
            k = 0
            while isinstance(t, Pred):
                k += t.power
                t = t.arg
            return f"{self.term(t, scope, pre)}[:-{k}]"
        if isinstance(t, MeetT):
            # The root, or sides that differ at the first segment, meet at
            # the root without a call.  A side holding a meet is bound
            # before the atom, any other side where it is first read.
            codes = [self.term(side, scope, pre) for side in (t.left, t.right)]
            if "()" in codes:
                return "()"
            bound = [(code, *self.bound(code)) for code in codes]
            pre += [first for code, _, first in bound if "_meet" in code]
            (a, first_a), (b, first_b) = [(name, name if "_meet" in code else first) for code, name, first in bound]
            return f"(_meet({a}, {b}) if {first_a} and {first_b} and {a}[0] == {b}[0] else ())"
        raise DomainError(f"not a term: {t!r}")

    def atom(self, f: Formula, scope: dict[str, str]) -> tuple[str, int]:
        """An atom as one expression; it raises its unbound-variable or
        bad-label error only when evaluation reaches it."""
        if isinstance(f, Label):
            bad = self.labels.setdefault(f.path, f"bad{len(self.labels)}")
            raising = f"{bad} and _bad_label({f.path!r})"
        pre: list[str] = []
        try:
            if isinstance(f, Eq):
                code = (f"{self.term(f.left, scope, pre)} == "
                        f"{self.term(f.right, scope, pre)}", _ATOM)
            elif isinstance(f, Leq):
                low, first = self.bound(self.term(f.left, scope, pre))
                high = self.term(f.right, scope, pre)  # the root, below all, takes no slice
                code = (f"not {first} or {low} == {high}[:len({low})]", _OR)
            else:
                arg, first = self.bound(self.term(f.arg, scope, pre))
                tests = [f"len({first}) == {len(f.path)}",  # a bad path raises on the false branch
                         *(f"{arg}[{i}][0] == {b}" for i, b in enumerate(f.path))]
                code = (" and ".join(tests) + " or " + raising, _OR)
        except _Unbound as err:
            text = f"_unbound({err.args[0]!r})"
            if isinstance(f, Label):
                return f"{raising} or {text}", _OR
            return text, _ATOM
        if pre:
            return f"({', '.join(pre)},) and {_wrap(code, _AND)}", _AND
        return code

    def formula(self, f: Formula, scope: dict[str, str], frame: str) -> tuple[str, int]:
        if isinstance(f, (Eq, Leq, Label)):
            return self.atom(f, scope)
        if isinstance(f, Not):
            negate = False
            while isinstance(f, Not):
                negate = not negate
                f = f.sub
            code = self.formula(f, scope, frame)
            return (f"not {_wrap(code, _NOT)}", _NOT) if negate else code
        if isinstance(f, And):
            parts = (_wrap(self.formula(g, scope, frame), _AND) for g in _operands(f, And))
            return " and ".join(parts), _AND
        if isinstance(f, (Or, Implies)):
            parts = (_wrap(self.formula(g, scope, frame), _OR) for g in _operands(f, Or))
            return " or ".join(parts), _OR
        if isinstance(f, (Exists, Forall)):
            return self.quantifier(f, scope, frame), _ATOM
        raise DomainError(f"not a formula: {f!r}")

    def quantifier(self, f: Union[Exists, Forall], scope: dict[str, str], frame: str) -> str:
        """A call of the quantifier's function.  It ranges over the
        representatives of the frame that the expression ``frame`` names,
        and stops at the first body that decides it."""
        params = list(scope.values())
        inner = dict(scope)
        inner[f.var] = var = self.slot()
        exists = isinstance(f, Exists)
        test, _ = self.formula(f.body if exists else Not(f.body), inner, _STEPPED)
        test, reset = self.stepped(test, var)
        name = f"q{len(self.defs)}"
        self.defs.append(
            f"    def {name}({', '.join(['frame', *params])}):\n"
            f"        for {var}, _ in frame.reps():\n"
            + (f"            {reset}\n" if reset else "")
            + f"            if {test}:\n"
            f"                return {exists}\n"
            f"        return {not exists}\n"
        )
        return f"{name}({', '.join([frame, *params])})"

    def stepped(self, code: str, var: str) -> tuple[str, str]:
        """``code`` with the frame stepped by ``var`` for ``_STEPPED``,
        and the statement to run first, if any."""
        if code.count(_STEPPED) < 2:
            return code.replace(_STEPPED, f"frame.step({var})"), ""
        name, first = self.bound(f"frame.step({var})")
        return code.replace(_STEPPED, f"{name} or {first}"), f"{name} = None"


def _generate(f: Formula, names: tuple[str, ...]):
    """``bind(e)`` for ``f``, and whether ``f`` has a quantifier: ``bind``
    returns the truth function of ``f`` on ``e``, whose arguments are the
    :class:`~treeplan.closure.PickFrame` of all the nodes bound to
    ``names`` but the last, which only a quantifier reads, then those nodes."""
    src = _Source()
    scope = {name: src.slot() for name in names}
    slots = list(scope.values())
    try:
        code, _ = src.formula(f, scope, _STEPPED if slots else "frame")
        code, reset = src.stepped(code, slots[-1]) if slots else (code, "")
        lines = ["def bind(e):"]
        lines += [f"    {bad} = {path!r} not in e.plan.nodes" for path, bad in src.labels.items()]
        lines += src.defs
        lines.append(f"    def holds({', '.join(['frame', *slots])}):")
        if reset:
            lines.append(f"        {reset}")
        lines += [f"        return {code}", "    return holds"]
        namespace = {"_meet": _common_prefix, "_unbound": _unbound, "_bad_label": _bad_label}
        exec(compile("\n".join(lines), "<formula>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError) as err:
        raise RecursionError("formula nested too deeply to compile") from err
    return namespace["bind"], bool(src.defs)


def _program(f: Formula, names: tuple[str, ...]):
    """The program of ``f`` for its bound names, compiled once and kept in
    the node's slot, where an equal formula built again finds it."""
    if not isinstance(f, _Formula):
        raise DomainError(f"not a formula: {f!r}")
    if not hasattr(f, "_programs"):  # made on the first compile, not per node
        object.__setattr__(f, "_programs", {})
    if names not in f._programs:
        f._programs[names] = _generate(f, names)
    return f._programs[names]


def evaluate(
    e: Expansion,
    f: Formula,
    env: Optional[Mapping[str, Node]] = None,
    fast: bool = False,
) -> bool:
    """Truth value of ``f`` in ``e`` under ``env``.

    ``f`` runs as generated Python, compiled on its first evaluation with
    these variable names and reused after.  A quantifier ranges over one
    representative per orbit over the picks so far, read off one
    :class:`~treeplan.closure.PickFrame` stepped by each pick; sound because
    members of one orbit are automorphic over them, and the cost does not
    grow with the expansion size.  A quantifier restores the outer binding
    of its variable on exit, and an atom raises its unbound-variable or
    bad-label error only when evaluation reaches it.
    ``fast`` is accepted and ignored: every evaluation walks the frames.
    """
    scope = dict(env or {})
    values = tuple(scope.values())
    e.require(*values)
    bind, quantified = _program(f, tuple(scope))
    return bind(e)(PickFrame(e, values[:-1]) if quantified else None, *values)


def _satisfied(
    e: Expansion, f: Formula, free_var: str, params: Optional[Mapping[str, Node]]
) -> tuple[dict[Node, Node], list[Node]]:
    """The tree closure of the parameters other than ``free_var``, and the
    least member of each orbit over them that satisfies ``f`` for
    ``free_var``; ``f`` runs from their frame, on those only."""
    scope = {name: v for name, v in (params or {}).items() if name != free_var}
    missing = free_vars(f) - set(scope) - {free_var}
    if missing:
        raise UnboundVariableError(f"unbound variables {sorted(missing)}")
    frame = PickFrame(e, scope.values())
    holds = _program(f, (*scope, free_var))[0](e)
    return frame.closed, [a for a, _ in frame.reps() if holds(frame, *scope.values(), a)]


def solution_set(
    e: Expansion,
    f: Formula,
    free_var: str,
    params: Optional[Mapping[str, Node]] = None,
) -> frozenset[Node]:
    """All nodes that satisfy ``f`` when substituted for ``free_var`` (whose
    binding in ``params`` is ignored): each orbit over the parameters whose
    least member does, listed from its anchor under the budget of a build."""
    closed, reps = _satisfied(e, f, free_var, params)
    return frozenset().union(*(_orbit_in(e, closed, a) for a in reps))


# --------------------------------------------------------------------------
# Pseudofiniteness probe


def size_threshold(p: TreePlan, k: int) -> int:
    """Size above which expansions agree with each other on rank-k sentences."""
    return k + ell(p) * height(p)


class ProbeReport(NamedTuple):
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
    Raises :class:`DomainError` for a negative ``margin``.
    """
    if free_vars(sentence):
        raise DomainError("the probe needs a closed sentence")
    if margin < 0:
        raise DomainError(f"the margin must be non-negative, got {margin}")
    k = qrank(sentence)
    n0 = max(1, size_threshold(p, k))
    values = []
    for n in range(n0, n0 + margin + 1):
        e = expand(p, n, budget=budget)
        values.append((n, evaluate(e, sentence)))
    truths = {v for _, v in values}
    return ProbeReport(formula_text(sentence), k, n0, tuple(values), len(truths) == 1)


# --------------------------------------------------------------------------
# Principal formulas for 1-types


class PrincipalFormula(Frozen):
    """An isolating quantifier-free formula plus its parameter assignment.

    The formula's solution set in the expansion is exactly the orbit of the
    isolated element over the parameter set; equality compares formulas.
    """

    __slots__ = __match_args__ = ("formula", "params", "case")

    def __eq__(self, other):
        return self.formula == other.formula if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.formula)

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
    e.require(a)
    bs = sorted(set(members))
    e.require(*bs)
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
        base = anchor_in(down | {ROOT}, a)
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


class SolutionClass(NamedTuple):
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
) -> frozenset[SolutionClass]:
    """Partition the solution set by (anchor over the parameters, fiber):
    one class per orbit of :func:`solution_set`, sized by listing it.

    A closure member is its own orbit, so it sits in a singleton class; the
    other classes group the solutions sharing an anchor and a plan path.
    """
    closed, reps = _satisfied(e, f, free_var, params)
    classes = set()
    for a in reps:
        anc = anchor_in(closed, a)
        count = len(_orbit_in(e, closed, a))
        classes.add(SolutionClass(anc, anc.plan_path, a.plan_path, count, a in closed))
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


class AsymptoticRow(NamedTuple):
    n: int
    observed: int
    delta: Fraction
    mu: float
    predicted: float
    ratio: float
    passed: bool


class AsymptoticReport(NamedTuple):
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
            out[var] = next(_extensions(e, ROOT, tuple(target)))  # no fiber is empty
    return out


def asymptotic_check(
    p: TreePlan,
    f: Formula,
    free_var: str,
    param_spec: Optional[ParamSpec] = None,
    ladder: Iterable[int] = (2, 3, 4),
    tol: float = 0.1,
    budget: Optional[int] = None,
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
    class counts and the top within tolerance.  The classes are listed by
    orbits (:func:`classify_solutions`), so no tree is built.  Raises
    :class:`DomainError` for a tolerance that is negative or not finite.
    """
    param_spec = dict(param_spec or {})
    points = sorted(set(ladder))
    if not points or points[0] < 1:
        raise DomainError("ladder must contain sizes >= 1")
    if not 0 <= tol < float("inf"):
        raise DomainError(f"tolerance must be finite and non-negative, got {tol}")
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
        classes = classify_solutions(e, f, free_var, params)
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
