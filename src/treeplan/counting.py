"""Counting polynomials, dimensions and measures, and exact verification.

The size of an expansion, the size of each plan-node fiber, and the size of
the fiber above a fixed witness are all polynomial in ``n`` with exact
integer coefficients; verification compares enumerated counts against the
polynomial values with zero tolerance.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .plan import Expansion, TreePlan, expand, inf_count, plan_text
from .trees import Node, PlanPath, path_text


class Polynomial:
    """Univariate polynomial with non-negative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int) or c < 0:
                raise DomainError(f"coefficients must be non-negative integers: {cs}")
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial([c])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "Polynomial":
        return Polynomial([0] * power + [coeff])

    def degree(self) -> int:
        # Degree of the zero polynomial is taken as 0.
        return max(len(self.coeffs) - 1, 0)

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __call__(self, n: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * n + c
        return value

    def __add__(self, other: "Polynomial") -> "Polynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(size)
            ]
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return " + ".join(parts)


def poly_P(p: TreePlan) -> Polynomial:
    """Expansion-size polynomial: value at ``n`` is the node count at size ``n``.

    Every plan node contributes x to the number of inf nodes on its path.
    """
    degrees = Counter(inf_count(p, sigma) for sigma in p.nodes)
    return Polynomial([degrees[d] for d in range(max(degrees) + 1)])


def poly_Q(p: TreePlan, sigma: PlanPath) -> Polynomial:
    """Fiber-size polynomial: x to the number of inf nodes on the path to ``sigma``."""
    return Polynomial.monomial(inf_count(p, sigma))


def poly_Q_rel(p: TreePlan, sigma: PlanPath, sigma_p: PlanPath) -> Polynomial:
    """Relative fiber polynomial for a prefix pair: x to the number of inf
    nodes after ``sigma`` on the path to ``sigma_p``."""
    if sigma_p[: len(sigma)] != sigma:
        raise DomainError(f"{sigma} is not a prefix of {sigma_p}")
    if sigma_p not in p.nodes:
        raise DomainError(f"unknown plan node {sigma_p}")
    return Polynomial.monomial(inf_count(p, sigma_p) - inf_count(p, sigma))


def deg(p: TreePlan) -> int:
    return poly_P(p).degree()


def lead_count(p: TreePlan) -> int:
    """Leading coefficient of the size polynomial; equals the number of plan
    nodes of maximal degree."""
    return poly_P(p).leading()


@dataclass(frozen=True)
class DimMeasure:
    """Dimension/measure pair of a relative fiber.

    ``delta`` is the degree ratio; the measure is ``1 / base**delta``, kept
    symbolically since it is irrational in general.  ``mu_exact`` is filled
    in when the value happens to be rational.
    """

    delta: Fraction
    base: int

    @property
    def mu_exact(self) -> Optional[Fraction]:
        if self.delta == 0:
            return Fraction(1)
        if self.base == 1:
            return Fraction(1)
        if self.delta.denominator == 1:
            return Fraction(1, self.base ** self.delta.numerator)
        return None

    @property
    def mu(self) -> float:
        return float(self.base) ** (-float(self.delta))

    def mu_decimal(self, digits: int = 6) -> str:
        exact = self.mu_exact
        if exact is not None:
            return f"{float(exact):.{digits}f}"
        return f"{self.mu:.{digits}f}"

    def __repr__(self) -> str:
        return f"DimMeasure(delta={self.delta}, mu=1/{self.base}^{self.delta})"


def dim_measure(p: TreePlan, sigma: PlanPath, sigma_p: PlanPath) -> DimMeasure:
    """Dimension and measure of the fiber of ``sigma_p`` over a ``sigma`` witness.

    The measure is exactly 1 when the relative degree is 0 (the relative
    fiber polynomial is the constant one).
    """
    rel_deg = poly_Q_rel(p, sigma, sigma_p).degree()
    if rel_deg == 0:
        return DimMeasure(Fraction(0), lead_count(p))
    return DimMeasure(Fraction(rel_deg, deg(p)), lead_count(p))


@dataclass(frozen=True)
class CountRow:
    plan: str
    quantity: str
    n: int
    observed: int
    predicted: int
    passed: bool


@dataclass(frozen=True)
class CountReport:
    rows: tuple[CountRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["plan", "quantity", "n", "observed", "predicted", "pass"])
        for r in self.rows:
            writer.writerow(
                [r.plan, r.quantity, r.n, r.observed, r.predicted, str(r.passed).lower()]
            )
        return buf.getvalue()


def verify_P(p: TreePlan, n_max: int, budget: Optional[int] = None) -> CountReport:
    """Check the size identity exactly for every ``n`` in ``1..n_max``."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    poly = poly_P(p)
    text = plan_text(p)
    rows = []
    for n in range(1, n_max + 1):
        observed = len(expand(p, n, budget=budget).tree)
        predicted = poly(n)
        rows.append(CountRow(text, "P", n, observed, predicted, observed == predicted))
    return CountReport(tuple(rows))


def verify_Q(p: TreePlan, n_max: int, budget: Optional[int] = None) -> CountReport:
    """Check every fiber identity and every relative fiber identity exactly.

    For each plan node the fiber count must match its polynomial; for each
    prefix pair and each witness in the lower fiber, the count of
    extensions of that witness in the upper fiber must match the relative
    polynomial.  A witness counts as extending itself, so the identity at
    equal endpoints reads 1 = 1.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    text = plan_text(p)
    rows = []
    pairs = [
        (sigma, sigma_p)
        for sigma in p.sorted_nodes()
        for sigma_p in p.sorted_nodes()
        if sigma_p[: len(sigma)] == sigma
    ]
    for n in range(1, n_max + 1):
        e = expand(p, n, budget=budget)
        for sigma in p.sorted_nodes():
            observed = len(e.fiber(sigma))
            predicted = poly_Q(p, sigma)(n)
            rows.append(
                CountRow(
                    text, f"Q[{path_text(sigma) or '<>'}]", n, observed, predicted,
                    observed == predicted,
                )
            )
        for sigma, sigma_p in pairs:
            predicted = poly_Q_rel(p, sigma, sigma_p)(n)
            # A witness's extensions are the upper-fiber members with that prefix.
            tally = Counter(a.prefix(len(sigma)) for a in e.fiber(sigma_p))
            for b in e.fiber(sigma):
                observed = tally[b]
                rows.append(
                    CountRow(
                        text,
                        f"Qrel[{path_text(sigma) or '<>'}->{path_text(sigma_p) or '<>'}]@{b}",
                        n,
                        observed,
                        predicted,
                        observed == predicted,
                    )
                )
    return CountReport(tuple(rows))


def fiber_above(e: Expansion, b: Node, sigma_p: PlanPath) -> list[Node]:
    """Members of the ``sigma_p`` fiber extending the witness ``b``."""
    e.tree.require(b)
    return [a for a in e.fiber(sigma_p) if b.is_prefix_of(a)]
