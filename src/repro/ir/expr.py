"""Coordinate expressions and a Halide-style term-rewrite simplifier.

Coordinate expressions index tensors inside an operator's loop nest.  The
paper's primitives are defined by how they transform coordinate expressions
(Table 1); the canonicalization rules of Section 6 are justified by algebraic
identities on these expressions, such as ``(B*i) % (B*C) == B * (i % C)``.

The AST here is intentionally small: iterators, integer constants, addition,
multiplication by a symbolic size, floor division and modulo by a symbolic
size.  That is exactly the fragment the eight primitives generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.ir.size import Size
from repro.ir.variables import Variable


class CoordExpr:
    """Base class for coordinate expressions."""

    def iterators(self) -> frozenset["Iterator"]:
        raise NotImplementedError

    def evaluate(
        self,
        iterator_values: Mapping["Iterator", int],
        bindings: Mapping[Variable, int] | None = None,
    ) -> int:
        raise NotImplementedError

    # Convenience constructors -------------------------------------------

    def __add__(self, other: "CoordExpr | int") -> "CoordExpr":
        return Add((self, _coerce(other)))

    def __radd__(self, other: "CoordExpr | int") -> "CoordExpr":
        return Add((_coerce(other), self))

    def times(self, size: Size | Variable | int) -> "CoordExpr":
        return Mul(self, Size.of(size))

    def mod(self, size: Size | Variable | int) -> "CoordExpr":
        return Mod(self, Size.of(size))


def _coerce(value: "CoordExpr | int") -> CoordExpr:
    if isinstance(value, CoordExpr):
        return value
    return Const(int(value))


@dataclass(frozen=True)
class Iterator(CoordExpr):
    """A loop iterator with a symbolic domain, e.g. ``i_H : H``."""

    name: str
    domain: Size

    def iterators(self) -> frozenset["Iterator"]:
        return frozenset({self})

    def evaluate(self, iterator_values, bindings=None) -> int:
        return iterator_values[self]

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(CoordExpr):
    """An integer constant."""

    value: int

    def iterators(self) -> frozenset[Iterator]:
        return frozenset()

    def evaluate(self, iterator_values, bindings=None) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Add(CoordExpr):
    """Sum of sub-expressions."""

    terms: tuple[CoordExpr, ...]

    def iterators(self) -> frozenset[Iterator]:
        result: set[Iterator] = set()
        for term in self.terms:
            result.update(term.iterators())
        return frozenset(result)

    def evaluate(self, iterator_values, bindings=None) -> int:
        return sum(term.evaluate(iterator_values, bindings) for term in self.terms)

    def __repr__(self) -> str:
        return "(" + " + ".join(repr(term) for term in self.terms) + ")"


@dataclass(frozen=True)
class Mul(CoordExpr):
    """Multiplication of an expression by a symbolic size."""

    expr: CoordExpr
    size: Size

    def iterators(self) -> frozenset[Iterator]:
        return self.expr.iterators()

    def evaluate(self, iterator_values, bindings=None) -> int:
        return self.expr.evaluate(iterator_values, bindings) * self.size.evaluate(bindings)

    def __repr__(self) -> str:
        return f"({self.size!r} * {self.expr!r})"


@dataclass(frozen=True)
class FloorDiv(CoordExpr):
    """Floor division of an expression by a symbolic size."""

    expr: CoordExpr
    size: Size

    def iterators(self) -> frozenset[Iterator]:
        return self.expr.iterators()

    def evaluate(self, iterator_values, bindings=None) -> int:
        return self.expr.evaluate(iterator_values, bindings) // self.size.evaluate(bindings)

    def __repr__(self) -> str:
        return f"({self.expr!r} / {self.size!r})"


@dataclass(frozen=True)
class Mod(CoordExpr):
    """Modulo of an expression by a symbolic size."""

    expr: CoordExpr
    size: Size

    def iterators(self) -> frozenset[Iterator]:
        return self.expr.iterators()

    def evaluate(self, iterator_values, bindings=None) -> int:
        return self.expr.evaluate(iterator_values, bindings) % self.size.evaluate(bindings)

    def __repr__(self) -> str:
        return f"({self.expr!r} % {self.size!r})"


# ---------------------------------------------------------------------------
# Term-rewrite simplification
# ---------------------------------------------------------------------------


def simplify(expr: CoordExpr) -> CoordExpr:
    """Simplify a coordinate expression with Halide-style rewrite rules.

    The rules implemented here are the ones the paper's canonicalization
    relies on; they are applied bottom-up until a fixed point is reached:

    * constant folding and flattening of nested additions;
    * ``(B*i) % (B*C)  ->  B * (i % C)``
    * ``(B*i) / (B*C)  ->  i / C``
    * ``(i % C) / C    ->  0`` and ``(i % C) % C -> i % C``
    * ``i / D`` and ``i % D`` with the iterator's domain dividing ``D``
      reduce to ``0`` and ``i`` respectively;
    * multiplication distributes over addition.
    """
    previous = None
    current = expr
    for _ in range(32):
        if previous is not None and repr(previous) == repr(current):
            break
        previous = current
        current = _rewrite(current)
    return current


def _rewrite(expr: CoordExpr) -> CoordExpr:
    if isinstance(expr, (Iterator, Const)):
        return expr
    if isinstance(expr, Add):
        return _rewrite_add(expr)
    if isinstance(expr, Mul):
        return _rewrite_mul(expr)
    if isinstance(expr, FloorDiv):
        return _rewrite_floordiv(expr)
    if isinstance(expr, Mod):
        return _rewrite_mod(expr)
    return expr


def _rewrite_add(expr: Add) -> CoordExpr:
    terms: list[CoordExpr] = []
    constant = 0
    for term in expr.terms:
        term = _rewrite(term)
        if isinstance(term, Add):
            terms.extend(term.terms)
        elif isinstance(term, Const):
            constant += term.value
        else:
            terms.append(term)
    if constant:
        terms.append(Const(constant))
    if not terms:
        return Const(0)
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _rewrite_mul(expr: Mul) -> CoordExpr:
    inner = _rewrite(expr.expr)
    if expr.size.is_one:
        return inner
    if isinstance(inner, Const):
        if inner.value == 0:
            return Const(0)
    if isinstance(inner, Add):
        # Distribute multiplication over addition (the paper's notion of
        # "removing parentheses").
        return Add(tuple(Mul(term, expr.size) for term in inner.terms))
    if isinstance(inner, Mul):
        return Mul(inner.expr, inner.size * expr.size)
    return Mul(inner, expr.size)


def _known_bound(expr: CoordExpr) -> Size | None:
    """An upper bound (exclusive) on the value of ``expr``, if easily known."""
    if isinstance(expr, Iterator):
        return expr.domain
    if isinstance(expr, Mod):
        return expr.size
    if isinstance(expr, Mul):
        inner = _known_bound(expr.expr)
        if inner is not None:
            return inner * expr.size
    return None


def _rewrite_floordiv(expr: FloorDiv) -> CoordExpr:
    inner = _rewrite(expr.expr)
    size = expr.size
    if size.is_one:
        return inner
    if isinstance(inner, Const) and inner.value == 0:
        return Const(0)
    bound = _known_bound(inner)
    if bound is not None and (bound / size).is_one:
        # expr < size  =>  expr / size == 0
        return Const(0)
    if isinstance(inner, Mul):
        quotient = inner.size / size
        if quotient.is_plausible and not quotient.has_primary_in_denominator:
            if quotient.is_one:
                return inner.expr
        reciprocal = size / inner.size
        if inner.size.divides(size):
            # (B*i) / (B*C) -> i / C
            return FloorDiv(inner.expr, reciprocal)
    if isinstance(inner, FloorDiv):
        return FloorDiv(inner.expr, inner.size * size)
    return FloorDiv(inner, size)


def _rewrite_mod(expr: Mod) -> CoordExpr:
    inner = _rewrite(expr.expr)
    size = expr.size
    if size.is_one:
        return Const(0)
    if isinstance(inner, Const) and inner.value == 0:
        return Const(0)
    bound = _known_bound(inner)
    if bound is not None and (bound / size).is_one:
        # expr < size  =>  expr % size == expr
        return inner
    if isinstance(inner, Mul) and inner.size.divides(size):
        # (B*i) % (B*C) -> B * (i % C)
        return Mul(Mod(inner.expr, size / inner.size), inner.size)
    if isinstance(inner, Mod) and repr(inner.size) == repr(size):
        return inner
    return Mod(inner, size)
