"""Symbolic dimension sizes as monomials over variables.

A :class:`Size` is a product of a rational numeric factor and variables raised
to (possibly negative) integer powers, e.g. ``2 * H * W / s``.  This is exactly
the representation the paper uses for primitive parameters and dimension
domains (Section 5.4): monomials of primary and coefficient variables with
bounded degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from repro.ir.variables import Variable, VariableKind


class SizeError(ValueError):
    """Raised for invalid symbolic size manipulations (e.g. inexact division)."""


#: marks a variable that ``Size.evaluate``'s bindings leave unbound.
_UNBOUND = object()


def _power_order(item: tuple[Variable, int]) -> tuple[str, str]:
    return (item[0].kind.value, item[0].name)


def _normalize_powers(powers: Mapping[Variable, int]) -> tuple[tuple[Variable, int], ...]:
    items = [(v, int(p)) for v, p in powers.items() if int(p) != 0]
    items.sort(key=_power_order)
    return tuple(items)


def _integer_ratio(value) -> tuple[int, int]:
    """A binding value as an exact integer ratio: an int as is, else as ``Fraction`` reads it."""
    if type(value) is int:
        return value, 1
    exact = Fraction(value)
    return int(exact.numerator), int(exact.denominator)


def _same_variables(left: "Size", right: "Size") -> bool:
    """Whether two equal sizes hold the very same variable objects.

    Variables compare by name and kind only, so equal sizes can carry
    variables with different defaults, which a product keeps.
    """
    return left is right or all(
        mine is theirs for (mine, _), (theirs, _) in zip(left.powers, right.powers)
    )


def _combine_powers(
    lhs: tuple[tuple[Variable, int], ...], rhs: tuple[tuple[Variable, int], ...], sign: int
) -> tuple[tuple[Variable, int], ...]:
    """The normalized powers of ``lhs * rhs**sign`` for two normalized tuples."""
    if not rhs:
        return lhs
    if not lhs and sign == 1:
        return rhs
    powers = dict(lhs)
    for var, power in rhs:
        powers[var] = powers.get(var, 0) + sign * power
    items = [item for item in powers.items() if item[1] != 0]
    if len(items) > 1:
        items.sort(key=_power_order)
    return tuple(items)


@dataclass(frozen=True)
class Size:
    """A symbolic size: ``factor * prod(var ** power)``.

    Instances are immutable and hashable, so sizes can be used as dictionary
    keys and compared structurally (two sizes are equal iff they have the same
    normalized factor and variable powers).

    The hash, the repr, the primary variables and the results of ``*`` and
    ``/`` are computed once and kept on the instance, since enumeration
    hashes, prints and combines the same sizes many times over.  None of
    them is pickled: a ``str`` hash is salted per process, so a size loaded
    in another process must hash afresh.
    """

    factor: Fraction
    powers: tuple[tuple[Variable, int], ...]

    # Per-instance caches (class-level defaults, not dataclass fields).
    _hash = None
    _repr = None
    _primary = None
    #: other size -> (that size, self * it); likewise for ``/``.
    _products = None
    _quotients = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: "Size | Variable | int") -> "Size":
        """Coerce an int, a variable, or a size into a :class:`Size`."""
        if isinstance(value, Size):
            return value
        if isinstance(value, Variable):
            return Size(Fraction(1), ((value, 1),))
        if isinstance(value, int):
            if value <= 0:
                raise SizeError(f"sizes must be positive, got {value}")
            return Size(Fraction(value), ())
        raise TypeError(f"cannot interpret {value!r} as a Size")

    @staticmethod
    def one() -> "Size":
        return Size(Fraction(1), ())

    @staticmethod
    def product(sizes: Iterable["Size | Variable | int"]) -> "Size":
        result = Size.one()
        for size in sizes:
            result = result * Size.of(size)
        return result

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", Fraction(self.factor))
        object.__setattr__(self, "powers", _normalize_powers(dict(self.powers)))

    @staticmethod
    def _normalized(factor: Fraction, powers: tuple[tuple[Variable, int], ...]) -> "Size":
        """A size from an already-normalized factor and powers (skips ``__post_init__``)."""
        size = object.__new__(Size)
        object.__setattr__(size, "factor", factor)
        object.__setattr__(size, "powers", powers)
        return size

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.factor, self.powers))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        return {"factor": self.factor, "powers": self.powers}

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Size | Variable | int") -> "Size":
        return self._combined("_products", Size.of(other), 1)

    __rmul__ = __mul__

    def __truediv__(self, other: "Size | Variable | int") -> "Size":
        return self._combined("_quotients", Size.of(other), -1)

    def _combined(self, memo_name: str, other: "Size", sign: int) -> "Size":
        """``self * other`` (sign 1) or ``self / other`` (sign -1), memoized on ``self``."""
        memo = getattr(self, memo_name)
        if memo is None:
            memo = {}
            object.__setattr__(self, memo_name, memo)
        known = memo.get(other)
        if known is not None and _same_variables(known[0], other):
            return known[1]
        factor = self.factor * other.factor if sign == 1 else self.factor / other.factor
        result = Size._normalized(factor, _combine_powers(self.powers, other.powers, sign))
        memo[other] = (other, result)
        return result

    def pow(self, exponent: int) -> "Size":
        powers = {var: power * exponent for var, power in self.powers}
        return Size(self.factor**exponent, tuple(powers.items()))

    # -- queries -----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return self.factor == 1 and not self.powers

    @property
    def is_constant(self) -> bool:
        return not self.powers

    def variables(self, kind: VariableKind | None = None) -> frozenset[Variable]:
        if kind is None:
            return frozenset(var for var, _ in self.powers)
        return frozenset(var for var, _ in self.powers if var.kind is kind)

    def primary_variables(self) -> frozenset[Variable]:
        cached = self._primary
        if cached is None:
            cached = self.variables(VariableKind.PRIMARY)
            object.__setattr__(self, "_primary", cached)
        return cached

    def coefficient_variables(self) -> frozenset[Variable]:
        return self.variables(VariableKind.COEFFICIENT)

    def power_of(self, var: Variable) -> int:
        for candidate, power in self.powers:
            if candidate == var:
                return power
        return 0

    def degree(self, kind: VariableKind | None = None) -> int:
        """Total degree (sum of powers) restricted to a variable kind."""
        return sum(
            power
            for var, power in self.powers
            if kind is None or var.kind is kind
        )

    @property
    def has_primary_in_denominator(self) -> bool:
        """Primary variables may not appear in denominators (Section 5.4)."""
        return any(
            power < 0 and var.is_primary for var, power in self.powers
        )

    def divides(self, other: "Size | Variable | int") -> bool:
        """Whether ``self`` symbolically divides ``other``.

        The check is conservative: every variable power in ``self`` must be
        covered by ``other`` and the numeric factor of the quotient must be a
        positive integer.
        """
        quotient = Size.of(other) / self
        return quotient.is_plausible

    @property
    def is_plausible(self) -> bool:
        """Whether this size could denote a positive integral dimension.

        A size with a fractional constant factor and no variables, or with a
        primary variable in a denominator, cannot be a valid dimension size.
        """
        if self.has_primary_in_denominator:
            return False
        if not self.powers:
            return self.factor.denominator == 1 and self.factor >= 1
        return self.factor > 0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, bindings: Mapping[Variable, int] | None = None) -> int:
        """Evaluate to a concrete positive integer given variable bindings.

        Variables missing from ``bindings`` fall back to their declared
        default values.  Raises :class:`SizeError` if the result is not a
        positive integer.  The value is kept as an integer numerator and
        denominator; a ``Fraction`` is built only for the error text.
        """
        numerator = self.factor.numerator
        denominator = self.factor.denominator
        for var, power in self.powers:
            concrete = bindings.get(var, _UNBOUND) if bindings else _UNBOUND
            if concrete is _UNBOUND:
                if var.default is None:
                    raise SizeError(f"no binding for variable {var.name}")
                concrete = var.default
            if concrete <= 0:
                raise SizeError(f"variable {var.name} bound to non-positive {concrete}")
            top, bottom = _integer_ratio(concrete)
            if power < 0:
                top, bottom, power = bottom, top, -power
            numerator *= top**power
            denominator *= bottom**power
        if numerator % denominator or numerator <= 0:
            value = Fraction(numerator, denominator)
            raise SizeError(f"size {self} evaluates to non-integer {value}")
        return numerator // denominator

    def evaluates_to_integer(self, bindings: Mapping[Variable, int] | None = None) -> bool:
        try:
            self.evaluate(bindings)
        except SizeError:
            return False
        return True

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        cached = self._repr
        if cached is None:
            terms: list[str] = []
            if self.factor != 1 or not self.powers:
                terms.append(str(self.factor))
            for var, power in self.powers:
                if power == 1:
                    terms.append(var.name)
                else:
                    terms.append(f"{var.name}^{power}")
            cached = "*".join(terms)
            object.__setattr__(self, "_repr", cached)
        return cached
