"""Unit and property tests for symbolic sizes (repro.ir.size)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.shape import ShapeSpec
from repro.ir.size import Size, SizeError
from repro.ir.variables import Variable, VariableKind, coefficient, primary

H = primary("H", default=8)
W = primary("W", default=6)
S = coefficient("s", default=2)


class TestConstruction:
    def test_of_int(self):
        assert Size.of(4).evaluate({}) == 4

    def test_of_variable(self):
        assert Size.of(H).evaluate({H: 10}) == 10

    def test_of_size_is_identity(self):
        size = Size.of(H) * 2
        assert Size.of(size) is size

    def test_rejects_non_positive_ints(self):
        with pytest.raises(SizeError):
            Size.of(0)
        with pytest.raises(SizeError):
            Size.of(-3)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            Size.of("H")

    def test_one(self):
        assert Size.one().is_one
        assert Size.one().evaluate({}) == 1

    def test_product(self):
        assert Size.product([2, 3, H]).evaluate({H: 5}) == 30


class TestAlgebra:
    def test_multiplication_combines_powers(self):
        size = Size.of(H) * Size.of(H)
        assert size.power_of(H) == 2
        assert size.evaluate({H: 3}) == 9

    def test_multiplication_by_int(self):
        assert (Size.of(H) * 4).evaluate({H: 2}) == 8
        assert (4 * Size.of(H)).evaluate({H: 2}) == 8

    def test_division_cancels(self):
        size = (Size.of(H) * Size.of(S)) / Size.of(S)
        assert size == Size.of(H)

    def test_division_creates_negative_power(self):
        size = Size.of(H) / Size.of(S)
        assert size.power_of(S) == -1
        assert size.evaluate({H: 8, S: 2}) == 4

    def test_pow(self):
        assert Size.of(H).pow(3).evaluate({H: 2}) == 8

    def test_structural_equality(self):
        assert Size.of(H) * 2 == 2 * Size.of(H)
        assert Size.of(H) * Size.of(W) == Size.of(W) * Size.of(H)

    def test_hashable(self):
        assert len({Size.of(H), Size.of(H), Size.of(W)}) == 2


class TestCachedValues:
    """Hash, repr, total and multiset key are cached, but never pickled."""

    def test_size_pickles_only_its_fields(self):
        size = Size.of(H) * W / S
        hash(size), repr(size), size.primary_variables(), size * S, size / W
        assert {"_hash", "_repr", "_primary", "_products", "_quotients"} <= set(vars(size))
        loaded = pickle.loads(pickle.dumps(size))
        assert set(vars(loaded)) == {"factor", "powers"}
        assert loaded == size and hash(loaded) == hash(size) and repr(loaded) == repr(size)
        assert pickle.dumps(size) == pickle.dumps(Size(size.factor, size.powers))

    def test_shape_spec_pickles_only_its_sizes(self):
        shape = ShapeSpec.of([H, Size.of(W) * S, 3])
        shape.total, shape.multiset_key()
        assert {"_total", "_multiset_key"} <= set(vars(shape))
        loaded = pickle.loads(pickle.dumps(shape))
        assert set(vars(loaded)) == {"sizes"}
        assert loaded == shape and loaded.total == shape.total
        assert loaded.multiset_key() == shape.multiset_key()

    def test_shape_spec_of_returns_a_shape_unchanged(self):
        shape = ShapeSpec.of([H, W])
        assert ShapeSpec.of(shape) is shape

    def test_hashed_size_is_found_in_a_process_with_another_hash_seed(self, tmp_path):
        size = Size.of(H) * W / S
        hash(size)
        payload = tmp_path / "size.pkl"
        payload.write_bytes(pickle.dumps(size))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from repro.ir.size import Size\n"
            "from repro.ir.variables import coefficient, primary\n"
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = Size.of(primary('H')) * primary('W') / coefficient('s')\n"
            "assert {fresh: 'found'}[loaded] == 'found'\n"
            "assert {loaded: 'found'}[fresh] == 'found'\n"
            "print(hash('H'))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script, str(payload)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        # The child really salted str hashes differently from this process.
        assert int(completed.stdout) != hash("H")


class TestQueries:
    def test_variables_by_kind(self):
        size = Size.of(H) / Size.of(S)
        assert size.primary_variables() == frozenset({H})
        assert size.coefficient_variables() == frozenset({S})

    def test_primary_in_denominator_flag(self):
        assert (Size.one() / H).has_primary_in_denominator
        assert not (Size.of(H) / S).has_primary_in_denominator

    def test_divides(self):
        assert Size.of(S).divides(Size.of(H) * S)
        assert not (Size.of(H) * S).divides(Size.of(S))

    def test_is_plausible(self):
        assert (Size.of(H) / S).is_plausible
        assert not (Size.one() / H).is_plausible
        assert not Size(Fraction(1, 2), ()).is_plausible

    def test_degree(self):
        size = Size.of(H) * Size.of(W) / Size.of(S)
        assert size.degree(VariableKind.PRIMARY) == 2
        assert size.degree(VariableKind.COEFFICIENT) == -1


class TestEvaluation:
    def test_uses_defaults(self):
        assert Size.of(H).evaluate() == 8

    def test_missing_binding_raises(self):
        unbound = Variable("Q")
        with pytest.raises(SizeError):
            Size.of(unbound).evaluate({})

    def test_non_integer_result_raises(self):
        with pytest.raises(SizeError):
            (Size.of(H) / S).evaluate({H: 7, S: 2})

    def test_evaluates_to_integer_predicate(self):
        assert (Size.of(H) / S).evaluates_to_integer({H: 8, S: 2})
        assert not (Size.of(H) / S).evaluates_to_integer({H: 7, S: 2})

    def test_non_positive_binding_raises(self):
        with pytest.raises(SizeError):
            Size.of(H).evaluate({H: 0})


@given(
    a=st.integers(min_value=1, max_value=64),
    b=st.integers(min_value=1, max_value=64),
    c=st.integers(min_value=1, max_value=8),
)
def test_property_mul_div_roundtrip(a: int, b: int, c: int):
    """(x * y) / y == x and evaluation is multiplicative."""
    x = Size.of(a) * H
    y = Size.of(b) * Size.of(S).pow(c)
    assert (x * y) / y == x
    binding = {H: 4, S: 2}
    assert (x * y).evaluate(binding) == x.evaluate(binding) * y.evaluate(binding)


@given(st.integers(min_value=1, max_value=1000))
def test_property_constant_roundtrip(value: int):
    assert Size.of(value).evaluate({}) == value


# ---------------------------------------------------------------------------
# Integer evaluation and memoized products against a Fraction reference
# ---------------------------------------------------------------------------


def _reference_evaluate(size: Size, bindings) -> int:
    """``Size.evaluate`` computed over ``Fraction`` values."""
    bindings = dict(bindings or {})
    value = Fraction(size.factor)
    for var, power in size.powers:
        if var in bindings:
            concrete = bindings[var]
        elif var.default is not None:
            concrete = var.default
        else:
            raise SizeError(f"no binding for variable {var.name}")
        if concrete <= 0:
            raise SizeError(f"variable {var.name} bound to non-positive {concrete}")
        value *= Fraction(concrete) ** power
    if value.denominator != 1 or value <= 0:
        raise SizeError(f"size {size} evaluates to non-integer {value}")
    return int(value)


def _reference_combine(left: Size, right: Size, sign: int) -> Size:
    """``left * right`` (sign 1) or ``left / right`` (sign -1), built from scratch."""
    powers = dict(left.powers)
    for var, power in right.powers:
        powers[var] = powers.get(var, 0) + sign * power
    factor = left.factor * right.factor if sign == 1 else left.factor / right.factor
    return Size(factor, tuple(powers.items()))


def _outcome(size: Size, bindings, evaluate) -> tuple:
    try:
        value = evaluate(size, bindings)
    except SizeError as exc:
        return ("error", str(exc))
    return ("value", type(value), value)


def _structure(size: Size) -> tuple:
    """The factor and the very variable objects (defaults included) with their powers."""
    return size.factor, [(id(var), power) for var, power in size.powers]


_VARIABLES = st.tuples(
    st.sampled_from("abc"),
    st.sampled_from(list(VariableKind)),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
_BINDING_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=-2, max_value=6).map(np.int64),
    st.sampled_from([0.5, 1.5, 2.0, 3.0, 0.0, -1.0]),
)


@st.composite
def _sizes(draw, pool):
    numerator = draw(st.integers(min_value=-2, max_value=12))
    factor = Fraction(numerator, draw(st.integers(min_value=1, max_value=4)))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(min_value=-2, max_value=3)),
            max_size=3,
        )
    )
    return Size(factor, tuple(terms))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_integer_arithmetic_matches_a_fraction_reference(data):
    """Values, ``SizeError`` texts and product variables equal the Fraction reference.

    Variables of one name and kind may carry different defaults, so equal
    sizes can differ in what they evaluate to; each operation runs twice so
    the second pass is served from the product memos.
    """
    pool = [Variable(*spec) for spec in data.draw(st.lists(_VARIABLES, min_size=1, max_size=6))]
    sizes = data.draw(st.lists(_sizes(pool), min_size=1, max_size=3))
    # An equal twin of each size whose variables default to other values.
    sizes += [
        Size(
            size.factor,
            tuple((Variable(var.name, var.kind, (var.default or 0) + 1), power)
                  for var, power in size.powers),
        )
        for size in sizes
    ]
    bindings = data.draw(
        st.one_of(st.none(), st.dictionaries(st.sampled_from(pool), _BINDING_VALUES, max_size=4))
    )
    for size in sizes:
        assert _outcome(size, bindings, Size.evaluate) == _outcome(
            size, bindings, _reference_evaluate
        )
    for _ in range(2):
        for left in sizes:
            for right in sizes:
                results = [(1, left * right)]
                if right.factor != 0:
                    results.append((-1, left / right))
                for sign, result in results:
                    expected = _reference_combine(left, right, sign)
                    assert result == expected
                    assert _structure(result) == _structure(expected)
                    assert _outcome(result, bindings, Size.evaluate) == _outcome(
                        expected, bindings, _reference_evaluate
                    )
