"""Unit and property tests for symbolic sizes (repro.ir.size)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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
        hash(size), repr(size)
        assert {"_hash", "_repr"} <= set(vars(size))
        loaded = pickle.loads(pickle.dumps(size))
        assert set(vars(loaded)) == {"factor", "powers"}
        assert loaded == size and hash(loaded) == hash(size) and repr(loaded) == repr(size)

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
