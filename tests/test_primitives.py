"""Tests for the eight primitives' frontier (bottom-up) semantics."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.pgraph import Dim, DimRole, PGraph
from repro.core.primitives import (
    Expand,
    Merge,
    PrimitiveError,
    Reduce,
    Share,
    Shift,
    Split,
    Stride,
    Unfold,
)
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.ir.variables import coefficient, primary

H = primary("H", default=12)
W = primary("W", default=8)
C = primary("C", default=4)
B = coefficient("b", default=3)
S = coefficient("s", default=2)


def _root(output, input_shape) -> PGraph:
    return PGraph.root(ShapeSpec.of(output), ShapeSpec.of(input_shape))


class TestMerge:
    def test_splits_one_dim_into_two(self):
        graph = _root([H], [H])
        graph = Merge(block=Size.of(B)).apply(graph, (graph.frontier[0],))
        assert len(graph.frontier) == 2
        assert graph.frontier[0].size == Size.of(H) / B
        assert graph.frontier[1].size == Size.of(B)

    def test_rejects_block_one(self):
        graph = _root([H], [H])
        with pytest.raises(PrimitiveError):
            Merge(block=Size.one()).apply(graph, (graph.frontier[0],))

    def test_rejects_primary_denominator(self):
        graph = _root([B], [B])
        with pytest.raises(PrimitiveError):
            Merge(block=Size.of(H)).apply(graph, (graph.frontier[0],))


class TestSplit:
    def test_combines_two_dims(self):
        graph = _root([H, W], [H, W])
        graph = Split().apply(graph, (graph.frontier[0], graph.frontier[1]))
        assert len(graph.frontier) == 1
        assert graph.frontier[0].size == Size.of(H) * W

    def test_operand_must_be_in_frontier(self):
        graph = _root([H, W], [H, W])
        other = _root([C], [C])
        with pytest.raises(PrimitiveError):
            Split().apply(graph, (graph.frontier[0], other.frontier[0]))


class TestShiftExpandStride:
    def test_shift_preserves_size(self):
        graph = _root([H], [H])
        graph = Shift(amount=1).apply(graph, (graph.frontier[0],))
        assert graph.frontier[0].size == Size.of(H)

    def test_expand_removes_dim(self):
        graph = _root([H, C], [H])
        graph = Expand().apply(graph, (graph.frontier[1],))
        assert graph.frontier_shape.same_multiset(ShapeSpec.of([H]))

    def test_stride_scales_size(self):
        graph = _root([C], [C])
        graph = Stride(stride=Size.of(S)).apply(graph, (graph.frontier[0],))
        assert graph.frontier[0].size == Size.of(C) * S

    def test_stride_of_one_rejected(self):
        graph = _root([C], [C])
        with pytest.raises(PrimitiveError):
            Stride(stride=Size.one()).apply(graph, (graph.frontier[0],))


class TestUnfold:
    def test_combines_main_and_window(self):
        graph = _root([H], [H])
        graph = Reduce(size=Size.of(B)).apply(graph, ())
        window = graph.frontier[-1]
        graph = Unfold().apply(graph, (graph.frontier[0], window))
        assert len(graph.frontier) == 1
        assert graph.frontier[0].size == Size.of(H)

    def test_window_must_not_be_primary(self):
        graph = _root([H, W], [H, W])
        with pytest.raises(PrimitiveError):
            Unfold().apply(graph, (graph.frontier[0], graph.frontier[1]))


class TestReduce:
    def test_adds_reduction_dim(self):
        graph = _root([H], [H, C])
        graph = Reduce(size=Size.of(C)).apply(graph, ())
        assert graph.frontier[-1].is_reduction
        assert graph.frontier[-1].size == Size.of(C)
        assert graph.is_complete

    def test_size_one_rejected(self):
        graph = _root([H], [H])
        with pytest.raises(PrimitiveError):
            Reduce(size=Size.one()).apply(graph, ())


class TestShare:
    def test_creates_weight_with_shared_dim(self):
        graph = _root([H], [H])
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0],))
        assert len(graph.weights) == 1
        assert graph.weights[0].dims[0].size == Size.of(H)
        # The data path keeps the shared dim.
        assert graph.frontier_shape.same_multiset(ShapeSpec.of([H]))

    def test_match_moves_dim_to_weight(self):
        graph = _root([H, C], [H])
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0], graph.frontier[1]))
        assert graph.frontier_shape.same_multiset(ShapeSpec.of([H]))
        assert len(graph.weights[0].dims) == 2

    def test_append_requires_previous_share(self):
        graph = _root([H], [H])
        with pytest.raises(PrimitiveError):
            Share(new_weight=False).apply(graph, (graph.frontier[0],))

    def test_append_extends_existing_weight(self):
        graph = _root([H, C], [H, C])
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0],))
        graph = Share(new_weight=False).apply(graph, (graph.frontier[1],))
        assert len(graph.weights) == 1
        assert len(graph.weights[0].dims) == 2

    def test_requires_at_least_one_operand(self):
        graph = _root([H], [H])
        with pytest.raises(PrimitiveError):
            Share(new_weight=True).apply(graph, ())

    def test_append_extends_the_last_shares_weight_across_a_view(self):
        """``Share(+)`` needs an earlier Share, not an adjacent one."""
        graph = _root([H, C], [H, C])
        with pytest.raises(PrimitiveError, match="earlier Share"):
            Share(new_weight=False).apply(graph, (graph.frontier[0],))
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0],))
        graph = Shift(amount=1).apply(graph, (graph.frontier[1],))
        graph = Share(new_weight=False).apply(graph, (graph.frontier[1],))
        assert len(graph.weights) == 1
        assert [dim.identified_with for dim in graph.weights[0].dims] == list(graph.frontier)


class TestPGraphAccounting:
    def test_depth_and_counts(self):
        graph = _root([H], [H, C])
        graph = Reduce(size=Size.of(C)).apply(graph, ())
        graph = Share(new_weight=True).apply(graph, (graph.frontier[-1],))
        assert graph.depth == 2
        assert graph.count_primitive(Reduce) == 1
        assert graph.count_primitive(Share) == 1

    def test_macs_output_times_reductions(self):
        graph = _root([H], [H, C])
        graph = Reduce(size=Size.of(C)).apply(graph, ())
        binding = {H: 12, C: 4}
        assert graph.macs(binding) == 12 * 4

    def test_parameter_count(self):
        graph = _root([H, C], [H])
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0], graph.frontier[1]))
        assert graph.parameter_count({H: 12, C: 4}) == 48

    def test_signature_distinguishes_structures(self):
        graph = _root([H, W], [H, W])
        a = Shift(amount=1).apply(graph, (graph.frontier[0],))
        b = Shift(amount=1).apply(graph, (graph.frontier[1],))
        assert a.signature() != b.signature()

    def test_immutability_of_application(self):
        graph = _root([H], [H])
        extended = Shift(amount=1).apply(graph, (graph.frontier[0],))
        assert graph.depth == 0
        assert extended.depth == 1
        assert graph.frontier != extended.frontier

    def test_roles(self):
        graph = _root([H], [H, C])
        assert graph.frontier[0].role is DimRole.OUTPUT
        graph = Reduce(size=Size.of(C)).apply(graph, ())
        assert graph.frontier[-1].role is DimRole.REDUCTION


class TestDimIdentity:
    """Dims hash on their uid; equality keeps the field-wise relation."""

    def test_equal_fields_with_different_uids_are_unequal(self):
        first = Dim(size=Size.of(H), role=DimRole.OUTPUT, name="o0", uid=10_001)
        second = Dim(size=Size.of(H), role=DimRole.OUTPUT, name="o0", uid=10_002)
        assert first != second
        assert len({first, second}) == 2

    def test_equal_uids_with_different_fields_are_unequal(self):
        first = Dim(size=Size.of(H), role=DimRole.OUTPUT, name="o0", uid=10_003)
        renamed = dataclasses.replace(first, name="o1")
        resized = dataclasses.replace(first, size=Size.of(W))
        assert first != renamed and first != resized

    def test_dim_equals_its_unpickled_copy(self):
        graph = _root([H, W], [H, W])
        graph = Share(new_weight=True).apply(graph, (graph.frontier[0],))
        dim = graph.weights[0].dims[0]  # identified with an output dim
        copy = pickle.loads(pickle.dumps(dim))
        assert copy is not dim
        assert copy == dim and hash(copy) == hash(dim)
        assert dataclasses.replace(dim) == dim

    def test_frontier_membership_survives_pickle_and_replace(self):
        graph = _root([H, W], [H, W])
        graph = Merge(block=Size.of(S)).apply(graph, (graph.frontier[1],))
        loaded = pickle.loads(pickle.dumps(graph))
        replaced = dataclasses.replace(graph)
        for dim in graph.frontier:
            assert dim in loaded.frontier
            assert dim in replaced.frontier
            assert dataclasses.replace(dim) in graph.frontier
        # Operands from the original graph still address the loaded one.
        extended = Shift(amount=1).apply(loaded, (graph.frontier[0],))
        assert extended.depth == 2
