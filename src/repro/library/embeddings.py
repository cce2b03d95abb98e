"""Structural feature vectors and nearest-neighbour lists for library graphs.

Every library entry carries a small, purely structural embedding computed
from its pGraph: primitive-type counts, depth, the reduction-dimension
profile, and log-scaled MACs/parameter counts under the library's budget
binding.  The vectors are cheap (no training, no tensors), deterministic,
and comparable across builds — which is all warm-starting needs: ranking
"graphs shaped like the ones that scored well before" ahead of the rest.

Nearest neighbours are plain Euclidean over these vectors with a total
tie-break on signature.  The builder ranks them in process over the complete
entries, a set no shard count changes, so the k-NN lists embedded in the
artifact are bit-identical regardless of shard count.

A build costs and embeds hundreds of graphs whose dims share a few dozen size
objects, so it makes one :class:`SizeTable` for its binding and hands it to
:func:`graph_costs` and :func:`feature_vector`, which then evaluate each size
object once per build instead of once per dim they walk.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.pgraph import DimRole, PGraph
from repro.ir.size import Size, SizeError
from repro.core.primitives import (
    Expand,
    Merge,
    Reduce,
    Share,
    Shift,
    Split,
    Stride,
    Unfold,
)
from repro.ir.variables import Variable

#: Primitive types counted in the embedding, in feature order.
_COUNTED_PRIMITIVES = (Reduce, Share, Merge, Split, Shift, Expand, Stride, Unfold)

#: counted primitive type -> its index in :data:`_COUNTED_PRIMITIVES`.
_COUNT_INDEX = MappingProxyType(
    {kind: index for index, kind in enumerate(_COUNTED_PRIMITIVES)}
)

_REDUCTION = DimRole.REDUCTION

#: Names of the feature-vector components, in order.  Stored in library
#: metadata so the vectors stay interpretable after the build.
FEATURE_NAMES: tuple[str, ...] = (
    "depth",
    *(f"count_{primitive.__name__.lower()}" for primitive in _COUNTED_PRIMITIVES),
    "weights",
    "weight_dims",
    "reduction_dims",
    "reduction_log_extent",
    "frontier_size",
    "log_macs",
    "log_params",
)


class SizeTable:
    """The values of sizes under one binding, each distinct size evaluated once.

    A size that stays symbolic under the binding reads ``None``.  Lookups go
    by the size object's ``id`` (the table holds each object it has seen, so
    its id is not reused while the table lives), so they never compare
    equal but distinct sizes through their ``Fraction`` factors.  An
    object's first lookup finds its value by the size's value, so the copies
    of one size that a cold build's shard workers send back are evaluated
    once between them.  The table holds its binding, and
    :func:`graph_costs` and :func:`feature_vector` refuse it under another
    one.
    """

    __slots__ = ("binding", "_by_id", "_by_value")

    def __init__(self, binding: Mapping[Variable, int] | None = None) -> None:
        self.binding: Mapping[Variable, int] = binding or {}
        self._by_id: dict[int, tuple[Size, int | None]] = {}
        self._by_value: dict[tuple, int | None] = {}

    def value(self, size: Size) -> int | None:
        """``size.evaluate(binding)``, or ``None`` when it stays symbolic."""
        known = self._by_id.get(id(size))
        if known is None:
            # Variables compare by name and kind only, and an unbound one
            # evaluates to its default, so the defaults are part of the value.
            key = (size, tuple(var.default for var, _ in size.powers))
            if key in self._by_value:
                value = self._by_value[key]
            else:
                try:
                    value = size.evaluate(self.binding)
                except SizeError:
                    value = None
                self._by_value[key] = value
            known = self._by_id[id(size)] = (size, value)
        return known[1]


def _size_table(
    binding: Mapping[Variable, int] | None, sizes: SizeTable | None
) -> SizeTable:
    """``sizes``, checked against ``binding`` when both are given, else a fresh table."""
    if sizes is None:
        return SizeTable(binding)
    if binding is not None and binding is not sizes.binding and (
        dict(binding) != dict(sizes.binding)
    ):
        raise ValueError("a SizeTable is bound to another binding than the one given")
    return sizes


def output_element_count(
    graph: PGraph, binding: Mapping[Variable, int] | None = None
) -> int:
    """The element count of ``graph``'s output under ``binding``, 0 when symbolic.

    Every graph of one spec shares it, so a caller that costs many of them
    evaluates it once and hands it to :func:`graph_costs`.
    """
    try:
        return graph.output_shape.numel(binding or {})
    except SizeError:
        return 0


def graph_costs(
    graph: PGraph,
    binding: Mapping[Variable, int] | None = None,
    output_elements: int | None = None,
    sizes: SizeTable | None = None,
) -> tuple[int, int]:
    """``graph``'s MACs and parameter count under ``binding``.

    ``output_elements`` is :func:`output_element_count` for ``graph`` and
    ``binding``, for a caller that already has it; the MACs are it times
    each reduction extent, as in :meth:`PGraph.macs`, and the parameter
    count is :meth:`PGraph.parameter_count`'s.  Either count reads 0 when a
    size it needs stays symbolic under a partial binding.  Sizes are read
    from ``sizes``, a :class:`SizeTable` bound to ``binding`` (which may
    then be left out), or from a fresh table when it is ``None``.
    """
    sizes = _size_table(binding, sizes)
    if output_elements is None:
        output_elements = output_element_count(graph, sizes.binding)
    value = sizes.value
    macs = output_elements
    for app in graph.applications:
        if not macs:
            break
        for dim in app.produced:
            if dim.role is _REDUCTION:
                extent = value(dim.size)
                if extent is None:
                    macs = 0
                    break
                macs *= extent
    params = 0
    for weight in graph.weights:
        count = 1
        for dim in weight.dims:
            extent = value(dim.size)
            if extent is None:
                return macs, 0
            count *= extent
        params += count
    return macs, params


def feature_vector(
    graph: PGraph,
    binding: Mapping[Variable, int] | None = None,
    costs: tuple[int, int] | None = None,
    sizes: SizeTable | None = None,
) -> tuple[float, ...]:
    """The structural embedding of one pGraph (see :data:`FEATURE_NAMES`).

    ``costs`` is :func:`graph_costs` for ``graph`` and ``binding``, for a
    caller that already has it, and ``sizes`` a :class:`SizeTable` for
    ``binding``, as :func:`graph_costs` takes it.  A symbolic MACs or
    parameter count counts as 0, as a symbolic reduction extent counts as 1.
    One walk over the applications counts each primitive type, by a type
    table lookup (a subclass of a counted type counts under it, as
    :meth:`PGraph.count_primitive` counts it), and the reductions with their
    extent, so embedding a graph derives no
    :class:`~repro.core.pgraph.RuleState` on it.
    """
    sizes = _size_table(binding, sizes)
    macs, params = costs if costs is not None else graph_costs(graph, sizes=sizes)
    value = sizes.value
    counts = [0] * len(_COUNTED_PRIMITIVES)
    reductions = 0
    reduction_extent = 1
    for app in graph.applications:
        primitive = app.primitive
        index = _COUNT_INDEX.get(type(primitive))
        if index is not None:
            counts[index] += 1
        else:  # no counted type itself: counted under each one it subclasses
            for index, kind in enumerate(_COUNTED_PRIMITIVES):
                if isinstance(primitive, kind):
                    counts[index] += 1
        for dim in app.produced:
            if dim.role is _REDUCTION:
                reductions += 1
                extent = value(dim.size)
                if extent is not None:  # a symbolic extent skips its factor
                    reduction_extent *= extent
    weight_dims = 0
    for weight in graph.weights:
        weight_dims += len(weight.dims)
    return (
        float(graph.depth),
        *map(float, counts),
        float(len(graph.weights)),
        float(weight_dims),
        float(reductions),
        math.log1p(float(reduction_extent)),
        float(len(graph.frontier)),
        math.log1p(float(macs)),
        math.log1p(float(params)),
    )


def distance(left: Sequence[float], right: Sequence[float]) -> float:
    """Euclidean distance between two feature vectors."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(left, right)))


def nearest_neighbours(
    signature: str,
    features: Sequence[float],
    candidates: Sequence[tuple[str, Sequence[float]]],
    k: int,
) -> tuple[str, ...]:
    """The ``k`` candidate signatures nearest to ``features``, nearest first.

    ``candidates`` is the (signature, features) pool to rank; the entry's own
    signature is excluded.  Ties break on signature so the result is a total
    order independent of candidate iteration order.
    """
    ranked = sorted(
        (distance(features, candidate_features), candidate_signature)
        for candidate_signature, candidate_features in candidates
        if candidate_signature != signature
    )
    return tuple(candidate for _, candidate in ranked[:k])
