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
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.pgraph import PGraph
from repro.ir.size import SizeError
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


def graph_costs(
    graph: PGraph, binding: Mapping[Variable, int] | None = None
) -> tuple[int, int]:
    """``graph``'s MACs and parameter count under ``binding``.

    Either count reads 0 when a size it needs stays symbolic under a partial
    binding.
    """
    binding = binding or {}
    try:
        macs = graph.macs(binding)
    except SizeError:
        macs = 0
    try:
        params = graph.parameter_count(binding)
    except SizeError:
        params = 0
    return macs, params


def feature_vector(
    graph: PGraph,
    binding: Mapping[Variable, int] | None = None,
    costs: tuple[int, int] | None = None,
) -> tuple[float, ...]:
    """The structural embedding of one pGraph (see :data:`FEATURE_NAMES`).

    ``costs`` is :func:`graph_costs` for ``graph`` and ``binding``, for a
    caller that already has it.  A symbolic MACs or parameter count counts
    as 0, as a symbolic reduction extent counts as 1.
    """
    binding = binding or {}
    macs, params = costs if costs is not None else graph_costs(graph, binding)
    reduction_dims = graph.reduction_dims
    reduction_extent = 1
    for dim in reduction_dims:
        try:
            reduction_extent *= max(dim.size.evaluate(binding), 1)
        except SizeError:
            pass  # symbolic extent under a partial binding: skip the factor
    return (
        float(graph.depth),
        *(float(graph.count_primitive(primitive)) for primitive in _COUNTED_PRIMITIVES),
        float(len(graph.weights)),
        float(sum(len(weight.dims) for weight in graph.weights)),
        float(len(reduction_dims)),
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
