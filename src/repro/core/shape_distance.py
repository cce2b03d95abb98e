"""The shape-distance metric that guides synthesis (Section 7.1).

``shape_distance(current, desired)`` estimates the minimum number of
additional primitives needed to turn the current frontier shape into the
desired input shape.  Synthesis backtracks whenever the remaining primitive
budget is smaller than the shape distance (Algorithm 1, line 20), which the
paper shows is essential: without it, hundreds of millions of random trials
produce no valid operator.

The metric follows the paper's construction:

1. dimensions of the two shapes are partitioned into *reshape groups* — future
   primitives only match dimensions within a group, never across groups;
2. a group whose two sides have the same total domain needs only reshape
   primitives, a lower bound of ``#lhs + #rhs - 2`` steps;
3. groups with differing domains additionally need at least one 1-to-many
   primitive, contributing one extra step (accounted once globally, as the
   paper does);
4. repeated dimensions / permutations are free (the final matching may
   transpose).

The distance is 0 exactly when the shapes match as multisets and at least 1
otherwise, so with no steps left the prune needs only the completeness test.
:func:`within_reach` is the prune predicate: below zero steps it is false,
at zero it is ``graph.is_complete``, and above zero it compares the distance
with the steps.  :func:`application_within_reach` decides the same question
for a candidate application before its child is built.  The library builder
and MCTS prune that way, through ``enumerate_children(..., steps=)``, because
at a build's last level almost every generated child is pruned, and building
one costs more than deciding it.  ``synthesize`` and the shape-distance
ablation test built children with :func:`within_reach`, since they need the
unpruned list (see :mod:`repro.core.enumeration`).  Many children that still
have steps share a frontier shape, so :func:`shape_distance` is memoized in
the ambient runtime context's caches (``RuntimeContext.cached_shape_distance``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.runtime.context import current as current_runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pgraph import Application, PGraph


def _union_find_groups(lhs: ShapeSpec, rhs: ShapeSpec) -> list[tuple[list[Size], list[Size]]]:
    """Partition dims of both shapes into reshape groups via shared variables."""
    entries: list[tuple[str, int, Size]] = []
    for index, size in enumerate(lhs):
        entries.append(("lhs", index, size))
    for index, size in enumerate(rhs):
        entries.append(("rhs", index, size))

    parent = list(range(len(entries)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    # Union entries that mention a common variable (primary or coefficient).
    by_variable: dict[str, list[int]] = {}
    for index, (_, _, size) in enumerate(entries):
        for var in size.variables():
            by_variable.setdefault(var.name, []).append(index)
    for indices in by_variable.values():
        for other in indices[1:]:
            union(indices[0], other)

    # Constant dims with equal value pair up greedily across the two sides.
    constants_lhs = [i for i, (side, _, size) in enumerate(entries) if side == "lhs" and size.is_constant]
    constants_rhs = [i for i, (side, _, size) in enumerate(entries) if side == "rhs" and size.is_constant]
    used_rhs: set[int] = set()
    for i in constants_lhs:
        for j in constants_rhs:
            if j in used_rhs:
                continue
            if entries[i][2] == entries[j][2]:
                union(i, j)
                used_rhs.add(j)
                break

    groups: dict[int, tuple[list[Size], list[Size]]] = {}
    for index, (side, _, size) in enumerate(entries):
        root = find(index)
        group = groups.setdefault(root, ([], []))
        if side == "lhs":
            group[0].append(size)
        else:
            group[1].append(size)
    return list(groups.values())


def _group_bound(lhs: list[Size], rhs: list[Size]) -> int:
    """Lower bound on the primitives needed to match one reshape group."""
    if not lhs and not rhs:
        return 0
    if not lhs or not rhs:
        # One side is empty: every dim on the other side must be produced or
        # eliminated by at least one primitive each, but a single 1-to-many
        # primitive can handle one dim; use a conservative bound of the count
        # minus overlap with the global 1-to-many step accounted separately.
        return max(len(lhs) + len(rhs) - 1, 0)
    # Pair up dims that are already identical (transposition is free).
    remaining_lhs = list(lhs)
    remaining_rhs = list(rhs)
    for size in list(remaining_lhs):
        for other in remaining_rhs:
            if size == other:
                remaining_lhs.remove(size)
                remaining_rhs.remove(other)
                break
    if not remaining_lhs and not remaining_rhs:
        return 0
    return max(len(remaining_lhs) + len(remaining_rhs) - 2, 0)


def shape_distance(current: ShapeSpec, desired: ShapeSpec) -> int:
    """Estimated minimum number of primitives to reach ``desired`` from ``current``.

    Returns 0 when the shapes already match as multisets.  Memoized per
    runtime context on both shapes' size tuples (see the module docstring).
    """
    current = ShapeSpec.of(current)
    desired = ShapeSpec.of(desired)
    return current_runtime().cached_shape_distance(
        (current.sizes, desired.sizes), lambda: _uncached_distance(current, desired)
    )


def _uncached_distance(current: ShapeSpec, desired: ShapeSpec) -> int:
    if current.same_multiset(desired):
        return 0

    groups = _union_find_groups(current, desired)
    total = sum(_group_bound(lhs, rhs) for lhs, rhs in groups)
    if current.total != desired.total:
        total += 1
    return max(total, 1)


def within_reach(graph: "PGraph", steps: int) -> bool:
    """Whether ``graph`` may still complete within ``steps`` more primitives.

    Exactly ``shape_distance(graph.frontier_shape, graph.input_shape) <= steps``,
    without computing a distance where the answer does not need one.
    """
    if steps < 0:
        return False
    if steps == 0:
        return graph.is_complete
    return shape_distance(graph.frontier_shape, graph.input_shape) <= steps


def application_within_reach(graph: "PGraph", application: "Application", steps: int) -> bool:
    """``within_reach(graph.extend(application), steps)``, decided without building the child.

    At zero steps the child's rank is checked first, from the counts of
    consumed and produced dims; only a child of the input's rank gets its
    frontier sizes.  Those come from :meth:`PGraph.frontier_after`, the order
    :meth:`PGraph.extend` builds, so the shape-distance memo sees the keys
    that built children would give it.
    """
    if steps < 0:
        return False
    desired = graph.input_shape
    if steps == 0:
        rank = len(graph.frontier) - len(application.consumed) + len(application.produced)
        if rank != len(desired):
            return False
    shape = ShapeSpec(tuple(dim.size for dim in graph.frontier_after(application)))
    if steps == 0:
        return shape.same_multiset(desired)
    return shape_distance(shape, desired) <= steps
