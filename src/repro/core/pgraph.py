"""Primitive graphs (pGraphs): partial and complete synthesized operators.

A pGraph is built *bottom-up*, starting from the output tensor's dimensions
and iteratively applying primitives (Section 5).  The state of a partial
operator is its *frontier*: the ordered list of dimensions of the data tensor
being constructed toward the operator's input.  Each primitive application
consumes some frontier dimensions and produces new ones; ``Share`` applications
additionally create weight-tensor dimensions.

A pGraph is complete when its frontier matches the desired input shape (as a
multiset of symbolic sizes — final transposition is free, Section 7.1).

``PGraph`` instances are immutable: applying a primitive returns a new graph
that structurally shares its history with the old one.  This is what makes the
search space a tree that MCTS can explore cheaply.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.ir.variables import Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.primitives import Primitive


_DIM_COUNTER = itertools.count()


def reserve_dim_uids(highest: int) -> None:
    """Advance the global dim uid counter strictly past ``highest``.

    Dim identity (equality, frontier membership, producer attribution) relies
    on uids being unique *within* a graph.  A graph pickled into a worker
    process carries uids from its producer's counter; before the worker
    extends it, the local counter must be moved past every uid the graph
    already holds or freshly created dims could collide with them.  Used by
    the shard-parallel library builder.
    """
    while next(_DIM_COUNTER) <= highest:
        pass


class DimRole(enum.Enum):
    """The origin of a dimension in the pGraph."""

    OUTPUT = "output"        #: a dimension of the operator's output tensor
    REDUCTION = "reduction"  #: created by a Reduce primitive
    INTERMEDIATE = "view"    #: created by a view primitive
    WEIGHT = "weight"        #: an axis of a weight tensor


@dataclass(frozen=True)
class Dim:
    """A single (possibly intermediate) coordinate of the pGraph.

    Dimensions have identity: two dims with the same size are distinct edges
    of the graph.  Weight dims additionally record which data-path dim they
    are identified with by a ``Share`` or its implicit ``Match``.

    A dim hashes on its uid, and equality settles on identity or a uid
    mismatch before falling back to comparing every field, so the relation
    is the field-wise one without its cost on the frontier-membership tests
    enumeration runs per candidate.
    """

    size: Size
    role: DimRole
    name: str = ""
    uid: int = field(default_factory=lambda: next(_DIM_COUNTER))
    identified_with: "Dim | None" = None

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.uid != other.uid:
            return False
        return (self.size, self.role, self.name, self.identified_with) == (
            other.size, other.role, other.name, other.identified_with
        )

    @property
    def is_reduction(self) -> bool:
        return self.role is DimRole.REDUCTION

    @property
    def is_output(self) -> bool:
        return self.role is DimRole.OUTPUT

    def __repr__(self) -> str:
        label = self.name or f"d{self.uid}"
        return f"{label}:{self.size!r}"


@dataclass(frozen=True)
class WeightTensor:
    """A weight tensor created by one or more ``Share`` applications."""

    dims: tuple[Dim, ...]

    @property
    def shape(self) -> ShapeSpec:
        return ShapeSpec(tuple(dim.size for dim in self.dims))

    def parameter_count(self, bindings: Mapping[Variable, int] | None = None) -> int:
        count = 1
        for dim in self.dims:
            count *= dim.size.evaluate(bindings)
        return count

    def __repr__(self) -> str:
        return f"W{self.shape!r}"


@dataclass(frozen=True)
class Application:
    """One primitive application: the edge set it consumed and produced."""

    primitive: "Primitive"
    consumed: tuple[Dim, ...]
    produced: tuple[Dim, ...]
    weight_dims: tuple[Dim, ...] = ()
    matched: tuple[Dim, ...] = ()
    weight_index: int | None = None

    def __repr__(self) -> str:
        return (
            f"{self.primitive.describe()}"
            f"({', '.join(map(repr, self.consumed))} -> {', '.join(map(repr, self.produced))})"
        )


@dataclass(frozen=True)
class PGraph:
    """An immutable partial (or complete) operator.

    Attributes:
        output_shape: the desired output tensor shape (the "bottom").
        input_shape: the desired input tensor shape (the synthesis target).
        output_dims: the dims of the output tensor, fixed at construction.
        frontier: the current interface toward the input tensor.
        applications: the primitive applications, in bottom-up order.
        weights: the weight tensors created so far.
    """

    output_shape: ShapeSpec
    input_shape: ShapeSpec
    output_dims: tuple[Dim, ...]
    frontier: tuple[Dim, ...]
    applications: tuple[Application, ...] = ()
    weights: tuple[WeightTensor, ...] = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def root(
        output_shape: ShapeSpec | Sequence[Size | Variable | int],
        input_shape: ShapeSpec | Sequence[Size | Variable | int],
        output_names: Sequence[str] | None = None,
    ) -> "PGraph":
        """Create the root pGraph whose frontier is the output dims."""
        output_shape = ShapeSpec.of(output_shape)
        input_shape = ShapeSpec.of(input_shape)
        names = list(output_names or [])
        dims = []
        for index, size in enumerate(output_shape):
            name = names[index] if index < len(names) else f"o{index}"
            dims.append(Dim(size=size, role=DimRole.OUTPUT, name=name))
        output_dims = tuple(dims)
        return PGraph(
            output_shape=output_shape,
            input_shape=input_shape,
            output_dims=output_dims,
            frontier=output_dims,
        )

    # -- frontier editing (used by primitives) ------------------------------

    def replace_dims(
        self,
        consumed: Sequence[Dim],
        produced: Sequence[Dim],
        application: Application,
        new_weight_dims: Sequence[Dim] = (),
        weight_index: int | None = None,
    ) -> "PGraph":
        """Return a new graph with ``consumed`` dims swapped for ``produced``.

        The produced dims are inserted at the position of the first consumed
        dim (or appended, if nothing was consumed).  ``new_weight_dims`` are
        appended to the weight tensor at ``weight_index`` (or to a fresh
        weight tensor when the index equals ``len(self.weights)``).
        """
        frontier = list(self.frontier)
        for dim in consumed:
            if dim not in frontier:
                raise ValueError(f"dim {dim!r} is not in the frontier")
        if consumed:
            insert_at = frontier.index(consumed[0])
        else:
            insert_at = len(frontier)
        for dim in consumed:
            frontier.remove(dim)
        for offset, dim in enumerate(produced):
            frontier.insert(insert_at + offset, dim)

        weights = list(self.weights)
        if new_weight_dims:
            if weight_index is None:
                raise ValueError("weight dims provided without a weight index")
            if weight_index == len(weights):
                weights.append(WeightTensor(tuple(new_weight_dims)))
            else:
                existing = weights[weight_index]
                weights[weight_index] = WeightTensor(existing.dims + tuple(new_weight_dims))

        return replace(
            self,
            frontier=tuple(frontier),
            applications=self.applications + (application,),
            weights=tuple(weights),
        )

    # -- queries -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """The number of primitives applied so far."""
        return len(self.applications)

    @property
    def frontier_shape(self) -> ShapeSpec:
        """The frontier's sizes, built once per (immutable) graph."""
        shape = self.__dict__.get("_frontier_shape")
        if shape is None:
            shape = ShapeSpec(tuple(dim.size for dim in self.frontier))
            object.__setattr__(self, "_frontier_shape", shape)
        return shape

    @property
    def is_complete(self) -> bool:
        """Whether the frontier matches the desired input shape (unordered)."""
        return self.frontier_shape.same_multiset(self.input_shape)

    @property
    def reduction_dims(self) -> tuple[Dim, ...]:
        dims = []
        for app in self.applications:
            dims.extend(d for d in app.produced if d.is_reduction)
        return tuple(dims)

    @property
    def last_application(self) -> Application | None:
        return self.applications[-1] if self.applications else None

    def count_primitive(self, primitive_type: type) -> int:
        return sum(1 for app in self.applications if isinstance(app.primitive, primitive_type))

    def weight_index_of_last_share(self) -> int | None:
        """Index of the most recently extended weight tensor, if any."""
        for app in reversed(self.applications):
            if app.weight_index is not None:
                return app.weight_index
        return None

    # -- cost accounting ---------------------------------------------------

    def parameter_count(self, bindings: Mapping[Variable, int] | None = None) -> int:
        """Total number of learnable parameters across weight tensors."""
        return sum(weight.parameter_count(bindings) for weight in self.weights)

    def macs(self, bindings: Mapping[Variable, int] | None = None) -> int:
        """Multiply-accumulate count of the naive (un-materialized) loop nest.

        As the paper notes (Section 8), FLOPs depend only on the output
        iterators and the Reduce loops; the materialized-reduction pass in
        :mod:`repro.codegen.loopnest` may lower this further.
        """
        count = self.output_shape.numel(bindings)
        for dim in self.reduction_dims:
            count *= dim.size.evaluate(bindings)
        return count

    def flops(self, bindings: Mapping[Variable, int] | None = None) -> int:
        """FLOPs (2 per multiply-accumulate) of the naive loop nest."""
        return 2 * self.macs(bindings)

    # -- presentation ------------------------------------------------------

    def describe(self) -> str:
        """A human-readable multi-line description of the pGraph."""
        lines = [f"output {self.output_shape!r} -> input {self.input_shape!r}"]
        for app in self.applications:
            lines.append(f"  {app!r}")
        lines.append(f"  frontier: {self.frontier_shape!r}")
        for weight in self.weights:
            lines.append(f"  weight: {weight!r}")
        return "\n".join(lines)

    def signature(self) -> str:
        """A structural signature used for deduplication of candidates.

        Computed once per graph and kept on the (immutable) instance: it is
        the key of every evaluation cache, so lookups must cost less than
        what they save.  ``dataclasses.replace`` builds a new instance and
        recomputes; a pickled graph carries its signature along.
        """
        return self._signatures()[0]

    def weight_signature(self) -> str:
        """The dim each weight axis is identified with, in :meth:`signature`'s labels.

        The signature names a ``Share``'s matched dims but not its shared dim,
        so graphs that differ only in which frontier dim a weight is indexed
        by (``Share`` on dim 0 or on dim 1 of the same output) share a
        signature.  Keys that must tell them apart add this string.  Cached
        with the signature.
        """
        return self._signatures()[1]

    def _signatures(self) -> tuple[str, str]:
        cached = self.__dict__.get("_signature_cache")
        if cached is None:
            cached = self._compute_signatures()
            object.__setattr__(self, "_signature_cache", cached)
        return cached

    def _compute_signatures(self) -> tuple[str, str]:
        parts = []
        dim_labels: dict[int, str] = {}

        def label(dim: Dim) -> str:
            if dim.uid not in dim_labels:
                dim_labels[dim.uid] = f"e{len(dim_labels)}"
            return dim_labels[dim.uid]

        for dim in self.output_dims:
            label(dim)
        for app in self.applications:
            parts.append(
                "{}[{}->{}|{}|{}]".format(
                    app.primitive.describe(),
                    ",".join(label(d) for d in app.consumed),
                    ",".join(label(d) for d in app.produced),
                    ",".join(label(d) for d in app.matched),
                    app.weight_index if app.weight_index is not None else "",
                )
            )
        weights = ";".join(
            ",".join(label(wdim.identified_with) for wdim in weight.dims)
            for weight in self.weights
        )
        return ";".join(parts), weights

    def __repr__(self) -> str:
        return f"PGraph(depth={self.depth}, frontier={self.frontier_shape!r})"

