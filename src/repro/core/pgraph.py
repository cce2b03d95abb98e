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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.ir.variables import Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.primitives import Primitive


_DIM_COUNTER = itertools.count()

#: per-instance state a graph derives on demand and never pickles.
_DERIVED = frozenset({"_frontier_shape", "_rule_state", "_is_complete"})


def reserve_dim_uids(highest: int) -> None:
    """Advance the global dim uid counter strictly past ``highest``.

    Dim identity (equality, frontier membership, producer attribution) relies
    on uids being unique *within* a graph.  A graph pickled into a worker
    process carries uids from its producer's counter; before the worker
    extends it, the local counter must be moved past every uid the graph
    already holds or freshly created dims could collide with them.
    :func:`repro.core.enumeration.legal_children` reserves past
    :func:`highest_uid` before it enumerates a graph.
    """
    while next(_DIM_COUNTER) <= highest:
        pass


def highest_uid(graph: PGraph) -> int:
    """The largest dim uid ``graph`` holds anywhere (``-1`` for no dims)."""
    highest = -1
    for dim in graph.output_dims + graph.frontier:
        highest = max(highest, dim.uid)
    for app in graph.applications:
        for dim in app.consumed + app.produced + app.weight_dims + app.matched:
            highest = max(highest, dim.uid)
    for weight in graph.weights:
        for dim in weight.dims:
            highest = max(highest, dim.uid)
    return highest


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

    # -- extension ---------------------------------------------------------

    def extend(self, application: Application) -> "PGraph":
        """Return the graph with ``application`` applied.

        Its frontier is :meth:`frontier_after`'s.  Its weight dims are
        appended to the weight tensor at its ``weight_index`` (or make a fresh
        weight tensor when the index equals ``len(self.weights)``).  The child
        gets its signatures here, extended from this graph's (see
        :meth:`signature`).
        """
        for dim in application.consumed:
            if dim not in self.frontier:
                raise ValueError(f"dim {dim!r} is not in the frontier")

        weights = list(self.weights)
        if application.weight_dims:
            weight_index = application.weight_index
            if weight_index is None:
                raise ValueError("weight dims provided without a weight index")
            if weight_index == len(weights):
                weights.append(WeightTensor(application.weight_dims))
            else:
                existing = weights[weight_index]
                weights[weight_index] = WeightTensor(existing.dims + application.weight_dims)

        child = PGraph(
            output_shape=self.output_shape,
            input_shape=self.input_shape,
            output_dims=self.output_dims,
            frontier=self.frontier_after(application),
            applications=self.applications + (application,),
            weights=tuple(weights),
        )
        signature, _, parent_uids = self._signatures()
        uids = list(parent_uids)
        part = _application_part(application, uids)
        if self.applications:
            part = f"{signature};{part}"
        object.__setattr__(
            child, "_signature_cache", (part, _weights_part(child.weights, uids), tuple(uids))
        )
        return child

    def frontier_after(self, application: Application) -> tuple[Dim, ...]:
        """The frontier of ``extend(application)``, without building the child.

        The consumed dims leave the frontier, and the produced dims go in at
        the index the first consumed dim had before the removal, counted in
        the frontier after it (or at the end, if nothing was consumed).
        Enumeration's prune reads a candidate child's frontier sizes from
        here, so they reach the shape-distance memo in :meth:`extend`'s order.
        """
        consumed = application.consumed
        if not consumed:
            return self.frontier + application.produced
        frontier = list(self.frontier)
        insert_at = frontier.index(consumed[0])
        for dim in consumed:
            frontier.remove(dim)
        frontier[insert_at:insert_at] = application.produced
        return tuple(frontier)

    # -- queries -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """The number of primitives applied so far."""
        return len(self.applications)

    @property
    def frontier_shape(self) -> ShapeSpec:
        """The frontier's sizes, built once per (immutable) graph and never pickled."""
        shape = self.__dict__.get("_frontier_shape")
        if shape is None:
            shape = ShapeSpec(tuple(dim.size for dim in self.frontier))
            object.__setattr__(self, "_frontier_shape", shape)
        return shape

    @property
    def is_complete(self) -> bool:
        """Whether the frontier matches the desired input shape (unordered).

        Ranks are compared first, which needs no multiset key.  Derived once
        per (immutable) graph, since rollouts test it at every step, and like
        :meth:`rule_state` never pickled.
        """
        complete = self.__dict__.get("_is_complete")
        if complete is None:
            complete = len(self.frontier) == len(self.input_shape) and (
                self.frontier_shape.same_multiset(self.input_shape)
            )
            object.__setattr__(self, "_is_complete", complete)
        return complete

    @property
    def reduction_dims(self) -> tuple[Dim, ...]:
        dims = []
        for app in self.applications:
            dims.extend(d for d in app.produced if d.is_reduction)
        return tuple(dims)

    @property
    def last_application(self) -> Application | None:
        return self.applications[-1] if self.applications else None

    def rule_state(self) -> "RuleState":
        """What the canonicalization rules and occurrence limits read, derived once.

        Computed from ``applications`` and ``weights`` on first use and kept
        on the (immutable) instance, so checking many candidate applications
        against one graph scans its history once.  Never pickled: a loaded
        graph derives it afresh.
        """
        state = self.__dict__.get("_rule_state")
        if state is None:
            state = RuleState.of(self)
            object.__setattr__(self, "_rule_state", state)
        return state

    def __getstate__(self) -> dict:
        state = self.__dict__
        if not _DERIVED.isdisjoint(state):
            state = {key: value for key, value in state.items() if key not in _DERIVED}
        return state

    def count_primitive(self, primitive_type: type) -> int:
        """Applications of ``primitive_type``, its subclasses included."""
        return _count_kind(self.rule_state().type_counts, primitive_type)

    def weight_index_of_last_share(self) -> int | None:
        """Index of the most recently extended weight tensor, if any."""
        return self.rule_state().last_share_weight_index

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

        Each application contributes one ``;``-joined part that names its
        dims by labels handed out in first-appearance order, starting from
        the output dims.  So a child's signature is its parent's plus one
        part: :meth:`extend` extends the parent's cached signature state
        instead of recomputing it from the root.  A graph built any
        other way computes its signatures once, on first use.  They are kept
        on the (immutable) instance, since the signature keys every
        evaluation cache; a pickled graph carries them along.
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

    def _signatures(self) -> tuple[str, str, tuple[int, ...]]:
        """(signature, weight signature, dim uids in label order after the applications)."""
        cached = self.__dict__.get("_signature_cache")
        if cached is None:
            cached = self._compute_signatures()
            object.__setattr__(self, "_signature_cache", cached)
        return cached

    def _compute_signatures(self) -> tuple[str, str, tuple[int, ...]]:
        uids: list[int] = []
        for dim in self.output_dims:
            _label(uids, dim)
        parts = [_application_part(app, uids) for app in self.applications]
        return ";".join(parts), _weights_part(self.weights, uids), tuple(uids)

    def __repr__(self) -> str:
        return f"PGraph(depth={self.depth}, frontier={self.frontier_shape!r})"


@dataclass(frozen=True)
class RuleState:
    """The facts about a graph's history that candidate checks read.

    Canonicalization rules and enumeration's occurrence limits ask the same
    questions of a graph for every candidate application; this answers them
    once per graph (:meth:`PGraph.rule_state`).
    """

    #: exact primitive type -> number of applications of that type.
    type_counts: Mapping[type, int]
    #: dim -> the application that produced it (output dims are absent).
    producers: Mapping[Dim, Application]
    #: the dims the last application produced or put on a weight.
    last_footprint: frozenset[Dim]
    #: the last application's place in the canonical order of commuting
    #: neighbours (``Primitive.order_key``), or None at the root.
    last_order_key: tuple | None
    #: the weight index of the most recent ``Share``, or None.
    last_share_weight_index: int | None
    #: the number of weight dims over all weight tensors.
    weight_dims: int
    #: ``count_primitive(Unfold) + count_primitive(Expand)``: the 1-to-many
    #: views each ``Stride`` must be paired with.
    one_to_many: int
    #: ``count_primitive(Stride)``.
    strides: int

    @staticmethod
    def of(graph: PGraph) -> "RuleState":
        # Imported here: repro.core.primitives imports this module.
        from repro.core.primitives import Expand, Stride, Unfold

        type_counts: dict[type, int] = {}
        producers: dict[Dim, Application] = {}
        last_share_weight_index = None
        for app in graph.applications:
            kind = type(app.primitive)
            type_counts[kind] = type_counts.get(kind, 0) + 1
            for dim in app.produced:
                producers.setdefault(dim, app)
            if app.weight_index is not None:
                last_share_weight_index = app.weight_index
        last = graph.last_application
        footprint: frozenset[Dim] = frozenset()
        order_key = None
        if last is not None:
            footprint = frozenset(last.produced + last.weight_dims)
            order_key = last.primitive.order_key(last.consumed or last.produced)
        return RuleState(
            type_counts=type_counts,
            producers=producers,
            last_footprint=footprint,
            last_order_key=order_key,
            last_share_weight_index=last_share_weight_index,
            weight_dims=sum(len(weight.dims) for weight in graph.weights),
            one_to_many=_count_kind(type_counts, Unfold) + _count_kind(type_counts, Expand),
            strides=_count_kind(type_counts, Stride),
        )


def _count_kind(type_counts: Mapping[type, int], primitive_type: type) -> int:
    """The applications in ``type_counts`` of ``primitive_type`` or a subclass."""
    total = 0
    for kind, count in type_counts.items():
        if issubclass(kind, primitive_type):
            total += count
    return total


def _label(uids: list[int], dim: Dim) -> str:
    """``dim``'s signature label ``e<i>``, ``i`` its first-appearance index in ``uids``."""
    uid = dim.uid
    if uid not in uids:
        uids.append(uid)
    return f"e{uids.index(uid)}"


def _application_part(app: Application, uids: list[int]) -> str:
    return "{}[{}->{}|{}|{}]".format(
        app.primitive.describe(),
        ",".join(_label(uids, d) for d in app.consumed),
        ",".join(_label(uids, d) for d in app.produced),
        ",".join(_label(uids, d) for d in app.matched),
        app.weight_index if app.weight_index is not None else "",
    )


def sibling_key(app: Application) -> tuple:
    """A key two applications of one graph share exactly when their children's signatures do.

    It holds :func:`_application_part`'s fields, with dims as uids instead
    of labels; the parent's signature is common to all siblings.  The
    consumed and matched dims are already in the graph, and its dims map
    one-to-one to labels.  The produced dims are new, and take the next
    labels in order, so only their count matters.  A ``Share``'s shared dim
    is in neither part nor key.  Enumeration drops duplicate siblings on
    this key, so only a child it keeps gets a signature string.
    """
    return (
        app.primitive.describe(),
        tuple([dim.uid for dim in app.consumed]),
        len(app.produced),
        tuple([dim.uid for dim in app.matched]),
        app.weight_index,
    )


def _weights_part(weights: tuple[WeightTensor, ...], uids: list[int]) -> str:
    """The weight signature; labels it adds are not carried to descendants."""
    uids = list(uids)
    return ";".join(
        ",".join(_label(uids, wdim.identified_with) for wdim in weight.dims)
        for weight in weights
    )
