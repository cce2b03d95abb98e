"""The loop-nest (TVM-TE-like) code generator and the materialized-reduction pass.

The eager generator (:mod:`repro.codegen.eager`) is what training uses; this
module produces the representation the *simulated tensor compiler* consumes: a
sequence of loop-nest stages, each with an iteration space, multiply-accumulate
count and memory-traffic estimate.

The central optimization is the paper's **materialized reduction** (Section 8,
Figure 4): a naive lowering evaluates ``|output| * prod(reductions)``
multiply-accumulates, but when a ``Reduce`` can be performed before a
1-to-many view (or before contracting a later weight) the reduction can be
*materialized* into an intermediate tensor, lowering FLOPs — e.g. from
``k*H`` to ``(1 + k/s) * H`` in the paper's pooling example.  The lowering
here searches over reduction/weight orderings and keeps the cheapest staged
program (never worse than the naive single stage).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.operator import SynthesizedOperator
from repro.core.pgraph import Application, Dim, PGraph
from repro.core.primitives import Expand, Merge, Reduce, Share, Shift, Split, Stride, Unfold
from repro.ir.variables import Variable
from repro.runtime import current


# ---------------------------------------------------------------------------
# Iteration-space atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One axis of a stage's iteration space.

    ``identity`` is the pGraph dim the axis corresponds to, ``extent`` its
    concrete size and ``components`` the set of dim uids the axis *bijectively
    covers* — iterating the axis determines the value of every covered
    coordinate (used to avoid double-counting when, e.g., a ``Split`` product
    covers both of its factors, or an unfolded axis covers the output
    coordinate it slides over).
    """

    identity: int
    extent: int
    components: frozenset[int]
    leaf_components: frozenset[int]


class _DimTable:
    """The ordering-independent facts of one (graph, binding) lowering.

    Built once per :func:`lower_to_loopnest` call and shared by every (weight
    order, reduction order) the search tries: the dim-uid -> producer map,
    each dim's :class:`Atom` (concrete extent plus bijective components),
    every weight's factor atoms and parameter count, and the element counts
    of the frontier and the output.  ``Size.evaluate`` thus runs once per dim
    instead of once per ordering.
    """

    def __init__(self, graph: PGraph, binding: Mapping[Variable, int]) -> None:
        self.binding = binding
        self.dims_by_uid = _dims_by_uid(graph)
        self.producers: dict[int, Application] = {}
        for app in graph.applications:
            for dim in app.produced:
                self.producers.setdefault(dim.uid, app)
        self._atoms: dict[int, Atom] = {}
        self._components: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
        # A weight dim is identified with the data-path dim its Share matched.
        self.weight_factors = [
            [self.atom(wdim.identified_with) for wdim in weight.dims] for weight in graph.weights
        ]
        self.weight_needs = [
            frozenset().union(*(atom.components for atom in factor))
            for factor in self.weight_factors
        ]
        self.weight_elements = [weight.parameter_count(binding) for weight in graph.weights]
        self.input_atoms = [self.atom(dim) for dim in graph.frontier]
        self.output_atoms = [self.atom(dim) for dim in graph.output_dims]
        self.input_elements = math.prod(atom.extent for atom in self.input_atoms)
        self.output_elements = math.prod(atom.extent for atom in self.output_atoms)
        self.output_uids = frozenset(dim.uid for dim in graph.output_dims)
        self.reduction_uids = frozenset(dim.uid for dim in graph.reduction_dims)

    def atom(self, dim: Dim) -> Atom:
        atom = self._atoms.get(dim.uid)
        if atom is None:
            components, leaves = self.components(dim)
            atom = Atom(
                identity=dim.uid,
                extent=dim.size.evaluate(self.binding),
                components=components,
                leaf_components=leaves,
            )
            self._atoms[dim.uid] = atom
        return atom

    def components(self, dim: Dim) -> tuple[frozenset[int], frozenset[int]]:
        """Dims whose values are determined by iterating ``dim`` (plus leaf dims)."""
        cached = self._components.get(dim.uid)
        if cached is None:
            cached = self._components[dim.uid] = self._bijective_components(dim)
        return cached

    def _bijective_components(self, dim: Dim) -> tuple[frozenset[int], frozenset[int]]:
        components: set[int] = {dim.uid}
        leaves: set[int] = set()
        producer = self.producers.get(dim.uid)
        if producer is None:
            # Output dims and weight-identified output dims are leaves.
            leaves.add(dim.uid)
            return frozenset(components), frozenset(leaves)
        primitive = producer.primitive
        if isinstance(primitive, Split):
            covered = producer.consumed
        elif isinstance(primitive, (Shift, Stride, Unfold)):
            # An unfolded axis determines (covers) its *main* coordinate but
            # not the window coordinate — the window stays a separate loop.
            covered = producer.consumed[:1]
        else:
            # Reduce dims are leaves; Merge / Expand / Share produce dims
            # that cover nothing extra.
            covered = ()
            if isinstance(primitive, Reduce):
                leaves.add(dim.uid)
        for consumed in covered:
            sub, sub_leaves = self.components(consumed)
            components |= sub
            leaves |= sub_leaves
        return frozenset(components), frozenset(leaves)


def _count(atoms: Sequence[Atom]) -> tuple[int, list[Atom]]:
    """Deduplicate atoms (drop those covered by others) and return the product."""
    kept: list[Atom] = []
    covered: set[int] = set()
    for atom in sorted(atoms, key=lambda a: (-len(a.components), -a.extent, a.identity)):
        if atom.components <= covered and atom.identity in covered:
            continue
        kept.append(atom)
        covered |= atom.components
    product = 1
    for atom in kept:
        product *= atom.extent
    return product, kept


# ---------------------------------------------------------------------------
# Loop-nest program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopNest:
    """One materialized stage: an iteration space plus data movement."""

    name: str
    extents: tuple[int, ...]
    macs: int
    input_elements: int
    weight_elements: int
    output_elements: int

    @property
    def iterations(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    @property
    def bytes_moved(self) -> int:
        """Approximate FP32 traffic: read inputs and weights, write outputs."""
        return 4 * (self.input_elements + self.weight_elements + self.output_elements)


@dataclass(frozen=True)
class LoopNestProgram:
    """A staged lowering of one operator at one concrete binding."""

    operator_name: str
    stages: tuple[LoopNest, ...]
    naive_macs: int
    parameter_count: int
    input_elements: int
    output_elements: int

    def structural_key(self) -> tuple:
        """The program's identity for compile caching: everything but names.

        Tuning outcomes depend only on the iteration spaces and data volumes,
        so structurally identical layers (e.g. the repeated blocks of a
        backbone profile) share one cache entry regardless of slot naming.
        Every compile lookup asks for it, and programs come out of the
        lowering memo, so it is built once and kept on the (immutable)
        instance, like :meth:`PGraph.signature`; a pickled program carries
        it along, and :func:`dataclasses.replace` builds a new instance that
        computes its own.
        """
        key = self.__dict__.get("_structural_key")
        if key is None:
            key = (
                tuple(
                    (
                        stage.extents,
                        stage.macs,
                        stage.input_elements,
                        stage.weight_elements,
                        stage.output_elements,
                    )
                    for stage in self.stages
                ),
                self.naive_macs,
                self.parameter_count,
                self.input_elements,
                self.output_elements,
            )
            object.__setattr__(self, "_structural_key", key)
        return key

    @property
    def macs(self) -> int:
        return sum(stage.macs for stage in self.stages)

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def bytes_moved(self) -> int:
        return sum(stage.bytes_moved for stage in self.stages)

    @property
    def materialization_gain(self) -> float:
        """How much the materialized-reduction pass lowered the MAC count."""
        return self.naive_macs / max(self.macs, 1)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _decompose(atoms: Sequence[Atom], eliminated: set[int], table: _DimTable) -> list[Atom]:
    """Rebuild intermediate atoms after eliminating some reduction dims."""
    result: list[Atom] = []
    for atom in atoms:
        if atom.identity in eliminated:
            continue
        if atom.components & eliminated:
            # The axis covered an eliminated coordinate: fall back to the
            # surviving leaf coordinates it covered.
            for uid in sorted(atom.leaf_components - eliminated):
                result.append(table.atom(table.dims_by_uid[uid]))
        else:
            result.append(atom)
    return result


def _dims_by_uid(graph: PGraph) -> dict[int, Dim]:
    dims: dict[int, Dim] = {dim.uid: dim for dim in graph.output_dims}
    for app in graph.applications:
        for dim in itertools.chain(app.consumed, app.produced, app.weight_dims, app.matched):
            dims.setdefault(dim.uid, dim)
    return dims


def _program_for_order(
    table: _DimTable, weight_order: Sequence[int], reduction_order: Sequence[Dim]
) -> list[LoopNest]:
    current = list(table.input_atoms)
    current_elements = table.input_elements
    stages: list[LoopNest] = []
    pending_reductions = {dim.uid for dim in reduction_order}

    for step_index, weight_index in enumerate(weight_order):
        participating = current + table.weight_factors[weight_index]
        macs, kept = _count(participating)
        # Reductions a later weight or the output still reads stay live.
        needed = set(table.output_uids)
        for later in weight_order[step_index + 1:]:
            needed |= table.weight_needs[later]
        eliminated = {
            uid
            for uid in table.reduction_uids
            if uid not in needed and any(uid in atom.components for atom in kept)
        }
        new_atoms = _decompose(kept, eliminated, table)
        out_elems, _ = _count(new_atoms)
        stages.append(
            LoopNest(
                name=f"contract_w{weight_index}",
                extents=tuple(atom.extent for atom in kept),
                macs=macs,
                input_elements=current_elements,
                weight_elements=table.weight_elements[weight_index],
                output_elements=out_elems,
            )
        )
        current = new_atoms
        current_elements = out_elems
        pending_reductions -= eliminated

    # Remaining reductions (none of them touch weights anymore): one stage each.
    for dim in reduction_order:
        if dim.uid not in pending_reductions:
            continue
        participating = current + [table.atom(dim)]
        macs, kept = _count(participating)
        eliminated = {dim.uid}
        new_atoms = _decompose(kept, eliminated, table)
        out_elems, _ = _count(new_atoms)
        stages.append(
            LoopNest(
                name=f"reduce_{dim.name}",
                extents=tuple(atom.extent for atom in kept),
                macs=macs,
                input_elements=current_elements,
                weight_elements=0,
                output_elements=out_elems,
            )
        )
        current = new_atoms
        current_elements = out_elems
        pending_reductions.discard(dim.uid)

    # Final stage: produce the output if the last contraction did not already.
    output_elements = table.output_elements
    macs, kept = _count(current + table.output_atoms)
    if current_elements != output_elements or macs != current_elements:
        stages.append(
            LoopNest(
                name="epilogue",
                extents=tuple(atom.extent for atom in kept),
                macs=macs if macs > output_elements else output_elements,
                input_elements=current_elements,
                weight_elements=0,
                output_elements=output_elements,
            )
        )
    return stages


def lower_to_loopnest(
    operator: SynthesizedOperator,
    binding: Mapping[Variable, int],
    materialize: bool = True,
    max_orderings: int = 24,
) -> LoopNestProgram:
    """Lower an operator to a staged loop-nest program.

    With ``materialize=False`` the naive single-stage lowering is returned
    (the ablation baseline); otherwise orderings of weight contractions and
    residual reductions are enumerated (bounded by ``max_orderings``) and the
    cheapest program — never worse than the naive one — is kept.
    """
    graph = operator.graph
    naive_macs = graph.macs(binding)
    parameter_count = graph.parameter_count(binding)
    input_elements = operator.spec.input_shape.numel(binding)
    output_elements = operator.spec.output_shape.numel(binding)

    naive_stage = LoopNest(
        name="naive",
        extents=(naive_macs,),
        macs=naive_macs,
        input_elements=input_elements,
        weight_elements=parameter_count,
        output_elements=output_elements,
    )
    naive_program = LoopNestProgram(
        operator_name=operator.spec.name,
        stages=(naive_stage,),
        naive_macs=naive_macs,
        parameter_count=parameter_count,
        input_elements=input_elements,
        output_elements=output_elements,
    )
    if not materialize:
        return naive_program

    weight_indices = list(range(len(graph.weights)))
    reductions = list(graph.reduction_dims)
    weight_orders = list(itertools.permutations(weight_indices)) or [()]
    reduction_orders = list(itertools.permutations(reductions))
    if len(reduction_orders) > max_orderings:
        reduction_orders = reduction_orders[:max_orderings]
    if len(weight_orders) > max_orderings:
        weight_orders = weight_orders[:max_orderings]

    table = _DimTable(graph, binding)
    best = naive_program
    for weight_order in weight_orders:
        for reduction_order in reduction_orders:
            program = LoopNestProgram(
                operator_name=operator.spec.name,
                stages=tuple(_program_for_order(table, weight_order, reduction_order)),
                naive_macs=naive_macs,
                parameter_count=parameter_count,
                input_elements=input_elements,
                output_elements=output_elements,
            )
            if program.macs < best.macs:
                best = program
    return best


def cached_loopnest(
    operator: SynthesizedOperator, binding: Mapping[Variable, int]
) -> LoopNestProgram:
    """:func:`lower_to_loopnest` of ``(operator, binding)``, memoized per context.

    Lowering depends on neither the compiler backend nor the hardware target,
    so the latency evaluators, which re-lower every (operator, slot) pair for
    each of them, pay for it once.  The memo is the ambient context's
    lowering cache, which also holds the slots' standard-convolution
    programs (:func:`~repro.compiler.backends.cached_loopnest_for_slot`,
    under three-part keys).  A :class:`~repro.ir.size.SizeError` (the
    pairing has no integral sizes) propagates and is not cached.

    The key holds everything the lowering reads.  The canonical signature
    fixes the application structure and the weight signature the dim each
    weight axis is indexed by; the spec's
    :attr:`~repro.core.operator.OperatorSpec.shape_key` (name plus symbolic
    input and output shapes) fixes the program name, the element counts and,
    since a graph is rooted at its spec's output shape, every dim's symbolic
    size; the sorted binding makes each size concrete.
    """
    graph = operator.graph
    key = (
        graph.signature(),
        graph.weight_signature(),
        operator.spec.shape_key,
        tuple(sorted((variable.name, int(value)) for variable, value in binding.items())),
    )
    return current().cached_lowering(key, lambda: lower_to_loopnest(operator, binding))
