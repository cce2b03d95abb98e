"""Concrete synthesized operators.

A :class:`SynthesizedOperator` binds a complete pGraph to concrete dimension
sizes and exposes the accounting the search needs (FLOPs, parameters) plus the
frontier-to-input axis assignment used by the code generators.

An :class:`OperatorSpec` describes the operator *slot* being replaced in a
backbone model: its symbolic input/output shapes and one or more concrete
bindings of the symbolic variables (one per layer in the model that shares the
slot).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.pgraph import Dim, PGraph
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size, SizeError
from repro.ir.variables import Variable


@dataclass(frozen=True)
class OperatorSpec:
    """The synthesis target: symbolic shapes plus concrete bindings.

    The same symbolic operator is reused at every layer of the backbone that
    matches the slot, each layer providing its own concrete binding
    (Section 5.4: shapes are symbolic so one operator fulfils many sizes).
    """

    name: str
    input_shape: ShapeSpec
    output_shape: ShapeSpec
    bindings: tuple[Mapping[Variable, int], ...] = ()

    @functools.cached_property
    def shape_key(self) -> str:
        """``name:input->output`` as text, computed once per spec.

        The slot identity the lowering cache keys on: unlike the shapes
        themselves (whose ``Fraction`` factors hash slowly) a string hashes
        once and is free to look up afterwards.
        """
        return f"{self.name}:{self.input_shape!r}->{self.output_shape!r}"

    @property
    def primary_variables(self) -> frozenset[Variable]:
        return self.input_shape.variables() | self.output_shape.variables()

    def with_binding(self, binding: Mapping[Variable, int]) -> "OperatorSpec":
        return OperatorSpec(
            self.name, self.input_shape, self.output_shape, self.bindings + (dict(binding),)
        )


class InvalidOperatorError(ValueError):
    """Raised when a pGraph cannot be interpreted as a complete operator."""


def match_frontier_to_input(graph: PGraph) -> tuple[int, ...]:
    """Assign each input-shape position a frontier dim index.

    The assignment pairs identical symbolic sizes; any permutation is allowed
    (the final transpose is free).  Raises :class:`InvalidOperatorError` when
    the frontier does not match the input shape as a multiset.
    """
    if not graph.is_complete:
        raise InvalidOperatorError(
            f"frontier {graph.frontier_shape!r} does not match input {graph.input_shape!r}"
        )
    remaining = list(range(len(graph.frontier)))
    assignment: list[int] = []
    for size in graph.input_shape:
        for index in remaining:
            if graph.frontier[index].size == size:
                assignment.append(index)
                remaining.remove(index)
                break
        else:  # pragma: no cover - is_complete guarantees a match
            raise InvalidOperatorError(f"no frontier dim for input size {size!r}")
    return tuple(assignment)


@dataclass(frozen=True)
class SynthesizedOperator:
    """A complete pGraph interpreted as a drop-in operator replacement."""

    graph: PGraph
    spec: OperatorSpec
    #: frontier index used for each input-shape position (a permutation).
    input_assignment: tuple[int, ...] = field(default=())

    @staticmethod
    def from_graph(graph: PGraph, spec: OperatorSpec) -> "SynthesizedOperator":
        assignment = match_frontier_to_input(graph)
        return SynthesizedOperator(graph=graph, spec=spec, input_assignment=assignment)

    # -- accounting --------------------------------------------------------

    def parameter_count(self, binding: Mapping[Variable, int] | None = None) -> int:
        binding = binding or (self.spec.bindings[0] if self.spec.bindings else {})
        return self.graph.parameter_count(binding)

    def macs(self, binding: Mapping[Variable, int] | None = None) -> int:
        binding = binding or (self.spec.bindings[0] if self.spec.bindings else {})
        return self.graph.macs(binding)

    def flops(self, binding: Mapping[Variable, int] | None = None) -> int:
        return 2 * self.macs(binding)

    def total_macs(self) -> int:
        """MACs summed over every concrete binding (layer) of the spec."""
        return sum(self.graph.macs(binding) for binding in self.spec.bindings) if self.spec.bindings else self.macs()

    def total_parameters(self) -> int:
        return (
            sum(self.graph.parameter_count(binding) for binding in self.spec.bindings)
            if self.spec.bindings
            else self.parameter_count()
        )

    # -- concrete shapes ---------------------------------------------------

    def concrete_input_shape(self, binding: Mapping[Variable, int]) -> tuple[int, ...]:
        return self.spec.input_shape.evaluate(binding)

    def concrete_output_shape(self, binding: Mapping[Variable, int]) -> tuple[int, ...]:
        return self.spec.output_shape.evaluate(binding)

    def weight_shapes(self, binding: Mapping[Variable, int]) -> list[tuple[int, ...]]:
        return [
            tuple(dim.size.evaluate(binding) for dim in weight.dims)
            for weight in self.graph.weights
        ]

    def validate(self) -> None:
        """Check that every concrete binding yields integral dimension sizes."""
        bindings = self.spec.bindings or ({},)
        for binding in bindings:
            for dim in itertools.chain(self.graph.frontier, self.graph.output_dims):
                try:
                    dim.size.evaluate(binding)
                except SizeError as exc:
                    raise InvalidOperatorError(str(exc)) from exc
            for weight in self.graph.weights:
                for dim in weight.dims:
                    try:
                        dim.size.evaluate(binding)
                    except SizeError as exc:
                        raise InvalidOperatorError(str(exc)) from exc

    def describe(self) -> str:
        header = f"SynthesizedOperator for {self.spec.name}"
        return header + "\n" + self.graph.describe()

    def __repr__(self) -> str:
        return (
            f"SynthesizedOperator({self.spec.name}, depth={self.graph.depth}, "
            f"weights={len(self.graph.weights)})"
        )
