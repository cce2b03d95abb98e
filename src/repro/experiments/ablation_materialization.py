"""Ablation of the materialized-reduction optimization (Section 8, Figure 4).

Compares the MAC counts of the naive single-stage lowering against the staged
lowering for the paper's pooling example (where the saving is ``k*H`` vs
``(1 + k/s) * H``) and for the two case-study operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.loopnest import lower_to_loopnest
from repro.core.library import (
    C_IN,
    C_OUT,
    GROUPS,
    H,
    K1,
    N,
    POOL,
    SHRINK,
    W,
    avgpool_spec,
    build_operator1,
    build_operator2,
)
from repro.core.operator import OperatorSpec, SynthesizedOperator
from repro.core.pgraph import PGraph
from repro.core.primitives import Reduce, Split, Unfold
from repro.ir.size import Size


def build_figure4_operator() -> SynthesizedOperator:
    """The pooled-convolution example of Figure 4: Reduce(k), Unfold, Reduce(s), Split."""
    spec = OperatorSpec(
        name="figure4",
        input_shape=avgpool_spec().input_shape,
        output_shape=avgpool_spec().output_shape,
    )
    graph = PGraph.root(spec.output_shape, spec.input_shape, output_names=["i"])
    graph = Reduce(size=Size.of(K1)).apply(graph, ())
    window = graph.last_application.produced[0]
    graph = Unfold().apply(graph, (graph.frontier[0], window))
    unfolded = graph.last_application.produced[0]
    graph = Reduce(size=Size.of(POOL)).apply(graph, ())
    stride_dim = graph.last_application.produced[0]
    graph = Split().apply(graph, (unfolded, stride_dim))
    return SynthesizedOperator.from_graph(graph, spec)


@dataclass
class MaterializationRow:
    operator: str
    naive_macs: int
    materialized_macs: int

    @property
    def gain(self) -> float:
        return self.naive_macs / max(self.materialized_macs, 1)


@dataclass
class MaterializationResult:
    rows: list[MaterializationRow] = field(default_factory=list)

    def row(self, name: str) -> MaterializationRow:
        for row in self.rows:
            if row.operator == name:
                return row
        raise KeyError(name)

    def to_table(self) -> str:
        lines = [f"{'operator':12s} {'naive MACs':>12s} {'materialized':>13s} {'gain':>6s}"]
        for row in self.rows:
            lines.append(
                f"{row.operator:12s} {row.naive_macs:12d} {row.materialized_macs:13d} {row.gain:5.2f}x"
            )
        return "\n".join(lines)


def run() -> MaterializationResult:
    result = MaterializationResult()

    figure4 = build_figure4_operator()
    pool_binding = {H: 1024, POOL: 4, K1: 5}
    naive = lower_to_loopnest(figure4, pool_binding, materialize=False)
    staged = lower_to_loopnest(figure4, pool_binding, materialize=True)
    result.rows.append(MaterializationRow("figure4", naive.macs, staged.macs))

    conv_binding = {N: 1, C_IN: 256, C_OUT: 256, H: 14, W: 14, K1: 3, GROUPS: 4, SHRINK: 4}
    for name, operator in (("operator1", build_operator1()), ("operator2", build_operator2())):
        naive = lower_to_loopnest(operator, conv_binding, materialize=False)
        staged = lower_to_loopnest(operator, conv_binding, materialize=True)
        result.rows.append(MaterializationRow(name, naive.macs, staged.macs))
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
