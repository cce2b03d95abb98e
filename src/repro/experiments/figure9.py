"""Figure 9: layer-wise comparison against NAS-PTE on ResNet-34.

For each of the ten reported ResNet-34 convolution layers, on each of the
three platforms and two compilers, the figure shows the speedup over the
TVM-compiled standard convolution for NAS-PTE's three operator sequences and
Syno's Operators 1 and 2.  The summary statistics the paper quotes — the
geomean advantage of Syno's best operator over NAS-PTE's best per layer, and
the FLOPs / parameter reductions — are computed here as well.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.codegen.loopnest import cached_loopnest
from repro.compiler.backends import CompilerBackend, cached_loopnest_for_slot
from repro.compiler.targets import HardwareTarget
from repro.experiments.common import (
    ALL_TARGETS,
    Candidate,
    both_backends,
    nas_pte_candidates,
    syno_candidates,
)
from repro.ir.size import SizeError
from repro.nn.models.common import ConvSlot
from repro.nn.models.profiles import RESNET34_FIGURE9_LAYERS
from repro.search.extraction import binding_for_slot

log = logging.getLogger(__name__)


@dataclass
class LayerComparison:
    layer: str
    target: str
    backend: str
    baseline_ms: float
    candidate_ms: dict[str, float] = field(default_factory=dict)
    candidate_macs: dict[str, int] = field(default_factory=dict)
    candidate_params: dict[str, int] = field(default_factory=dict)

    def speedup(self, name: str) -> float:
        return self.baseline_ms / self.candidate_ms[name]

    def best(self, names: Sequence[str]) -> tuple[str, float]:
        available = [n for n in names if n in self.candidate_ms]
        best_name = min(available, key=lambda n: self.candidate_ms[n])
        return best_name, self.speedup(best_name)


@dataclass
class Figure9Result:
    comparisons: list[LayerComparison] = field(default_factory=list)
    syno_names: list[str] = field(default_factory=list)
    nas_pte_names: list[str] = field(default_factory=list)

    def syno_vs_naspte_geomean(self, target: str, backend: str) -> float:
        """Geomean, over layers, of (best Syno speedup / best NAS-PTE speedup)."""
        ratios = []
        for comparison in self.comparisons:
            if comparison.target != target or comparison.backend != backend:
                continue
            _, syno = comparison.best(self.syno_names)
            _, naspte = comparison.best(self.nas_pte_names)
            ratios.append(syno / naspte)
        return float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")

    def flops_reduction_range(self) -> tuple[float, float]:
        """Min/max, over layers, of (best NAS-PTE MACs / best Syno MACs)."""
        ratios = []
        for comparison in self.comparisons:
            if comparison.backend != "tvm":
                continue
            syno_macs = min(comparison.candidate_macs[n] for n in self.syno_names)
            naspte_macs = min(comparison.candidate_macs[n] for n in self.nas_pte_names)
            ratios.append(naspte_macs / syno_macs)
        return (min(ratios), max(ratios)) if ratios else (float("nan"), float("nan"))

    def parameter_reduction_range(self) -> tuple[float, float]:
        ratios = []
        for comparison in self.comparisons:
            if comparison.backend != "tvm":
                continue
            syno = min(comparison.candidate_params[n] for n in self.syno_names)
            naspte = min(comparison.candidate_params[n] for n in self.nas_pte_names)
            ratios.append(naspte / max(syno, 1))
        return (min(ratios), max(ratios)) if ratios else (float("nan"), float("nan"))

    def to_table(self) -> str:
        lines = []
        for comparison in self.comparisons:
            entries = " ".join(
                f"{name}={comparison.speedup(name):.2f}x" for name in comparison.candidate_ms
            )
            lines.append(
                f"{comparison.layer:4s} {comparison.target:11s} {comparison.backend:14s} {entries}"
            )
        return "\n".join(lines)


def run(
    layers: Sequence[str] | None = None,
    targets=None,
    backends: Sequence[CompilerBackend] | None = None,
    syno: Sequence[Candidate] | None = None,
    nas_pte: Sequence[Candidate] | None = None,
) -> Figure9Result:
    layers = list(layers) if layers is not None else list(RESNET34_FIGURE9_LAYERS)
    targets = list(targets) if targets is not None else list(ALL_TARGETS)
    backends = list(backends) if backends is not None else both_backends()
    syno = list(syno) if syno is not None else syno_candidates()
    nas_pte = list(nas_pte) if nas_pte is not None else nas_pte_candidates()

    result = Figure9Result(
        syno_names=[c.name for c in syno], nas_pte_names=[c.name for c in nas_pte]
    )
    for layer_name in layers:
        slot: ConvSlot = RESNET34_FIGURE9_LAYERS[layer_name]
        for target in targets:
            for backend in backends:
                baseline = backend.compile(cached_loopnest_for_slot(slot, batch=1), target)
                comparison = LayerComparison(
                    layer=layer_name,
                    target=target.name,
                    backend=backend.name,
                    baseline_ms=baseline.latency_ms,
                )
                for candidate in list(syno) + list(nas_pte):
                    binding = binding_for_slot(slot, 1, candidate.coefficients)
                    try:
                        program = cached_loopnest(candidate.operator, binding)
                    except SizeError as exc:
                        # The coefficients do not divide this layer's channels,
                        # so the candidate has no entry for it.  Any other
                        # exception is a lowering bug and propagates.
                        log.debug(
                            "%s not lowerable at layer %s (%s); skipping it",
                            candidate.name, layer_name, exc,
                        )
                        continue
                    tuned = backend.compile(program, target)
                    comparison.candidate_ms[candidate.name] = tuned.latency_ms
                    comparison.candidate_macs[candidate.name] = program.macs
                    comparison.candidate_params[candidate.name] = program.parameter_count
                result.comparisons.append(comparison)
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
