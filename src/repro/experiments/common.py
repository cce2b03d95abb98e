"""Shared infrastructure for the experiment modules.

The paper's per-model search produces a small set of high-quality operators
(Operators 1 and 2 plus Shift-based variants are the published case studies).
The experiments use that candidate set — each candidate paired with the
coefficient values the search would bind — and select the best candidate per
model / target, which is what Algorithm 1's outer loop does with far more
compute.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.baselines.nas_pte import NAS_PTE_SEQUENCES
from repro.compiler.backends import CompilerBackend, InductorBackend, TVMBackend
from repro.compiler.targets import A100, MOBILE_CPU, MOBILE_GPU, HardwareTarget
from repro.core.library import GROUPS, K1, SHRINK, build_operator1, build_operator2, build_shift_conv
from repro.core.operator import SynthesizedOperator
from repro.ir.variables import Variable
from repro.nn.models.common import ConvSlot
from repro.runtime import RuntimeContext, current
from repro.search.evaluator import LatencyEvaluator
from repro.search.parallel import fan_out


@dataclass(frozen=True)
class Candidate:
    """A named operator together with its coefficient binding."""

    name: str
    operator: SynthesizedOperator
    coefficients: Mapping[Variable, int]


def syno_candidates() -> list[Candidate]:
    """The Syno-discovered operators used across the latency experiments."""
    return [
        Candidate("operator1_g4s4", build_operator1(), {K1: 3, GROUPS: 4, SHRINK: 4}),
        Candidate("operator1_g4s8", build_operator1(), {K1: 3, GROUPS: 4, SHRINK: 8}),
        Candidate("operator1_g2s2", build_operator1(), {K1: 3, GROUPS: 2, SHRINK: 2}),
        Candidate("operator2", build_operator2(), {K1: 3, GROUPS: 2, SHRINK: 2}),
        Candidate("shift_conv", build_shift_conv(), {K1: 3, GROUPS: 2, SHRINK: 2}),
    ]


def nas_pte_candidates() -> list[Candidate]:
    """NAS-PTE's three published operator sequences (grouping factor 2)."""
    coefficients = {K1: 3, GROUPS: 2, SHRINK: 2}
    return [
        Candidate(name, builder(), coefficients) for name, builder in NAS_PTE_SEQUENCES.items()
    ]


#: (backend name, factory) pairs for the two compilers of the evaluation.
def both_backends() -> list[CompilerBackend]:
    return [TVMBackend(trials=current().config.tuning_trials(48)), InductorBackend()]


ALL_TARGETS: tuple[HardwareTarget, ...] = (MOBILE_CPU, MOBILE_GPU, A100)


@dataclass
class ModelEvaluation:
    """Baseline latency and per-candidate latency for one (model, backend, target)."""

    model: str
    backend: str
    target: str
    baseline_ms: float
    candidate_ms: dict[str, float] = field(default_factory=dict)

    def speedup(self, candidate: str) -> float:
        return self.baseline_ms / self.candidate_ms[candidate]

    def best_candidate(self) -> tuple[str, float]:
        name = min(self.candidate_ms, key=self.candidate_ms.get)
        return name, self.speedup(name)


def evaluate_model(
    model: str,
    slots: Sequence[ConvSlot],
    backend: CompilerBackend,
    target: HardwareTarget,
    candidates: Sequence[Candidate],
    batch: int = 1,
    runtime: RuntimeContext | None = None,
) -> ModelEvaluation:
    """Latency of the baseline model and of every candidate substitution.

    ``runtime`` is the :class:`~repro.runtime.RuntimeContext` evaluated
    under (``None`` resolves the ambient context).  The per-candidate tuning
    fans out through :func:`repro.search.parallel.fan_out`: over the
    context's shards, merging their compile-cache entries back, or else over
    its ``eval_processes`` (the cache-discarding parallel map); the serial
    default warms the context's compile cache directly.
    """
    # The whole evaluation runs under the context so nested ambient lookups
    # (plan compilation, dtype resolution) land in the same CacheSet the
    # threaded `runtime` argument targets.
    scope = runtime.activate() if runtime is not None else contextlib.nullcontext()
    with scope:
        baseline_evaluator = LatencyEvaluator(
            slots=slots, backend=backend, target=target, batch=batch, runtime=runtime
        )
        evaluation = ModelEvaluation(
            model=model,
            backend=backend.name,
            target=target.name,
            baseline_ms=baseline_evaluator.baseline_latency() * 1e3,
        )
        worker = functools.partial(_candidate_latency_ms, tuple(slots), backend, target, batch)
        latencies = fan_out(worker, candidates, runtime=runtime)
    for candidate, latency_ms in zip(candidates, latencies):
        evaluation.candidate_ms[candidate.name] = latency_ms
    return evaluation


def _candidate_latency_ms(
    slots: tuple[ConvSlot, ...],
    backend: CompilerBackend,
    target: HardwareTarget,
    batch: int,
    candidate: Candidate,
) -> float:
    """Module-level worker so the parallel map can pickle it under fork."""
    evaluator = LatencyEvaluator(
        slots=slots,
        backend=backend,
        target=target,
        batch=batch,
        coefficients=candidate.coefficients,
    )
    return evaluator.substituted_latency(candidate.operator) * 1e3
