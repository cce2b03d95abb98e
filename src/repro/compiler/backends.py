"""The two compiler personalities: a TVM-like tuner and an Inductor-like template backend.

``TVMBackend`` mirrors TVM MetaSchedule: it sweeps the schedule space per
operator (the "tuning trials") and keeps the best analytical latency; it
treats every loop nest the same way, so novel operators benefit from tuning
just like standard ones — the property the paper relies on.

``InductorBackend`` mirrors TorchInductor with ``max-autotune``: it recognizes
a small set of dense-contraction templates; a matched operator gets a
well-tuned schedule, an unmatched operator falls back to pre-compiled
(ATen-like) kernels executed stage by stage with reduced efficiency — much
reduced on mobile platforms, which is exactly the behaviour behind the paper's
observation that TorchInductor is unstable on the Jetson-class devices
(Section 9.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.codegen.loopnest import LoopNest, LoopNestProgram
from repro.compiler.costmodel import AnalyticalCostModel
from repro.compiler.schedule import Schedule, default_schedule, schedule_space
from repro.compiler.targets import HardwareTarget
from repro.nn.models.common import ConvSlot
from repro.runtime import current


@dataclass(frozen=True)
class TuneResult:
    """Outcome of compiling one operator for one target."""

    latency_seconds: float
    schedule: Schedule
    backend: str
    trials: int
    used_fallback: bool = False

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3


class CompilerBackend:
    """Interface shared by the two compiler personalities.

    ``compile`` is memoized through the runtime context's compile cache:
    tuning is a pure function of (backend configuration, program, target),
    and both the search loop and the experiment harness compile the same loop
    nests over and over (identical slots repeat within and across backbone
    profiles).  Backends implement ``_compile_uncached``; anything that
    changes tuning results must be reflected in ``config_key``.
    """

    name = "base"

    def config_key(self) -> tuple:
        """Hashable description of every knob that affects compile results."""
        return (self.name,)

    def compile(self, program: LoopNestProgram, target: HardwareTarget) -> TuneResult:
        """Tune ``program`` for ``target``, memoized in the ambient context's
        compile cache."""
        key = (self.config_key(), program.structural_key(), target)
        return current().cached_compile(
            key, lambda: self._compile_uncached(program, target)
        )

    def _compile_uncached(self, program: LoopNestProgram, target: HardwareTarget) -> TuneResult:
        raise NotImplementedError


@dataclass
class TVMBackend(CompilerBackend):
    """TVM-MetaSchedule-like exhaustive schedule tuning."""

    trials: int = 64
    cost_model: AnalyticalCostModel = field(default_factory=AnalyticalCostModel)
    name: str = "tvm"

    def config_key(self) -> tuple:
        return (self.name, self.trials, self.cost_model.config_key())

    def _compile_uncached(self, program: LoopNestProgram, target: HardwareTarget) -> TuneResult:
        best_latency = float("inf")
        best_schedule = default_schedule()
        trials = 0
        for schedule in schedule_space():
            if trials >= self.trials:
                break
            trials += 1
            latency = self.cost_model.program_latency(program, target, schedule)
            if latency < best_latency:
                best_latency = latency
                best_schedule = schedule
        return TuneResult(
            latency_seconds=best_latency,
            schedule=best_schedule,
            backend=self.name,
            trials=trials,
        )


@dataclass
class InductorBackend(CompilerBackend):
    """TorchInductor-like template matching with ATen fallback."""

    #: efficiency of a matched template relative to a fully tuned kernel.
    template_quality: float = 1.05
    #: efficiency of Triton-generated code for non-template operators on
    #: server GPUs (Inductor handles most novel operators well on large GPUs).
    gpu_fallback_efficiency: float = 0.8
    #: efficiency of the pre-compiled ATen kernels used on mobile platforms,
    #: where Inductor keeps few templates and falls back often (Section 9.2).
    mobile_fallback_efficiency: float = 0.5
    #: extra per-stage dispatch overhead of eager fallback execution.
    fallback_overhead_multiplier: float = 2.0
    name: str = "torchinductor"

    def config_key(self) -> tuple:
        return (
            self.name,
            self.template_quality,
            self.gpu_fallback_efficiency,
            self.mobile_fallback_efficiency,
            self.fallback_overhead_multiplier,
        )

    def _matches_template(self, program: LoopNestProgram) -> bool:
        """Whether the operator looks like a conv/matmul the templates cover.

        Templates cover single-stage dense contractions whose reduction depth
        and output size are both regular and large enough; multi-stage
        programs (the staged lowerings Syno produces) and exotic iteration
        spaces fall back.
        """
        if len(program.stages) != 1:
            return False
        stage = program.stages[0]
        if stage.output_elements == 0:
            return False
        reduction_depth = stage.macs // max(stage.output_elements, 1)
        if reduction_depth < 8:
            return False
        # Templates are written for power-of-two-friendly output tile shapes
        # (conv and matmul outputs qualify; tiny or ragged outputs do not).
        return stage.output_elements % 4 == 0 and stage.output_elements >= 64

    def _compile_uncached(self, program: LoopNestProgram, target: HardwareTarget) -> TuneResult:
        if self._matches_template(program):
            cost_model = AnalyticalCostModel(efficiency_scale=self.template_quality)
            # max-autotune tries a handful of template variants.
            best = float("inf")
            best_schedule = default_schedule()
            trials = 0
            for schedule in list(schedule_space(tiles=(32, 64, 128), unrolls=(4, 8)))[:12]:
                trials += 1
                latency = cost_model.program_latency(program, target, schedule)
                if latency < best:
                    best = latency
                    best_schedule = schedule
            return TuneResult(best, best_schedule, self.name, trials, used_fallback=False)

        fallback_efficiency = (
            self.gpu_fallback_efficiency if target.name == "a100" else self.mobile_fallback_efficiency
        )
        cost_model = AnalyticalCostModel(efficiency_scale=fallback_efficiency)
        schedule = default_schedule()
        latency = 0.0
        for stage in program.stages:
            stage_cost = cost_model.stage_cost(stage, target, schedule)
            latency += max(stage_cost.compute_seconds, stage_cost.memory_seconds)
            latency += stage_cost.overhead_seconds * self.fallback_overhead_multiplier
        return TuneResult(latency, schedule, self.name, trials=1, used_fallback=True)


# ---------------------------------------------------------------------------
# Loop nests for standard layers described only by a ConvSlot
# ---------------------------------------------------------------------------


def loopnest_for_slot(slot: ConvSlot, batch: int = 1) -> LoopNestProgram:
    """A single-stage loop-nest program for a standard (possibly grouped) conv.

    Used for the baseline layers of the backbone models (including grouped and
    depthwise convolutions that are not substitution targets) so that both the
    baseline and the Syno-optimized models are costed through the same
    pipeline.
    """
    macs = slot.macs(batch)
    out_spatial = slot.output_spatial
    output_elements = batch * slot.out_channels * out_spatial * out_spatial
    input_elements = batch * slot.in_channels * slot.spatial * slot.spatial
    stage = LoopNest(
        name=f"{slot.name}.conv",
        extents=(
            batch,
            slot.out_channels,
            out_spatial,
            out_spatial,
            slot.in_channels // slot.groups,
            slot.kernel_size,
            slot.kernel_size,
        ),
        macs=macs,
        input_elements=input_elements,
        weight_elements=slot.parameters(),
        output_elements=output_elements,
    )
    return LoopNestProgram(
        operator_name=slot.name,
        stages=(stage,),
        naive_macs=macs,
        parameter_count=slot.parameters(),
        input_elements=input_elements,
        output_elements=output_elements,
    )


def cached_loopnest_for_slot(slot: ConvSlot, batch: int = 1) -> LoopNestProgram:
    """:func:`loopnest_for_slot` of ``(slot, batch)``, memoized per context.

    Every evaluation of a model costs its slots' standard convolutions: all
    of them for the baseline, and each slot a candidate cannot substitute.
    The memo is the ambient context's lowering cache, beside the operator
    lowerings of :func:`~repro.codegen.loopnest.cached_loopnest`.  Their keys
    start with a signature string and have four parts, so the three-part
    ``("standard-conv", slot, batch)`` cannot collide with them.  The key
    holds the whole slot, so a program never carries another slot's name.
    """
    return current().cached_lowering(
        ("standard-conv", slot, batch), lambda: loopnest_for_slot(slot, batch)
    )


def linear_loopnest(name: str, batch_tokens: int, in_features: int, out_features: int) -> LoopNestProgram:
    """A single-stage loop nest for a dense projection (GPT-2 QKV slots)."""
    macs = batch_tokens * in_features * out_features
    stage = LoopNest(
        name=f"{name}.matmul",
        extents=(batch_tokens, out_features, in_features),
        macs=macs,
        input_elements=batch_tokens * in_features,
        weight_elements=in_features * out_features,
        output_elements=batch_tokens * out_features,
    )
    return LoopNestProgram(
        operator_name=name,
        stages=(stage,),
        naive_macs=macs,
        parameter_count=in_features * out_features,
        input_elements=batch_tokens * in_features,
        output_elements=batch_tokens * out_features,
    )
