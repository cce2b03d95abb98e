"""A roofline-style analytical cost model for loop-nest programs.

Each stage of a :class:`~repro.codegen.loopnest.LoopNestProgram` is costed as
the maximum of its compute time and its memory time, where the achieved
compute throughput depends on the schedule (tile locality, vectorization,
parallel saturation) and the achieved bandwidth on whether the working set is
cache resident.  Kernel-launch overhead is added per stage, which is what
makes many-stage lowerings of tiny operators unattractive — the same effect
the paper sees with unfused fallback kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.loopnest import LoopNest, LoopNestProgram
from repro.compiler.schedule import Schedule
from repro.compiler.targets import HardwareTarget


@dataclass(frozen=True)
class StageCost:
    """Latency breakdown of one stage under one schedule."""

    stage_name: str
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    achieved_gflops: float

    @property
    def seconds(self) -> float:
        return max(self.compute_seconds, self.memory_seconds) + self.overhead_seconds


@dataclass
class AnalyticalCostModel:
    """Maps (program, schedule, target) to estimated latency."""

    #: efficiency multiplier applied on top of the target's tuned efficiency;
    #: backends use it to model template quality or fallback penalties.
    efficiency_scale: float = 1.0
    #: datatype width in bytes (4 for FP32, 1 for INT8).
    element_bytes: int = 4
    #: additional throughput factor for narrow datatypes (set by quantization).
    datatype_speedup: float = 1.0

    def config_key(self) -> tuple:
        """Hashable description of the knobs that change predicted latencies."""
        return (self.efficiency_scale, self.element_bytes, self.datatype_speedup)

    # -- per-stage model -----------------------------------------------------

    def stage_cost(self, stage: LoopNest, target: HardwareTarget, schedule: Schedule) -> StageCost:
        flops = 2.0 * stage.macs

        # Compute efficiency --------------------------------------------------
        efficiency = target.tuned_efficiency * self.efficiency_scale

        # Vectorization: the innermost extent must cover the vector lanes.
        innermost = stage.extents[-1] if stage.extents else 1
        if schedule.vectorize:
            if innermost % target.vector_width != 0 and innermost >= target.vector_width:
                efficiency *= 0.8
            elif innermost < target.vector_width:
                efficiency *= max(innermost / target.vector_width, 0.25)
        else:
            efficiency *= 0.5

        # Tile locality: the tile working set should fit in cache.
        if schedule.working_set_bytes() > target.cache_kib * 1024:
            efficiency *= 0.5
        # Very small tiles waste reuse on contractions with large reductions.
        reuse = min(schedule.tile, max(stage.macs // max(stage.output_elements, 1), 1))
        efficiency *= min(1.0, 0.25 + reuse / 64.0)

        # Unrolling mildly helps until registers spill.
        efficiency *= 1.0 if schedule.unroll <= 8 else 0.85

        # Parallel saturation.
        iterations = stage.iterations
        if schedule.parallel:
            saturation = min(1.0, iterations / target.saturation_iterations)
            efficiency *= 0.3 + 0.7 * saturation
        else:
            efficiency *= 0.25 if target.is_gpu else 0.5

        efficiency = max(min(efficiency, 1.0), 1e-3)
        achieved = target.peak_flops() * efficiency * self.datatype_speedup
        compute_seconds = flops / achieved if flops else 0.0

        # Memory time ---------------------------------------------------------
        bytes_moved = (
            stage.input_elements + stage.weight_elements + stage.output_elements
        ) * self.element_bytes
        cache_resident = bytes_moved <= target.cache_kib * 1024
        bandwidth = target.bandwidth_bytes() * (1.0 if not cache_resident else 3.0)
        memory_seconds = bytes_moved / bandwidth

        overhead_seconds = target.launch_overhead_us * 1e-6
        return StageCost(
            stage_name=stage.name,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            overhead_seconds=overhead_seconds,
            achieved_gflops=achieved / 1e9,
        )

    # -- whole-program model ---------------------------------------------------

    def program_latency(
        self, program: LoopNestProgram, target: HardwareTarget, schedule: Schedule
    ) -> float:
        """End-to-end latency (seconds) of a program under one schedule."""
        return sum(self.stage_cost(stage, target, schedule).seconds for stage in program.stages)
