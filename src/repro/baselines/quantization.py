"""INT8 post-training quantization baseline (Figure 8).

The paper compares Operator 1 with the INT8-quantized ResNet-18 from
torchvision/QNNPACK imported into TVM.  Here quantization is simulated
faithfully on both axes of the trade-off:

* *accuracy*: the trained model's weights are rounded to 256 levels
  (symmetric per-tensor quantization) and validation accuracy is re-measured;
* *latency*: the cost model is re-run with 1-byte elements and the target's
  INT8 throughput multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compiler.backends import cached_loopnest_for_slot
from repro.compiler.costmodel import AnalyticalCostModel
from repro.compiler.schedule import Schedule, schedule_space
from repro.compiler.targets import HardwareTarget
from repro.nn.models.common import ConvSlot
from repro.nn.module import Module


@dataclass(frozen=True)
class QuantizationResult:
    """Accuracy and latency of the INT8 model."""

    accuracy: float
    latency_seconds: float

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3


def quantize_model(model: Module, bits: int = 8) -> Module:
    """Symmetric per-tensor weight quantization, in place (returns the model)."""
    levels = 2 ** (bits - 1) - 1
    for parameter in model.parameters():
        scale = np.abs(parameter.data).max() / levels
        if scale == 0:
            continue
        parameter.data = np.clip(np.round(parameter.data / scale), -levels, levels) * scale
    return model


def quantized_latency(
    slots: Sequence[ConvSlot],
    target: HardwareTarget,
    batch: int = 1,
    trials: int = 32,
) -> float:
    """Tuned end-to-end latency of the standard convolutions under INT8."""
    cost_model = AnalyticalCostModel(
        element_bytes=1, datatype_speedup=target.int8_speedup
    )
    total = 0.0
    for slot in slots:
        program = cached_loopnest_for_slot(slot, batch=batch)
        best = float("inf")
        for index, schedule in enumerate(schedule_space()):
            if index >= trials:
                break
            best = min(best, cost_model.program_latency(program, target, schedule))
        total += best
    return total
