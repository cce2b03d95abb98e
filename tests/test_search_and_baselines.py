"""Tests for extraction, substitution, evaluators, baselines and experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.alphanas import alphanas_substitution
from repro.baselines.nas_pte import NAS_PTE_SEQUENCES
from repro.baselines.quantization import quantize_model, quantized_latency
from repro.baselines.stacked_conv import StackedConvolution, stacked_conv_program
from repro.codegen.eager import lower_to_module
from repro.codegen.loopnest import lower_to_loopnest
from repro.compiler import MOBILE_CPU, TVMBackend
from repro.core.library import (
    C_IN,
    C_OUT,
    GROUPS,
    K,
    K1,
    M,
    N,
    OUT_FEATURES,
    SHRINK,
    H,
    W,
    build_conv2d,
    build_grouped_projection,
    build_operator2,
)
from repro.nn.models.profiles import MODEL_PROFILES, RESNET18_PROFILE
from repro.nn.models.resnet import resnet18
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor
from repro.search.evaluator import LatencyEvaluator
from repro.search.extraction import (
    conv_spec_from_slots,
    extract_conv_slots,
    original_macs,
    slot_is_substitutable,
    substitutable_slots,
)
from repro.search.substitution import SynthesizedConv2d, SynthesizedLinear, synthesized_conv_factory
from repro.nn.models.common import ConvSlot


class TestExtraction:
    def test_extract_conv_slots_from_resnet(self):
        slots = extract_conv_slots(resnet18)
        assert len(slots) > 10
        eligible = substitutable_slots(slots)
        assert eligible and all(slot.kernel_size == 3 and slot.groups == 1 for slot in eligible)

    def test_stem_and_strided_slots_excluded(self):
        assert not slot_is_substitutable(ConvSlot("stem", 3, 8, 8, 3, 1))
        assert not slot_is_substitutable(ConvSlot("down", 64, 128, 28, 3, 2))
        assert slot_is_substitutable(ConvSlot("conv", 64, 64, 28, 3, 1))

    def test_conv_spec_has_one_binding_per_slot(self):
        slots = extract_conv_slots(resnet18)
        spec = conv_spec_from_slots(slots, batch=4)
        assert len(spec.bindings) == len(substitutable_slots(slots))

    def test_original_macs_positive(self):
        assert original_macs(RESNET18_PROFILE, batch=1) > 1e9


class TestSubstitution:
    def test_synthesized_conv_preserves_shapes(self, rng):
        slot = ConvSlot("conv", 8, 16, 8, 3, 1)
        module = SynthesizedConv2d(build_operator2(), slot)
        out = module(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert out.shape == (2, 16, 8, 8)

    def test_synthesized_conv_handles_stride_by_pooling(self, rng):
        slot = ConvSlot("down", 8, 16, 8, 3, 2)
        module = SynthesizedConv2d(build_operator2(), slot)
        out = module(Tensor(rng.normal(size=(1, 8, 8, 8))))
        assert out.shape == (1, 16, 4, 4)

    def test_batch_size_change_shares_weights(self, rng):
        slot = ConvSlot("conv", 8, 8, 8, 3, 1)
        module = SynthesizedConv2d(build_operator2(), slot)
        module(Tensor(rng.normal(size=(2, 8, 8, 8))))
        module(Tensor(rng.normal(size=(5, 8, 8, 8))))
        assert len(module._instances) >= 2
        assert all(inst.weights[0] is module.weights[0] for inst in module._instances.values())

    def test_synthesized_linear_matches_grouped_projection(self, rng):
        module = SynthesizedLinear(build_grouped_projection(), 8, 8, coefficients={GROUPS: 2})
        out = module(Tensor(rng.normal(size=(3, 4, 8))))
        assert out.shape == (3, 4, 8)

    def test_factory_substitutes_only_eligible_slots(self):
        factory = synthesized_conv_factory(build_operator2())
        substituted = factory(ConvSlot("conv", 8, 8, 8, 3, 1))
        kept = factory(ConvSlot("stem", 3, 8, 8, 3, 1))
        assert isinstance(substituted, SynthesizedConv2d)
        assert not isinstance(kept, SynthesizedConv2d)

    def test_substituted_resnet_trains_one_step(self, rng):
        model = resnet18(conv_factory=synthesized_conv_factory(build_operator2()))
        out = model(Tensor(rng.normal(size=(2, 3, 8, 8))))
        from repro.nn import functional as F

        F.cross_entropy(out, np.array([1, 2])).backward()
        synthesized_params = [
            p for module in model.modules() if isinstance(module, SynthesizedConv2d)
            for p in module.weights
        ]
        assert synthesized_params
        assert any(p.grad is not None for p in synthesized_params)


class TestLatencyEvaluator:
    def test_baseline_and_substituted_latencies_positive(self):
        evaluator = LatencyEvaluator(
            slots=RESNET18_PROFILE, backend=TVMBackend(trials=16), target=MOBILE_CPU
        )
        baseline = evaluator.baseline_latency()
        substituted = evaluator.substituted_latency(build_operator2())
        assert baseline > 0 and substituted > 0

    def test_macs_accounting(self):
        evaluator = LatencyEvaluator(
            slots=RESNET18_PROFILE, backend=TVMBackend(trials=8), target=MOBILE_CPU
        )
        assert evaluator.macs(build_operator2()) < evaluator.macs(None)


class TestBaselines:
    BINDING = {N: 1, C_IN: 64, C_OUT: 64, H: 14, W: 14, K1: 3, GROUPS: 2, SHRINK: 2}

    def test_nas_pte_grouped_macs(self):
        grouped = NAS_PTE_SEQUENCES["seq1_grouped"]()
        conv = build_conv2d()
        assert grouped.macs(self.BINDING) == conv.macs(self.BINDING) // 2

    def test_nas_pte_bottleneck_macs(self):
        bottleneck = NAS_PTE_SEQUENCES["seq2_bottleneck"]()
        conv = build_conv2d()
        assert bottleneck.macs(self.BINDING) == conv.macs(self.BINDING) // 2

    def test_nas_pte_operators_lower_and_run(self, rng):
        small = {N: 1, C_IN: 8, C_OUT: 8, H: 6, W: 6, K1: 3, GROUPS: 2, SHRINK: 2}
        for name, builder in NAS_PTE_SEQUENCES.items():
            operator = builder()
            module = lower_to_module(operator, small, rng=rng)
            out = module(Tensor(rng.normal(size=(1, 8, 6, 6))))
            assert out.shape == (1, 8, 6, 6), name

    def test_grouped_conv_semantics_block_diagonal(self, rng):
        """Channels of one group must not affect outputs of another group."""
        small = {N: 1, C_IN: 4, C_OUT: 4, H: 4, W: 4, K1: 3, GROUPS: 2, SHRINK: 2}
        operator = NAS_PTE_SEQUENCES["seq1_grouped"]()
        module = lower_to_module(operator, small, rng=rng)
        x = np.zeros((1, 4, 4, 4))
        x[0, 3] = 1.0  # activate only the last input channel (second group)
        out = module(Tensor(x)).data
        assert np.allclose(out[0, :2], 0.0)  # first group's outputs unaffected
        assert not np.allclose(out[0, 2:], 0.0)

    def test_stacked_convolution_module_and_program(self, rng):
        module = StackedConvolution(8, 16)
        out = module(Tensor(rng.normal(size=(1, 8, 6, 6))))
        assert out.shape == (1, 16, 6, 6)
        slot = ConvSlot("c", 64, 64, 14, 3, 1)
        program = stacked_conv_program(slot)
        assert len(program.stages) == 2
        assert program.macs < loop_macs(slot)

    def test_quantization_preserves_shapes_and_reduces_latency(self, rng):
        model = Linear(8, 4)
        original = model.weight.data.copy()
        quantize_model(model)
        assert model.weight.data.shape == original.shape
        assert np.abs(model.weight.data - original).max() < np.abs(original).max() * 0.1
        assert quantized_latency(RESNET18_PROFILE[:4], MOBILE_CPU) > 0

    def test_alphanas_reduction_in_expected_range(self):
        result = alphanas_substitution(MODEL_PROFILES["resnet34"])
        assert 0.1 < result.flops_reduction < 0.7
        assert result.estimated_training_speedup > 1.0


def loop_macs(slot: ConvSlot) -> int:
    return slot.macs(1)
