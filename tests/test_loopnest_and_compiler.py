"""Tests for the loop-nest lowering, materialized reduction and the compiler."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.nas_pte import NAS_PTE_SEQUENCES
from repro.codegen.loopnest import lower_to_loopnest
from repro.compiler import (
    A100,
    MOBILE_CPU,
    MOBILE_GPU,
    AnalyticalCostModel,
    InductorBackend,
    Schedule,
    TVMBackend,
    default_schedule,
    loopnest_for_slot,
    schedule_space,
)
from repro.compiler.targets import target_by_name
from repro.core.library import (
    BLOCK,
    C_IN,
    C_OUT,
    GROUPS,
    LIBRARY,
    H,
    K,
    K1,
    M,
    N,
    OUT_FEATURES,
    POOL,
    SHRINK,
    W,
    build_conv2d,
    build_operator1,
    build_operator2,
)
from repro.experiments.ablation_materialization import build_figure4_operator
from repro.ir.size import SizeError
from repro.nn.models.common import ConvSlot

CONV_BINDING = {N: 1, C_IN: 64, C_OUT: 64, H: 14, W: 14, K1: 3, GROUPS: 4, SHRINK: 2}


class TestLoopNestLowering:
    def test_conv_macs_match_formula(self):
        program = lower_to_loopnest(build_conv2d(), CONV_BINDING)
        assert program.macs == 64 * 64 * 14 * 14 * 9

    def test_figure4_materialized_macs(self):
        """The paper's Figure 4: k*H naive vs (1 + k/s)*H materialized."""
        operator = build_figure4_operator()
        binding = {H: 1024, POOL: 4, K1: 5}
        naive = lower_to_loopnest(operator, binding, materialize=False)
        staged = lower_to_loopnest(operator, binding, materialize=True)
        assert naive.macs == 5 * 1024
        assert staged.macs == 1024 + (1024 // 4) * 5
        assert staged.materialization_gain > 2.0

    def test_operator1_materialization_beats_naive(self):
        program = lower_to_loopnest(build_operator1(), CONV_BINDING)
        assert program.macs < program.naive_macs
        assert len(program.stages) >= 2

    def test_materialization_never_hurts(self):
        for operator in (build_conv2d(), build_operator1(), build_operator2()):
            naive = lower_to_loopnest(operator, CONV_BINDING, materialize=False)
            staged = lower_to_loopnest(operator, CONV_BINDING, materialize=True)
            assert staged.macs <= naive.macs

    def test_slot_loopnest_matches_slot_macs(self):
        slot = ConvSlot("conv", 32, 64, 14, 3, 1)
        program = loopnest_for_slot(slot, batch=2)
        assert program.macs == slot.macs(2)
        assert program.parameter_count == slot.parameters()


# ---------------------------------------------------------------------------
# Lowering parity: pinned results for every library operator
# ---------------------------------------------------------------------------

#: Per slot family: three bindings that lower, then one whose coefficients
#: need not divide the channels and one that leaves a primary variable unbound.
_CONV_BINDINGS = (
    {N: 1, C_IN: 64, C_OUT: 64, H: 14, W: 14, K1: 3, GROUPS: 4, SHRINK: 2},
    {N: 2, C_IN: 32, C_OUT: 64, H: 8, W: 8, K1: 3, GROUPS: 4, SHRINK: 2},
    {N: 1, C_IN: 128, C_OUT: 256, H: 7, W: 7, K1: 5, GROUPS: 8, SHRINK: 4},
    {N: 1, C_IN: 6, C_OUT: 10, H: 7, W: 7, K1: 3, GROUPS: 4, SHRINK: 4},
    {N: 1, C_IN: 64, C_OUT: 64, W: 14, K1: 3, GROUPS: 4, SHRINK: 2},
)
_MATMUL_BINDINGS = (
    {M: 4, K: 8, OUT_FEATURES: 8, GROUPS: 4},
    {M: 16, K: 64, OUT_FEATURES: 32, GROUPS: 4},
    {M: 128, K: 768, OUT_FEATURES: 768, GROUPS: 8},
    {M: 4, K: 6, OUT_FEATURES: 5, GROUPS: 4},
    {M: 4, OUT_FEATURES: 5},
)
_POOL_BINDINGS = (
    {H: 1024, POOL: 4, K1: 5},
    {H: 64, POOL: 2, K1: 3},
    {H: 96, POOL: 8, K1: 7},
    {H: 10, POOL: 4, K1: 3},
    {POOL: 4, K1: 3},
)
_SHUFFLE_BINDINGS = (
    {H: 64, BLOCK: 2},
    {H: 96, BLOCK: 4},
    {H: 1024, BLOCK: 8},
    {H: 10, BLOCK: 4},
    {BLOCK: 4},
)

PARITY_OPERATORS = {
    **{
        name: (LIBRARY[name], _CONV_BINDINGS)
        for name in ("conv2d", "operator1", "operator2", "shift_conv")
    },
    **{name: (build, _CONV_BINDINGS) for name, build in NAS_PTE_SEQUENCES.items()},
    "matmul": (LIBRARY["matmul"], _MATMUL_BINDINGS),
    "grouped_projection": (LIBRARY["grouped_projection"], _MATMUL_BINDINGS),
    "avgpool1d": (LIBRARY["avgpool1d"], _POOL_BINDINGS),
    "figure4": (build_figure4_operator, _POOL_BINDINGS),
    "pixelshuffle": (LIBRARY["pixelshuffle"], _SHUFFLE_BINDINGS),
}

# Pinned outcomes: (sha256 prefix of ``structural_key()``, macs, stage names)
# per (operator, binding index), with and without the materialized-reduction
# pass.  A changed value is a change in what the lowering computes.
RAISING = {
    ("conv2d", 4),
    ("operator1", 3),
    ("operator1", 4),
    ("operator2", 4),
    ("shift_conv", 4),
    ("seq1_grouped", 3),
    ("seq1_grouped", 4),
    ("seq2_bottleneck", 3),
    ("seq2_bottleneck", 4),
    ("seq3_group_bottleneck", 3),
    ("seq3_group_bottleneck", 4),
    ("matmul", 4),
    ("grouped_projection", 3),
    ("grouped_projection", 4),
    ("avgpool1d", 3),
    ("avgpool1d", 4),
    ("figure4", 3),
    ("figure4", 4),
    ("pixelshuffle", 4),
}
MATERIALIZED = {
    ("conv2d", 0): ("b792d604cfbfc384", 7225344, ("naive",)),
    ("conv2d", 1): ("cebf66794a7ce145", 2359296, ("naive",)),
    ("conv2d", 2): ("0ee1e6a212c32324", 40140800, ("naive",)),
    ("conv2d", 3): ("fa80797ca73b9592", 26460, ("naive",)),
    ("operator1", 0): ("3cf77365d367f32b", 3913728, ("contract_w0", "contract_w1")),
    ("operator1", 1): ("3a0eb0c61c2f7735", 2457600, ("contract_w0", "contract_w1")),
    ("operator1", 2): ("7af6cb6cf14f458c", 20321280, ("contract_w0", "contract_w1")),
    ("operator2", 0): ("678cdd1da7dc8985", 2446080, ("contract_w1", "contract_w0")),
    ("operator2", 1): ("35fe3c43ef228c74", 798720, ("contract_w1", "contract_w0")),
    ("operator2", 2): ("7082d5b702e8cb22", 8059520, ("contract_w1", "contract_w0")),
    ("operator2", 3): ("093f08fc8461a96a", 9702, ("contract_w1", "contract_w0")),
    ("shift_conv", 0): ("41c334d215b200d3", 2408448, ("naive",)),
    ("shift_conv", 1): ("8535b85ef08f161d", 786432, ("naive",)),
    ("shift_conv", 2): ("4f674a0b8ddeb7df", 8028160, ("naive",)),
    ("shift_conv", 3): ("bba6178933195636", 8820, ("naive",)),
    ("seq1_grouped", 0): ("67e2bcca23b821e9", 1806336, ("naive",)),
    ("seq1_grouped", 1): ("8920616cf58a9b51", 589824, ("naive",)),
    ("seq1_grouped", 2): ("8742ae4fa62c6b41", 5017600, ("naive",)),
    ("seq2_bottleneck", 0): ("f5222e99e9b36dd2", 3612672, ("naive",)),
    ("seq2_bottleneck", 1): ("f63e808dc4e1ff88", 1179648, ("naive",)),
    ("seq2_bottleneck", 2): ("17cf82f5ebe71d09", 10035200, ("naive",)),
    ("seq3_group_bottleneck", 0): ("6447336496a90674", 903168, ("naive",)),
    ("seq3_group_bottleneck", 1): ("716bc74a816d4f90", 294912, ("naive",)),
    ("seq3_group_bottleneck", 2): ("cd21457f5da06984", 1254400, ("naive",)),
    ("matmul", 0): ("0fc7f199f572e1e7", 256, ("naive",)),
    ("matmul", 1): ("1316eb59bf45291c", 32768, ("naive",)),
    ("matmul", 2): ("0647247a9ebb8485", 75497472, ("naive",)),
    ("matmul", 3): ("fb846c2a202e5031", 120, ("naive",)),
    ("grouped_projection", 0): ("559405e6646c4644", 64, ("naive",)),
    ("grouped_projection", 1): ("70df731008d30579", 8192, ("naive",)),
    ("grouped_projection", 2): ("f472194cae02d70c", 9437184, ("naive",)),
    ("avgpool1d", 0): ("d2a47dccdeeb8f7b", 1024, ("naive",)),
    ("avgpool1d", 1): ("7bb5e503c24b1b70", 64, ("naive",)),
    ("avgpool1d", 2): ("7c873c9caa0fe3c8", 96, ("naive",)),
    ("figure4", 0): ("f292a9f43ea4a61d", 2304, ("reduce_r", "reduce_r")),
    ("figure4", 1): ("ea5123e6c3631f4e", 160, ("reduce_r", "reduce_r")),
    ("figure4", 2): ("7c54a82f40e057ee", 180, ("reduce_r", "reduce_r")),
    ("pixelshuffle", 0): ("c7d3e0565ba79f7d", 64, ("naive",)),
    ("pixelshuffle", 1): ("65d0fbd802d7505a", 96, ("naive",)),
    ("pixelshuffle", 2): ("4358cb5d3a2531a2", 1024, ("naive",)),
    ("pixelshuffle", 3): ("74ea987d2d018b57", 10, ("naive",)),
}
NAIVE = {
    ("conv2d", 0): ("b792d604cfbfc384", 7225344, ("naive",)),
    ("conv2d", 1): ("cebf66794a7ce145", 2359296, ("naive",)),
    ("conv2d", 2): ("0ee1e6a212c32324", 40140800, ("naive",)),
    ("conv2d", 3): ("fa80797ca73b9592", 26460, ("naive",)),
    ("operator1", 0): ("7ff1a999640fdf4a", 57802752, ("naive",)),
    ("operator1", 1): ("5c41cb69b456612b", 18874368, ("naive",)),
    ("operator1", 2): ("4e517a03b43bb794", 321126400, ("naive",)),
    ("operator2", 0): ("f9cc664a9e4b5aeb", 7225344, ("naive",)),
    ("operator2", 1): ("3739163abab44226", 2359296, ("naive",)),
    ("operator2", 2): ("537f19ac088f5fa3", 40140800, ("naive",)),
    ("operator2", 3): ("40db3fd9fed1eaf8", 26460, ("naive",)),
    ("shift_conv", 0): ("41c334d215b200d3", 2408448, ("naive",)),
    ("shift_conv", 1): ("8535b85ef08f161d", 786432, ("naive",)),
    ("shift_conv", 2): ("4f674a0b8ddeb7df", 8028160, ("naive",)),
    ("shift_conv", 3): ("bba6178933195636", 8820, ("naive",)),
    ("seq1_grouped", 0): ("67e2bcca23b821e9", 1806336, ("naive",)),
    ("seq1_grouped", 1): ("8920616cf58a9b51", 589824, ("naive",)),
    ("seq1_grouped", 2): ("8742ae4fa62c6b41", 5017600, ("naive",)),
    ("seq2_bottleneck", 0): ("f5222e99e9b36dd2", 3612672, ("naive",)),
    ("seq2_bottleneck", 1): ("f63e808dc4e1ff88", 1179648, ("naive",)),
    ("seq2_bottleneck", 2): ("17cf82f5ebe71d09", 10035200, ("naive",)),
    ("seq3_group_bottleneck", 0): ("6447336496a90674", 903168, ("naive",)),
    ("seq3_group_bottleneck", 1): ("716bc74a816d4f90", 294912, ("naive",)),
    ("seq3_group_bottleneck", 2): ("cd21457f5da06984", 1254400, ("naive",)),
    ("matmul", 0): ("0fc7f199f572e1e7", 256, ("naive",)),
    ("matmul", 1): ("1316eb59bf45291c", 32768, ("naive",)),
    ("matmul", 2): ("0647247a9ebb8485", 75497472, ("naive",)),
    ("matmul", 3): ("fb846c2a202e5031", 120, ("naive",)),
    ("grouped_projection", 0): ("559405e6646c4644", 64, ("naive",)),
    ("grouped_projection", 1): ("70df731008d30579", 8192, ("naive",)),
    ("grouped_projection", 2): ("f472194cae02d70c", 9437184, ("naive",)),
    ("avgpool1d", 0): ("d2a47dccdeeb8f7b", 1024, ("naive",)),
    ("avgpool1d", 1): ("7bb5e503c24b1b70", 64, ("naive",)),
    ("avgpool1d", 2): ("7c873c9caa0fe3c8", 96, ("naive",)),
    ("figure4", 0): ("30bdd1968d556184", 5120, ("naive",)),
    ("figure4", 1): ("c0f28c63d2d6d076", 192, ("naive",)),
    ("figure4", 2): ("c0257d23c7de8617", 672, ("naive",)),
    ("pixelshuffle", 0): ("c7d3e0565ba79f7d", 64, ("naive",)),
    ("pixelshuffle", 1): ("65d0fbd802d7505a", 96, ("naive",)),
    ("pixelshuffle", 2): ("4358cb5d3a2531a2", 1024, ("naive",)),
    ("pixelshuffle", 3): ("74ea987d2d018b57", 10, ("naive",)),
}


def _lowering_outcome(program) -> tuple[str, int, tuple[str, ...]]:
    digest = hashlib.sha256(repr(program.structural_key()).encode()).hexdigest()[:16]
    return digest, program.macs, tuple(stage.name for stage in program.stages)


_PARITY_CASES = [
    (name, index, materialize)
    for name, (_, bindings) in PARITY_OPERATORS.items()
    for index in range(len(bindings))
    for materialize in (True, False)
]


class TestLoweringParity:
    def test_every_case_is_pinned(self):
        pinned = set(RAISING) | set(MATERIALIZED)
        assert pinned == set(NAIVE) | set(RAISING)
        assert pinned == {(name, index) for name, index, _ in _PARITY_CASES}

    @pytest.mark.parametrize("name,index,materialize", _PARITY_CASES)
    def test_lowering_matches_pinned_result(self, name, index, materialize):
        build, bindings = PARITY_OPERATORS[name]
        operator = build()
        if (name, index) in RAISING:
            with pytest.raises(SizeError):
                lower_to_loopnest(operator, bindings[index], materialize=materialize)
            return
        program = lower_to_loopnest(operator, bindings[index], materialize=materialize)
        expected = (MATERIALIZED if materialize else NAIVE)[(name, index)]
        assert _lowering_outcome(program) == expected


class TestCostModel:
    def test_more_macs_cost_more(self):
        small = loopnest_for_slot(ConvSlot("s", 32, 32, 14, 3, 1))
        large = loopnest_for_slot(ConvSlot("l", 128, 128, 28, 3, 1))
        model = AnalyticalCostModel()
        schedule = default_schedule()
        assert model.program_latency(large, MOBILE_CPU, schedule) > model.program_latency(
            small, MOBILE_CPU, schedule
        )

    def test_faster_hardware_is_faster(self):
        program = loopnest_for_slot(ConvSlot("c", 256, 256, 14, 3, 1))
        model = AnalyticalCostModel()
        schedule = default_schedule()
        assert model.program_latency(program, A100, schedule) < model.program_latency(
            program, MOBILE_CPU, schedule
        )

    def test_int8_speedup(self):
        program = loopnest_for_slot(ConvSlot("c", 256, 256, 14, 3, 1))
        fp32 = AnalyticalCostModel()
        int8 = AnalyticalCostModel(element_bytes=1, datatype_speedup=MOBILE_CPU.int8_speedup)
        schedule = default_schedule()
        assert int8.program_latency(program, MOBILE_CPU, schedule) < fp32.program_latency(
            program, MOBILE_CPU, schedule
        )

    def test_target_lookup(self):
        assert target_by_name("a100") is A100
        with pytest.raises(KeyError):
            target_by_name("tpu")

    def test_schedule_space_is_finite_and_diverse(self):
        schedules = list(schedule_space())
        assert len(schedules) > 20
        assert len({s.tile for s in schedules}) >= 4


class TestBackends:
    def test_tvm_tuning_beats_default_schedule(self):
        program = loopnest_for_slot(ConvSlot("c", 256, 256, 14, 3, 1))
        model = AnalyticalCostModel()
        default_latency = model.program_latency(program, MOBILE_CPU, default_schedule())
        tuned = TVMBackend(trials=64).compile(program, MOBILE_CPU)
        assert tuned.latency_seconds <= default_latency * 1.001

    def test_inductor_template_matches_standard_conv(self):
        program = loopnest_for_slot(ConvSlot("c", 256, 256, 14, 3, 1))
        result = InductorBackend().compile(program, A100)
        assert not result.used_fallback

    def test_inductor_falls_back_for_multistage_operators(self):
        program = lower_to_loopnest(build_operator1(), CONV_BINDING)
        result = InductorBackend().compile(program, MOBILE_CPU)
        assert result.used_fallback

    def test_fallback_penalty_larger_on_mobile(self):
        """Reproduces the paper's platform-dependent TorchInductor behaviour."""
        program = lower_to_loopnest(build_operator2(), CONV_BINDING)
        backend = InductorBackend()
        tvm = TVMBackend(trials=48)
        mobile_ratio = (
            backend.compile(program, MOBILE_CPU).latency_seconds
            / tvm.compile(program, MOBILE_CPU).latency_seconds
        )
        a100_ratio = (
            backend.compile(program, A100).latency_seconds
            / tvm.compile(program, A100).latency_seconds
        )
        assert mobile_ratio > a100_ratio

    @pytest.mark.parametrize("target", [MOBILE_CPU, MOBILE_GPU, A100])
    def test_fewer_macs_is_faster_when_tuned(self, target):
        conv = loopnest_for_slot(ConvSlot("c", 256, 256, 14, 3, 1))
        grouped = loopnest_for_slot(ConvSlot("g", 256, 256, 14, 3, 1, groups=4))
        backend = TVMBackend(trials=48)
        assert backend.compile(grouped, target).latency_seconds < backend.compile(
            conv, target
        ).latency_seconds


@settings(max_examples=15, deadline=None)
@given(
    channels=st.sampled_from([32, 64, 128]),
    spatial=st.sampled_from([7, 14, 28]),
    tile=st.sampled_from([16, 32, 64]),
)
def test_property_latency_positive_and_monotone_in_macs(channels, spatial, tile):
    model = AnalyticalCostModel()
    schedule = Schedule(tile=tile)
    small = loopnest_for_slot(ConvSlot("a", channels, channels, spatial, 3, 1))
    double = loopnest_for_slot(ConvSlot("b", 2 * channels, channels, spatial, 3, 1))
    latency_small = model.program_latency(small, MOBILE_GPU, schedule)
    latency_double = model.program_latency(double, MOBILE_GPU, schedule)
    assert latency_small > 0
    assert latency_double >= latency_small
