"""Figure 8: Operator 1 vs. stacked convolution vs. INT8 quantization.

The case study compares four ResNet-18 variants on accuracy and TVM-tuned
latency: the original model, the INT8-quantized model, the stacked grouped
convolution (same FLOPs as Operator 1 but expressible by NAS), and Operator 1
itself.  The paper's findings to reproduce: the stacked convolution loses
about twice as much accuracy as Operator 1 at similar latency, and Operator 1
is at least competitive with INT8 quantization on both axes.

The three heavy work items (original+INT8 share one trained model, stacked,
Operator 1) are independent, so they run through
:func:`repro.search.parallel.sharded_map` under the ``REPRO_SEARCH_SHARDS``
knob.  Each item reseeds the substrate's parameter-initialization RNG before
building its model, which makes every point a pure function of
``(variant, steps, seed, dtype)`` — a sharded run's table is bit-identical
to a serial run's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.baselines.quantization import quantize_model, quantized_latency
from repro.baselines.stacked_conv import StackedConvolution, stacked_conv_program
from repro.compiler.backends import TVMBackend, cached_loopnest_for_slot
from repro.compiler.targets import MOBILE_CPU, HardwareTarget
from repro.core.library import GROUPS, K1, SHRINK, build_operator1
from repro.nn.data import SyntheticImageDataset
from repro.nn.layers import seed_all
from repro.nn.models.common import ConvSlot, default_conv_factory
from repro.nn.models.profiles import RESNET18_PROFILE
from repro.nn.models.resnet import resnet18
from repro.nn.module import Module
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime import current
from repro.search.evaluator import LatencyEvaluator
from repro.search.extraction import DEFAULT_COEFFICIENT_VALUES, slot_is_substitutable
from repro.search.parallel import sharded_map
from repro.search.substitution import synthesized_conv_factory


@dataclass
class CaseStudyPoint:
    variant: str
    accuracy: float
    latency_ms: float


@dataclass
class Figure8Result:
    target: str
    points: list[CaseStudyPoint] = field(default_factory=list)

    def point(self, variant: str) -> CaseStudyPoint:
        for point in self.points:
            if point.variant == variant:
                return point
        raise KeyError(variant)

    def to_table(self) -> str:
        lines = [f"{'variant':22s} {'accuracy':>9s} {'latency(ms)':>12s}   (target: {self.target})"]
        for point in self.points:
            lines.append(f"{point.variant:22s} {point.accuracy:9.3f} {point.latency_ms:12.3f}")
        return "\n".join(lines)


def _stacked_conv_factory(slot_filter=slot_is_substitutable):
    def factory(slot: ConvSlot) -> Module:
        if slot_filter(slot):
            return StackedConvolution(slot.in_channels, slot.out_channels)
        return default_conv_factory(slot)

    return factory


def _stacked_latency(backend, target, batch: int = 1) -> float:
    total = 0.0
    for slot in RESNET18_PROFILE:
        if slot_is_substitutable(slot):
            program = stacked_conv_program(slot, batch=batch)
        else:
            program = cached_loopnest_for_slot(slot, batch=batch)
        total += backend.compile(program, target).latency_seconds
    return total


#: The independent work items of the case study, in table order.
_VARIANTS = ("original", "stacked_convolution", "operator1")


def _proxy_data(seed: int):
    dataset = SyntheticImageDataset(num_classes=10, num_samples=192, image_size=8, seed=seed)
    return dataset.split()


def _variant_points(
    steps: int, seed: int, target: HardwareTarget, variant: str
) -> list[CaseStudyPoint]:
    """Accuracy + latency point(s) of one variant (runs inside a shard).

    Accuracies are cached under a context that is a pure function of the
    budget, so serial and sharded runs — and repeated runs — agree exactly;
    latencies dedupe per program through the compile cache.
    """
    backend = TVMBackend(trials=current().config.tuning_trials(48))
    config = TrainingConfig(max_steps=steps, eval_every=max(steps // 2, 1))
    context = ("figure8", steps, seed, current().config.dtype_name())

    if variant == "original":

        def train_original_and_quantize() -> tuple[float, float]:
            seed_all(seed)
            train_set, val_set = _proxy_data(seed)
            model = resnet18(conv_factory=default_conv_factory)
            accuracy = Trainer(model, config).fit_classifier(train_set, val_set).best_accuracy
            quantized = quantize_model(model)
            quantized_acc = Trainer(quantized, config).evaluate_classifier(val_set)
            return accuracy, quantized_acc

        baseline_acc, quantized_acc = current().cached_baseline(
            (context, "original"), train_original_and_quantize
        )
        baseline_latency = LatencyEvaluator(
            slots=RESNET18_PROFILE, backend=backend, target=target
        ).baseline_latency()
        int8_latency = quantized_latency(RESNET18_PROFILE, target)
        return [
            CaseStudyPoint("original", baseline_acc, baseline_latency * 1e3),
            CaseStudyPoint("int8_quantized", quantized_acc, int8_latency * 1e3),
        ]

    if variant == "stacked_convolution":

        def train_stacked() -> float:
            seed_all(seed)
            train_set, val_set = _proxy_data(seed)
            model = resnet18(conv_factory=_stacked_conv_factory())
            return Trainer(model, config).fit_classifier(train_set, val_set).best_accuracy

        stacked_acc = current().cached_baseline((context, "stacked_convolution"), train_stacked)
        return [
            CaseStudyPoint(
                "stacked_convolution", stacked_acc, _stacked_latency(backend, target) * 1e3
            )
        ]

    assert variant == "operator1", variant
    operator1 = build_operator1()

    def train_operator1() -> float:
        seed_all(seed)
        train_set, val_set = _proxy_data(seed)
        factory = synthesized_conv_factory(
            operator1, coefficients=DEFAULT_COEFFICIENT_VALUES, seed=seed
        )
        model = resnet18(conv_factory=factory)
        return Trainer(model, config).fit_classifier(train_set, val_set).best_accuracy

    op1_acc = current().cached_reward(context, operator1.graph.signature(), train_operator1)
    op1_latency = LatencyEvaluator(
        slots=RESNET18_PROFILE, backend=backend, target=target,
        coefficients={K1: 3, GROUPS: 4, SHRINK: 4},
    ).substituted_latency(operator1)
    return [CaseStudyPoint("operator1", op1_acc, op1_latency * 1e3)]


def run(
    target: HardwareTarget = MOBILE_CPU,
    train_steps: int | None = None,
    seed: int = 0,
) -> Figure8Result:
    """Regenerate the case study (the variants shard over the context's ``shards``)."""
    steps = (
        train_steps
        if train_steps is not None
        else current().config.resolve_train_steps(full=40)
    )
    worker = functools.partial(_variant_points, steps, seed, target)
    groups = sharded_map(worker, _VARIANTS)
    return Figure8Result(
        target=target.name, points=[point for group in groups for point in group]
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
