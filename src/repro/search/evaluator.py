"""Accuracy and latency evaluation of candidate operators.

``AccuracyEvaluator`` reproduces the paper's proxy-training step: substitute
the candidate into the backbone, train briefly on the (synthetic) proxy
dataset and report validation accuracy, terminating early for hopeless
candidates.  ``LatencyEvaluator`` reproduces the tuning step: lower every
slot's operator to a loop-nest program and compile it with the requested
backend for the requested hardware target, summing the per-layer latencies
into an end-to-end estimate.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.codegen.eager import LoweringError
from repro.codegen.loopnest import lower_to_loopnest
from repro.compiler.backends import CompilerBackend, TuneResult, loopnest_for_slot
from repro.compiler.targets import HardwareTarget
from repro.core.operator import SynthesizedOperator
from repro.ir.size import SizeError
from repro.ir.variables import Variable
from repro.nn.data import SyntheticImageDataset
from repro.nn.layers import seed_all
from repro.nn.models.common import ConvSlot
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime import RuntimeContext, current
from repro.search.extraction import (
    DEFAULT_COEFFICIENT_VALUES,
    binding_for_slot,
    slot_is_substitutable,
    substitutable_slots,
)
from repro.search.substitution import synthesized_conv_factory

log = logging.getLogger(__name__)


@dataclass
class EvaluationSettings:
    """Knobs shared by accuracy and latency evaluation.

    ``train_steps`` defaults to the ambient runtime config's budget
    (:meth:`~repro.runtime.RuntimeConfig.resolve_train_steps`); an explicit
    value always wins.
    """

    batch_size: int = 16
    train_steps: int = field(default_factory=lambda: current().config.resolve_train_steps())
    image_size: int = 8
    num_classes: int = 10
    dataset_size: int = 192
    dataset_seed: int = 0
    coefficients: Mapping[Variable, int] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENT_VALUES)
    )

    def cache_key(self, dtype: str | None = None) -> tuple:
        """Hashable description of every knob that influences a reward.

        The compute dtype is part of the key: float32 and float64 proxy
        training genuinely diverge numerically, so their rewards must never
        alias (the compiled-forward knob is deliberately absent — the plan
        and the interpreter agree to tolerance).  ``dtype`` defaults to the
        ambient context's compute dtype.
        """
        return (
            self.batch_size,
            self.train_steps,
            self.image_size,
            self.num_classes,
            self.dataset_size,
            self.dataset_seed,
            tuple(sorted(self.coefficients.items())),
            dtype if dtype is not None else current().config.dtype_name(),
        )


class AccuracyEvaluator:
    """Trains a backbone with the candidate operator substituted into it."""

    def __init__(
        self,
        model_builder: Callable,
        settings: EvaluationSettings | None = None,
        runtime: RuntimeContext | None = None,
    ) -> None:
        #: the runtime context this evaluator caches into; ``None`` resolves
        #: the ambient context per call (so ``with ctx.activate():`` works).
        self.runtime = runtime
        self.model_builder = model_builder
        self.settings = settings or EvaluationSettings()
        dataset = SyntheticImageDataset(
            num_classes=self.settings.num_classes,
            num_samples=self.settings.dataset_size,
            image_size=self.settings.image_size,
            seed=self.settings.dataset_seed,
        )
        self.train_set, self.val_set = dataset.split()
        self._baseline_accuracy: float | None = None
        builder_name = getattr(model_builder, "__qualname__", repr(model_builder))
        builder_module = getattr(model_builder, "__module__", "")
        # The dtype is baked into the evaluation context at construction so
        # rewards computed by this instance never alias across dtypes.
        self._context = (
            "accuracy", builder_module, builder_name,
            self.settings.cache_key(self._rt().config.dtype_name()),
        )

    def _rt(self) -> RuntimeContext:
        return self.runtime if self.runtime is not None else current()

    def _scope(self):
        """Evaluation scope: an explicitly threaded runtime becomes ambient.

        Training resolves the compute dtype (and plan compilation) through
        the ambient context, while this evaluator keys its rewards by its
        *own* context's dtype — so a threaded ``runtime`` must be active
        while the work runs, or the cached value and its key would disagree
        (and serial evaluation would diverge from sharded workers, which
        always activate the shipped context).
        """
        if self.runtime is None:
            return contextlib.nullcontext()
        return self.runtime.activate()

    def _train(self, conv_factory) -> float:
        # Each training run reseeds the substrate's parameter-initialization
        # RNG, making the result a pure function of (builder, factory,
        # settings) rather than of how many models were built earlier in the
        # process.  This is what lets rewards be computed in any order, in
        # any shard worker, and still agree bit-for-bit with a serial run.
        seed_all(self.settings.dataset_seed)
        model = self.model_builder(conv_factory=conv_factory, image_size=self.settings.image_size,
                                   num_classes=self.settings.num_classes)
        trainer = Trainer(
            model,
            TrainingConfig(
                max_steps=self.settings.train_steps,
                batch_size=self.settings.batch_size,
                eval_every=max(self.settings.train_steps // 2, 1),
            ),
        )
        return trainer.fit_classifier(self.train_set, self.val_set).best_accuracy

    def baseline_accuracy(self) -> float:
        """Accuracy of the unmodified backbone (computed once per context)."""
        if self._baseline_accuracy is None:
            from repro.nn.models.common import default_conv_factory

            with self._scope():
                self._baseline_accuracy = self._rt().cached_baseline(
                    self._context, lambda: self._train(default_conv_factory)
                )
        return self._baseline_accuracy

    def evaluate(self, operator: SynthesizedOperator, seed: int = 0) -> float:
        """Validation accuracy of the backbone with ``operator`` substituted in.

        Rewards are memoized process-wide by (evaluation context, canonical
        pGraph signature), so repeated searches and experiments over the same
        backbone never re-train the same candidate.
        """
        signature = operator.graph.signature()
        with self._scope():
            return self._rt().cached_reward(
                (self._context, seed), signature,
                lambda: self._evaluate_uncached(operator, seed),
            )

    def _evaluate_uncached(self, operator: SynthesizedOperator, seed: int) -> float:
        factory = synthesized_conv_factory(
            operator, coefficients=self.settings.coefficients, seed=seed
        )
        try:
            return self._train(factory)
        except (LoweringError, ValueError) as exc:
            # Operators that cannot be instantiated for some layer binding
            # (e.g. indivisible coefficient choices) receive zero reward.
            # Anything else propagates: a crash during training is a genuine
            # bug, not an invalid candidate.
            log.warning(
                "candidate received zero reward: %s (operator %s)",
                exc,
                operator.graph.signature(),
            )
            return 0.0

    def accuracy_loss(self, operator: SynthesizedOperator) -> float:
        return self.baseline_accuracy() - self.evaluate(operator)


@dataclass
class LatencyEvaluator:
    """End-to-end latency of a model under one compiler backend and target."""

    slots: Sequence[ConvSlot]
    backend: CompilerBackend
    target: HardwareTarget
    batch: int = 1
    coefficients: Mapping[Variable, int] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENT_VALUES)
    )
    #: runtime context to cache into; ``None`` resolves the ambient one per call.
    runtime: RuntimeContext | None = field(default=None, repr=False, compare=False)
    _baseline_latency: float | None = field(default=None, init=False, repr=False, compare=False)

    def _rt(self) -> RuntimeContext:
        return self.runtime if self.runtime is not None else current()

    def _scope(self):
        """Make a threaded ``runtime`` ambient while evaluating (see
        :meth:`AccuracyEvaluator._scope`)."""
        if self.runtime is None:
            return contextlib.nullcontext()
        return self.runtime.activate()

    def _compile(self, program) -> TuneResult:
        return self.backend.compile(program, self.target, runtime=self.runtime)

    def baseline_latency(self) -> float:
        """Latency (seconds) of the original model: every slot is a standard conv.

        Memoized per instance and context-wide by (slots, backend config,
        target, batch): the baseline does not depend on any candidate, so
        per-candidate evaluator instances all share one computation.
        """
        if self._baseline_latency is None:
            context = (
                "latency",
                tuple(self.slots),
                self.backend.config_key(),
                self.target,
                self.batch,
            )
            with self._scope():
                self._baseline_latency = self._rt().cached_baseline(
                    context, self._baseline_latency_uncached
                )
        return self._baseline_latency

    def _baseline_latency_uncached(self) -> float:
        total = 0.0
        for slot in self.slots:
            program = loopnest_for_slot(slot, batch=self.batch)
            total += self._compile(program).latency_seconds
        return total

    def _slot_program(self, slot: ConvSlot, operator: SynthesizedOperator | None):
        """The loop-nest program executed at one slot (operator or standard conv).

        Slots where the operator cannot be instantiated (non-substitutable
        kinds, or channel counts the coefficient values do not divide) keep
        their standard convolution, like the paper's per-model substitution.
        """
        if operator is not None and slot_is_substitutable(slot):
            binding = binding_for_slot(slot, self.batch, self.coefficients)
            try:
                return lower_to_loopnest(operator, binding)
            except SizeError as exc:
                # The (operator, slot) pairing has no integral sizes — e.g. a
                # coefficient that does not divide this slot's channels.  The
                # slot keeps its standard convolution, which is the paper's
                # behavior for non-substitutable slots, but the skip is
                # logged so a systematically failing operator is visible.
                # Any other exception is a lowering bug and propagates.
                log.debug(
                    "operator not lowerable at slot %s (%s); keeping the "
                    "standard convolution", slot, exc,
                )
        return loopnest_for_slot(slot, batch=self.batch)

    def substituted_latency(self, operator: SynthesizedOperator) -> float:
        """Latency with ``operator`` substituted into every standard 3x3 slot."""
        total = 0.0
        with self._scope():
            for slot in self.slots:
                program = self._slot_program(slot, operator)
                total += self._compile(program).latency_seconds
        return total

    def speedup(self, operator: SynthesizedOperator) -> float:
        return self.baseline_latency() / max(self.substituted_latency(operator), 1e-12)

    def layerwise(self, operator: SynthesizedOperator) -> list[tuple[ConvSlot, TuneResult, TuneResult]]:
        """Per-slot (baseline, substituted) tuning results — used by Figure 9."""
        results = []
        for slot in substitutable_slots(self.slots):
            baseline = self._compile(loopnest_for_slot(slot, batch=self.batch))
            binding = binding_for_slot(slot, self.batch, self.coefficients)
            substituted = self._compile(lower_to_loopnest(operator, binding))
            results.append((slot, baseline, substituted))
        return results

    def macs(self, operator: SynthesizedOperator | None = None) -> int:
        """Total MACs of the substitutable slots (original or substituted)."""
        total = 0
        for slot in substitutable_slots(self.slots):
            if operator is None:
                total += slot.macs(self.batch)
                continue
            binding = binding_for_slot(slot, self.batch, self.coefficients)
            try:
                total += lower_to_loopnest(operator, binding).macs
            except SizeError:
                # Slots the coefficients do not divide keep their standard conv.
                total += slot.macs(self.batch)
        return total
