"""The end-to-end search session (Algorithm 1, ``Search``).

A :class:`SearchSession` ties everything together for one backbone model:

1. extract the conv slots and build the symbolic operator spec;
2. run MCTS over the primitive space, rewarding candidates by proxy-training
   accuracy under a hard MACs budget;
3. keep the candidates whose accuracy loss is within the margin (the paper
   uses 1%) and evaluate their end-to-end latency on every requested
   (compiler, target) pair;
4. report the Pareto-relevant candidates sorted by latency.

Evaluation work is shared through the runtime context's caches
(:class:`repro.runtime.CacheSet`): rewards are keyed by the accuracy
evaluator's context (passed to MCTS as ``cache_context``), compilations by the program's
structural key, and one latency evaluator is hoisted per (backend, target)
pair so each baseline compiles exactly once per session.

Every runtime knob — shard count, frontier width, warm start, seed — comes
from the session's runtime context.  Both halves of the session shard
across its ``shards`` worker processes: MCTS reward waves and candidate
latency evaluation go through :func:`repro.search.parallel.sharded_map`,
with worker caches merged back deterministically — a sharded session's
results are bit-identical to the serial ones.  Unsharded, candidate latency
evaluation can fan out through the older ``eval_processes`` fan-out (which
does not merge caches back); the experiment runner and CLI
(:mod:`repro.experiments.runner`, :mod:`repro.cli`) persist the caches
across processes.

A session accepts an explicit :class:`repro.runtime.RuntimeContext`
(``SearchSession(..., runtime=ctx)``); without one it resolves the ambient
context (:func:`repro.runtime.current`), so ``with ctx.activate():`` scopes
a whole session.  Two sessions with different contexts coexist in one
process with fully isolated caches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compiler.backends import CompilerBackend, TVMBackend
from repro.compiler.targets import HardwareTarget, MOBILE_CPU
from repro.core.enumeration import EnumerationOptions, default_options_for
from repro.core.mcts import MCTS, MCTSConfig, SampleRecord
from repro.core.operator import OperatorSpec, SynthesizedOperator
from repro.runtime import RuntimeContext, current
from repro.search.evaluator import AccuracyEvaluator, EvaluationSettings, LatencyEvaluator
from repro.search.parallel import fan_out
from repro.search.extraction import (
    VISION_COEFFICIENTS,
    conv_spec_from_slots,
    extract_conv_slots,
    original_macs,
)


@dataclass
class SearchConfig:
    """Hyper-parameters of one search session.

    Runtime knobs are not here: the shard count, MCTS frontier width, warm
    start and seed come from the session's
    :class:`~repro.runtime.RuntimeConfig`.
    """

    max_depth: int = 8
    mcts_iterations: int = 24
    #: hard MACs budget as a multiple of the original convolutions' MACs.
    macs_budget_ratio: float = 1.0
    #: admissible accuracy loss relative to the baseline (the paper uses 1%).
    accuracy_margin: float = 0.01
    evaluation: EvaluationSettings = field(default_factory=EvaluationSettings)


@dataclass
class CandidateResult:
    """One evaluated candidate: accuracy and per-(backend, target) latencies."""

    operator: SynthesizedOperator
    accuracy: float
    accuracy_loss: float
    macs: int
    parameters: int
    latencies: dict[tuple[str, str], float] = field(default_factory=dict)
    speedups: dict[tuple[str, str], float] = field(default_factory=dict)

    def best_speedup(self) -> float:
        return max(self.speedups.values(), default=0.0)


class SearchSession:
    """Searches substitutions for one backbone model (Algorithm 1)."""

    def __init__(
        self,
        model_builder: Callable,
        config: SearchConfig | None = None,
        backends: Sequence[CompilerBackend] | None = None,
        targets: Sequence[HardwareTarget] | None = None,
        runtime: RuntimeContext | None = None,
    ) -> None:
        #: the runtime context this session evaluates and caches under;
        #: ``None`` resolves the ambient context per call.
        self.runtime = runtime
        self.model_builder = model_builder
        self.config = config or SearchConfig()
        self.backends = list(backends) if backends is not None else [TVMBackend(trials=32)]
        self.targets = list(targets) if targets is not None else [MOBILE_CPU]

        self.slots = extract_conv_slots(
            model_builder,
            image_size=self.config.evaluation.image_size,
            num_classes=self.config.evaluation.num_classes,
        )
        self.spec: OperatorSpec = conv_spec_from_slots(
            self.slots,
            batch=self.config.evaluation.batch_size,
            coefficients=self.config.evaluation.coefficients,
        )
        self.accuracy_evaluator = AccuracyEvaluator(
            model_builder, self.config.evaluation, runtime=runtime
        )
        self.original_macs = original_macs(self.slots, batch=self.config.evaluation.batch_size)
        #: one latency evaluator per (backend, target), created on first use so
        #: the baseline latency is compiled exactly once per pair per session.
        self._latency_evaluators: dict[tuple[str, str], LatencyEvaluator] = {}

    def _rt(self) -> RuntimeContext:
        return self.runtime if self.runtime is not None else current()

    # -- synthesis ----------------------------------------------------------

    def enumeration_options(self) -> EnumerationOptions:
        options = default_options_for(
            self.spec,
            coefficients=VISION_COEFFICIENTS,
            max_depth=self.config.max_depth,
            macs_budget_ratio=self.config.macs_budget_ratio,
            reference_macs=self.original_macs
            // max(len([s for s in self.slots if s.kernel_size == 3 and s.groups == 1]), 1),
        )
        return options

    def run(self, iterations: int | None = None) -> list[CandidateResult]:
        """Run the MCTS search and return accuracy-qualified candidates.

        Reward waves and candidate latency evaluation shard across the
        runtime context's ``shards`` worker processes; the results are
        bit-identical to a serial run with the same seed.  With the
        context's ``warm_start`` on, the root frontier is seeded from a graph
        library covering the spec, when one exists.
        """
        runtime = self._rt()
        # The bound method (not a lambda) so the reward function can cross
        # the process boundary when reward waves are sharded.
        reward_fn = self.accuracy_evaluator.evaluate
        plan = None
        if runtime.config.warm_start:
            # Lazy import: repro.library.builder pulls the shard executor,
            # whose module chain imports this one.
            from repro.library.warmstart import plan_warm_start

            plan = plan_warm_start(
                self.spec, cache_context=self.accuracy_evaluator._context, runtime=runtime
            )
        search = MCTS(
            spec=self.spec,
            options=self.enumeration_options(),
            reward_fn=reward_fn,
            config=MCTSConfig(
                iterations=iterations if iterations is not None else self.config.mcts_iterations,
                batch_size=runtime.config.frontier_width,
                # Share rewards with every search over the same backbone and
                # evaluation settings (the evaluator's cache context).
                cache_context=self.accuracy_evaluator._context,
                root_priority=plan.root_priority if plan is not None else (),
            ),
            runtime=self.runtime,
        )
        samples = search.run()
        if plan is not None:
            # Publish this session's proxy-training results back to the
            # library's sidecar so later runs reuse them by signature.
            from repro.library.warmstart import export_rewards

            export_rewards(
                {record.operator.graph.signature(): record.reward for record in samples},
                name=plan.name,
                cache_context=self.accuracy_evaluator._context,
                runtime=runtime,
            )
        return self.evaluate_candidates(samples)

    # -- evaluation ----------------------------------------------------------

    def evaluate_candidates(self, samples: Sequence[SampleRecord]) -> list[CandidateResult]:
        """Latency-evaluate the accuracy-qualified samples.

        The per-candidate evaluation fans out through
        :func:`repro.search.parallel.fan_out` under the session's context:
        over its shards, merging their compile-cache entries back, or else
        over its ``eval_processes``, whose workers' caches are discarded.
        """
        baseline = self.accuracy_evaluator.baseline_accuracy()
        qualified = [
            record
            for record in samples
            if baseline - record.reward <= self.config.accuracy_margin
        ]
        # ``partial`` keeps the session on the callable, so it crosses the
        # process boundary once per worker chunk instead of once per record.
        worker = functools.partial(_evaluate_sample, self)
        results = fan_out(worker, qualified, runtime=self.runtime)
        results.sort(key=lambda result: min(result.latencies.values(), default=float("inf")))
        return results

    def _latency_evaluator(self, backend: CompilerBackend, target: HardwareTarget) -> LatencyEvaluator:
        key = (backend.name, target.name)
        evaluator = self._latency_evaluators.get(key)
        if evaluator is None:
            evaluator = LatencyEvaluator(
                slots=self.slots,
                backend=backend,
                target=target,
                batch=1,
                coefficients=self.config.evaluation.coefficients,
                runtime=self.runtime,
            )
            # Hoisted out of the per-candidate loop: the baseline is a property
            # of the (backend, target) pair, so compile it exactly once here.
            evaluator.baseline_latency()
            self._latency_evaluators[key] = evaluator
        return evaluator

    def evaluate_operator(
        self, operator: SynthesizedOperator, accuracy: float | None = None
    ) -> CandidateResult:
        """Latency-evaluate one operator across every (backend, target) pair."""
        if accuracy is None:
            accuracy = self.accuracy_evaluator.evaluate(operator)
        baseline_accuracy = self.accuracy_evaluator.baseline_accuracy()
        binding = dict(self.spec.bindings[0]) if self.spec.bindings else {}
        result = CandidateResult(
            operator=operator,
            accuracy=accuracy,
            accuracy_loss=baseline_accuracy - accuracy,
            macs=operator.macs(binding),
            parameters=operator.parameter_count(binding),
        )
        for backend in self.backends:
            for target in self.targets:
                evaluator = self._latency_evaluator(backend, target)
                latency = evaluator.substituted_latency(operator)
                key = (backend.name, target.name)
                result.latencies[key] = latency
                result.speedups[key] = evaluator.baseline_latency() / max(latency, 1e-12)
        return result


def _evaluate_sample(session: "SearchSession", record: SampleRecord) -> CandidateResult:
    """Module-level worker so the parallel map can pickle it under fork."""
    return session.evaluate_operator(record.operator, accuracy=record.reward)
