"""Figure 6: accuracy-vs-latency Pareto curves on ImageNet.

For every model the paper plots the baseline (hollow point) and the Syno
candidates' (accuracy, inference time) points, per target and compiler.
Accuracy here comes from training the tiny backbone instances on the
synthetic ImageNet-proxy task (more classes / samples than the CIFAR-proxy
used during search); latency comes from the ImageNet-scale layer profiles.

The proxy trainings — one per (model, candidate-or-baseline) pair — are
independent work items executed through
:func:`repro.search.parallel.sharded_map` under ``REPRO_SEARCH_SHARDS``;
each item reseeds the parameter-initialization RNG, so accuracies are pure
functions of the pair and a sharded run matches a serial run exactly.
Latency tuning stays in the parent process (it dedupes through the compile
cache).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from repro.compiler.backends import TVMBackend
from repro.compiler.targets import A100, HardwareTarget
from repro.experiments.common import Candidate, syno_candidates
from repro.nn.data import SyntheticImageDataset
from repro.nn.layers import seed_all
from repro.nn.models.common import default_conv_factory
from repro.nn.models.densenet import densenet121
from repro.nn.models.efficientnet import efficientnet_v2_s
from repro.nn.models.gpt2 import gpt2_tiny
from repro.nn.models.profiles import MODEL_PROFILES
from repro.nn.models.resnet import resnet18, resnet34
from repro.nn.models.resnext import resnext29
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime import current
from repro.search.evaluator import LatencyEvaluator
from repro.search.extraction import DEFAULT_COEFFICIENT_VALUES
from repro.search.parallel import sharded_map
from repro.search.substitution import synthesized_conv_factory


#: Backbone name -> builder of its tiny, trainable instance.
MODEL_BUILDERS = {
    "resnet18": resnet18,
    "resnet34": resnet34,
    "densenet121": densenet121,
    "resnext29_2x64d": resnext29,
    "efficientnet_v2_s": efficientnet_v2_s,
    "gpt2": gpt2_tiny,
}


def _train_steps(default: int = 40) -> int:
    return current().config.resolve_train_steps(full=default)


@dataclass
class ParetoPoint:
    model: str
    candidate: str          #: "baseline" or the candidate operator's name
    accuracy: float
    latency_ms: float


@dataclass
class Figure6Result:
    points: list[ParetoPoint] = field(default_factory=list)

    def pareto_front(self, model: str) -> list[ParetoPoint]:
        """Points not dominated in (higher accuracy, lower latency)."""
        candidates = [p for p in self.points if p.model == model]
        front = []
        for point in candidates:
            dominated = any(
                other.accuracy >= point.accuracy and other.latency_ms < point.latency_ms
                for other in candidates
                if other is not point
            )
            if not dominated:
                front.append(point)
        return sorted(front, key=lambda p: p.latency_ms)

    def to_table(self) -> str:
        lines = [f"{'model':22s} {'candidate':18s} {'accuracy':>9s} {'latency(ms)':>12s}"]
        for point in self.points:
            lines.append(
                f"{point.model:22s} {point.candidate:18s} {point.accuracy:9.3f} {point.latency_ms:12.3f}"
            )
        return "\n".join(lines)


def _train_accuracy_task(
    steps: int, seed: int, task: tuple[str, Candidate | None]
) -> float:
    """Proxy-training accuracy of one (model, candidate-or-baseline) pair.

    Runs inside a shard worker.  Accuracies are memoized process-wide: the
    context captures the backbone and training budget, the key the
    candidate's pGraph signature (candidates sharing an operator train once,
    and repeated runs at the same budget train nothing); worker-side entries
    merge back into the parent.
    """
    model, candidate = task
    context = ("figure6", model, steps, seed, current().config.dtype_name())

    def train() -> float:
        # Reseed so the accuracy is a pure function of this task — not of
        # which trainings happened to run earlier, or in which process.
        seed_all(seed)
        dataset = SyntheticImageDataset(num_classes=10, num_samples=256, image_size=8, seed=seed)
        train_set, val_set = dataset.split()
        config = TrainingConfig(max_steps=steps, eval_every=max(steps // 2, 1))
        factory = (
            default_conv_factory
            if candidate is None
            else synthesized_conv_factory(
                candidate.operator, coefficients=DEFAULT_COEFFICIENT_VALUES, seed=seed
            )
        )
        instance = MODEL_BUILDERS[model](conv_factory=factory)
        return Trainer(instance, config).fit_classifier(train_set, val_set).best_accuracy

    if candidate is None:
        return current().cached_baseline((context, "baseline"), train)
    return current().cached_reward(context, candidate.operator.graph.signature(), train)


def run(
    models: Sequence[str] | None = None,
    candidates: Sequence[Candidate] | None = None,
    target: HardwareTarget = A100,
    train_steps: int | None = None,
    seed: int = 0,
) -> Figure6Result:
    """Regenerate the Pareto points (one target/backend by default for speed).

    The trainings shard over the runtime context's ``shards``; the point set
    is identical at any shard count.
    """
    models = list(models) if models is not None else ["resnet18", "resnet34"]
    candidates = list(candidates) if candidates is not None else syno_candidates()[:2] + syno_candidates()[3:4]
    steps = train_steps if train_steps is not None else _train_steps()
    backend = TVMBackend(trials=current().config.tuning_trials(48))

    # One task per distinct reward-cache key: candidates wrapping the same
    # operator (e.g. operator1 at two coefficient settings) train once even
    # when sharded — separate shards cannot see each other's in-flight work,
    # so the dedup must happen before partitioning, not at cache-merge time.
    tasks: dict[tuple[str, str], tuple[str, Candidate | None]] = {}
    for model in models:
        for candidate in [None, *candidates]:
            key = (
                model,
                candidate.operator.graph.signature() if candidate else "baseline",
            )
            tasks.setdefault(key, (model, candidate))
    worker = functools.partial(_train_accuracy_task, steps, seed)
    by_signature = dict(zip(tasks, sharded_map(worker, list(tasks.values()))))

    result = Figure6Result()
    for model in models:
        slots = MODEL_PROFILES[model]
        latency_eval = LatencyEvaluator(slots=slots, backend=backend, target=target, batch=1)
        result.points.append(
            ParetoPoint(
                model,
                "baseline",
                by_signature[(model, "baseline")],
                latency_eval.baseline_latency() * 1e3,
            )
        )
        for candidate in candidates:
            evaluator = LatencyEvaluator(
                slots=slots, backend=backend, target=target, batch=1,
                coefficients=candidate.coefficients,
            )
            latency_ms = evaluator.substituted_latency(candidate.operator) * 1e3
            accuracy = by_signature[(model, candidate.operator.graph.signature())]
            result.points.append(ParetoPoint(model, candidate.name, accuracy, latency_ms))
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
