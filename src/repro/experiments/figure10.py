"""Figure 10: GPT-2 language-modelling perplexity vs. training steps.

The paper substitutes the QKV projections of GPT-2 with a searched operator
(a grouped projection that lets Q, K and V learn from different features),
trains for 100,000 steps on lm1b, and reports both a ~1.1x training speedup
and a better final perplexity (99 vs. 111).  Here the tiny GPT-2 is trained
on the synthetic language task with and without the substitution, the loss
curves are recorded, and the training speedup is estimated from the tuned
latency of the projection operators at the real GPT-2 size (768 embedding
dimensions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.codegen.loopnest import lower_to_loopnest
from repro.compiler.backends import TVMBackend, linear_loopnest
from repro.compiler.targets import A100
from repro.core.library import GROUPS, K, K1, M, OUT_FEATURES, SHRINK, build_grouped_projection
from repro.experiments.runner import make_run_record
from repro.nn.data import SyntheticLanguageDataset
from repro.nn.models.gpt2 import GPT2, default_projection_factory, gpt2_tiny
from repro.nn.module import Module
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime import current
from repro.search.substitution import SynthesizedLinear


@dataclass
class Figure10Result:
    baseline_losses: list[float] = field(default_factory=list)
    syno_losses: list[float] = field(default_factory=list)
    baseline_perplexity: float = float("inf")
    syno_perplexity: float = float("inf")
    training_speedup: float = 1.0

    def to_table(self) -> str:
        return (
            f"baseline perplexity: {self.baseline_perplexity:.2f}\n"
            f"syno perplexity:     {self.syno_perplexity:.2f}\n"
            f"training speedup:    {self.training_speedup:.2f}x"
        )


def _perplexity(losses: list[float]) -> float:
    if not losses:
        return float("inf")
    tail = losses[-5:]
    return float(math.exp(min(sum(tail) / len(tail), 20.0)))


def _grouped_projection_factory(groups: int = 2, seed: int = 0):
    operator = build_grouped_projection()

    def factory(name: str, in_features: int, out_features: int) -> Module:
        return SynthesizedLinear(
            operator,
            in_features,
            out_features,
            coefficients={GROUPS: groups, SHRINK: 2, K1: 3},
        )

    return factory


def estimated_training_speedup(embed_dim: int = 768, seq_tokens: int = 1024, groups: int = 4) -> float:
    """Training-step speedup from cheaper QKV projections at real GPT-2 size.

    GPT-2's QKV projections are roughly a third of the per-layer FLOPs; the
    grouped projection cuts them by the group count.  The estimate compiles
    both versions for the A100 and assumes the rest of the step is unchanged.
    """
    backend = TVMBackend(trials=current().config.tuning_trials(32))
    baseline_program = linear_loopnest("qkv", seq_tokens, embed_dim, embed_dim)
    baseline = backend.compile(baseline_program, A100).latency_seconds * 3  # Q, K and V
    operator = build_grouped_projection()
    binding = {M: seq_tokens, K: embed_dim, OUT_FEATURES: embed_dim, GROUPS: groups}
    substituted_program = lower_to_loopnest(operator, binding)
    substituted = backend.compile(substituted_program, A100).latency_seconds * 3
    # Attention + MLP + other projections make up the rest of a block's time;
    # QKV is roughly 25% of it for GPT-2's dimensions.
    qkv_fraction = 0.25
    step_baseline = baseline / qkv_fraction
    step_substituted = step_baseline - baseline + substituted
    return step_baseline / step_substituted


def run(train_steps: int | None = None, seed: int = 0, groups: int = 2) -> Figure10Result:
    steps = (
        train_steps
        if train_steps is not None
        else current().config.resolve_train_steps(full=30)
    )
    dataset = SyntheticLanguageDataset(vocab_size=64, sequence_length=16, num_sequences=192, seed=seed)
    config = TrainingConfig(max_steps=steps, batch_size=8, learning_rate=3e-3, optimizer="adam")

    baseline = gpt2_tiny(projection_factory=default_projection_factory)
    baseline_result = Trainer(baseline, config).fit_language_model(dataset)

    substituted = gpt2_tiny(projection_factory=_grouped_projection_factory(groups=groups, seed=seed))
    syno_result = Trainer(substituted, config).fit_language_model(dataset)

    return Figure10Result(
        baseline_losses=baseline_result.loss_history,
        syno_losses=syno_result.loss_history,
        baseline_perplexity=_perplexity(baseline_result.loss_history),
        syno_perplexity=_perplexity(syno_result.loss_history),
        training_speedup=estimated_training_speedup(groups=4),
    )


#: Structured counterpart of :func:`run`: same execution through the shared
#: runner, returning a :class:`repro.results.ResultRecord` (see
#: :func:`repro.experiments.runner.make_run_record`).
run_record = make_run_record("figure10")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
