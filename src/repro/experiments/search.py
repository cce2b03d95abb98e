"""``search``: one end-to-end MCTS search session as a registry experiment.

Every other registered experiment evaluates *fixed* candidates (figure 5
substitutes known operators, figure 10 trains the hand-built grouped
projection); this one runs the real Algorithm 1 loop against the GPT-2 QKV
projection slot (Section 9.3): batched MCTS over the matmul space, each
terminal candidate rewarded by proxy-training the tiny GPT-2 with the
candidate substituted into every QKV projection via
:class:`~repro.search.substitution.SynthesizedLinear`.  It exists so the
serving layer (:mod:`repro.serve`) has a registered experiment whose reward
waves actually flow through the frontier: concurrent ``repro serve``
requests running ``search`` coalesce their waves across clients, and the
baseline proxy training is computed once per warm cache set.

The projection slot — not the conv slot — is the search target because the
matmul space is *dense* in feasible programs at small depth: rollouts
complete and produce rewards.  (The conv spec's shape constraints prune
essentially every random rollout before completion, which would make every
wave empty.)

Determinism contract: the result — and therefore the stored record's
fingerprint — is a pure function of ``(iterations, max_depth, seed, training
budget, dtype)``.  The MCTS wave composition depends only on the seed and
the frontier width, never on how, where, or whether rewards were cached, so
serial runs, sharded runs and coalesced serve-side runs of the same request
are bit-identical.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.codegen.eager import LoweringError
from repro.codegen.loopnest import cached_loopnest
from repro.compiler.backends import TVMBackend, linear_loopnest
from repro.compiler.targets import A100
from repro.core.library import GROUPS
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.operator import SynthesizedOperator
from repro.ir.size import SizeError
from repro.library.specs import gpt2_projection_space
from repro.library.warmstart import export_rewards, plan_warm_start
from repro.nn.data import SyntheticLanguageDataset
from repro.nn.layers import seed_all
from repro.nn.models.gpt2 import default_projection_factory, gpt2_tiny
from repro.nn.module import Module
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime import current
from repro.search.substitution import SynthesizedLinear

log = logging.getLogger(__name__)

#: gpt2_tiny's dimensions (fixed by :func:`repro.nn.models.gpt2.gpt2_tiny`).
EMBED_DIM = 32
VOCAB_SIZE = 64
SEQUENCE_LENGTH = 16

#: proxy-training shape: rows seen by each QKV projection per batch.
BATCH_SIZE = 8
DATASET_SIZE = 192

#: worst-case cross-entropy plugged in when a loss history is empty; also
#: the clamp that keeps ``exp`` finite in the perplexity readout.
_MAX_LOSS = 20.0


class ProjectionEvaluator:
    """Rewards a candidate by proxy-training GPT-2 with it substituted in.

    Instances are plain picklable values so waves can fan out across shard
    processes: the reward of a candidate is a pure function of the settings
    captured here plus the operator itself.  Mirrors the idioms of
    :class:`repro.search.evaluator.AccuracyEvaluator` — reseed before every
    model build so rewards are order-independent, zero reward for invalid
    candidates, anything else propagates (a crash during training is a
    genuine bug, not a bad candidate).
    """

    def __init__(self, train_steps: int, dataset_seed: int = 0, dtype: str | None = None) -> None:
        self.train_steps = train_steps
        self.dataset_seed = dataset_seed
        self.coefficients = {GROUPS: 2}
        dtype = dtype if dtype is not None else current().config.dtype_name()
        #: process-wide reward-cache context: every knob that influences a
        #: reward, so concurrent serve requests with the same budget share
        #: rewards and different budgets never alias.
        self.context = (
            "projection-search",
            VOCAB_SIZE,
            SEQUENCE_LENGTH,
            BATCH_SIZE,
            DATASET_SIZE,
            self.train_steps,
            self.dataset_seed,
            tuple(sorted((var.name, value) for var, value in self.coefficients.items())),
            dtype,
        )

    # -- training ----------------------------------------------------------

    def _dataset(self) -> SyntheticLanguageDataset:
        return SyntheticLanguageDataset(
            vocab_size=VOCAB_SIZE,
            sequence_length=SEQUENCE_LENGTH,
            num_sequences=DATASET_SIZE,
            seed=self.dataset_seed,
        )

    def _train(self, projection_factory) -> float:
        """Proxy-train one model; returns the tail training loss."""
        # Reseed before building so initial weights — and hence the loss —
        # depend only on the factory, never on evaluation order.
        seed_all(self.dataset_seed)
        model = gpt2_tiny(
            projection_factory=projection_factory,
            vocab_size=VOCAB_SIZE,
            max_seq_len=SEQUENCE_LENGTH,
        )
        result = Trainer(
            model,
            TrainingConfig(
                max_steps=self.train_steps,
                batch_size=BATCH_SIZE,
                learning_rate=3e-3,
                optimizer="adam",
            ),
        ).fit_language_model(self._dataset())
        tail = result.loss_history[-5:]
        if not tail:
            return _MAX_LOSS
        return min(sum(tail) / len(tail), _MAX_LOSS)

    # -- rewards -----------------------------------------------------------

    def baseline_reward(self) -> float:
        """Reward of the unsubstituted model (dense QKV projections).

        Memoized per cache set via ``cached_baseline`` — under ``repro
        serve`` this is the training N concurrent clients amortize down to
        one.
        """
        return current().cached_baseline(
            self.context, lambda: _loss_reward(self._train(default_projection_factory))
        )

    def evaluate(self, operator: SynthesizedOperator) -> float:
        """Reward in [0, 1]; invalid candidates (unlowerable) score 0."""

        def factory(name: str, in_features: int, out_features: int) -> Module:
            return SynthesizedLinear(
                operator, in_features, out_features, coefficients=self.coefficients
            )

        try:
            return _loss_reward(self._train(factory))
        except (LoweringError, ValueError) as exc:
            log.warning(
                "candidate %s received zero reward: %s",
                operator.graph.signature(),
                exc,
            )
            return 0.0


def _loss_reward(loss: float) -> float:
    """Monotone-decreasing map from training loss to a reward in (0, 1]."""
    return 1.0 / (1.0 + max(loss, 0.0))


def _reward_perplexity(reward: float) -> float:
    """Invert :func:`_loss_reward` and exponentiate (clamped like figure 10)."""
    if reward <= 0.0:
        return float(math.exp(_MAX_LOSS))
    loss = min(1.0 / reward - 1.0, _MAX_LOSS)
    return float(math.exp(loss))


@dataclass
class CandidateRecord:
    """One accuracy-qualified candidate with its compiled latency readout."""

    signature: str
    reward: float
    perplexity: float
    macs: int
    speedup: float


@dataclass
class SearchRunResult:
    """Outcome of one search session: the qualified candidates, best first."""

    model: str
    iterations: int
    max_depth: int
    seed: int
    train_steps: int
    baseline_reward: float
    baseline_perplexity: float
    evaluations: int
    candidates: list[CandidateRecord] = field(default_factory=list)

    def best(self) -> CandidateRecord | None:
        """The highest-speedup qualified candidate."""
        return self.candidates[0] if self.candidates else None

    def to_table(self) -> str:
        lines = [
            f"search over {self.model} QKV projections: {self.iterations} iterations, "
            f"depth {self.max_depth}, seed {self.seed}, {self.train_steps} proxy steps "
            f"(baseline reward {self.baseline_reward:.4f}, "
            f"{self.evaluations} candidate(s) trained)",
            f"{'candidate':40s} {'reward':>8s} {'ppl':>10s} {'macs':>10s} {'speedup':>8s}",
        ]
        for record in self.candidates:
            label = (
                record.signature
                if len(record.signature) <= 40
                else record.signature[:37] + "..."
            )
            lines.append(
                f"{label:40s} {record.reward:8.4f} {record.perplexity:10.2f} "
                f"{record.macs:10d} {record.speedup:8.2f}"
            )
        if not self.candidates:
            lines.append("(no candidate within the accuracy margin)")
        return "\n".join(lines)


def run(
    iterations: int | None = None,
    max_depth: int | None = None,
    seed: int | None = None,
) -> SearchRunResult:
    """Search QKV projection substitutions for GPT-2 and qualify the best.

    ``seed`` pins the MCTS trajectory (``None`` inherits the runtime
    context's root seed, so ``--seed``/``REPRO_SEED`` steer it like every
    other seeded component); ``iterations``, ``max_depth`` and the proxy
    training budget shrink under smoke mode.  Shard counts and the serving
    layer's wave coalescer change where rewards are computed, never what
    they are.
    """
    config = current().config
    iterations = iterations if iterations is not None else config.smoke_value(24, 16)
    max_depth = max_depth if max_depth is not None else config.smoke_value(4, 3)
    train_steps = current().config.resolve_train_steps(full=12, smoke=3)
    evaluator = ProjectionEvaluator(train_steps=train_steps)

    rows = BATCH_SIZE * SEQUENCE_LENGTH
    # The spec and enumeration options come from the slot-family registry so
    # the ahead-of-time library (``repro library build gpt2``) describes
    # exactly the space this search explores.  No coefficient sizes: the
    # grouped merge/reduce steps they add lead random rollouts into shapes
    # that cannot complete within the depth limit, starving the frontier.
    space = gpt2_projection_space(max_depth=max_depth)
    spec = space.spec
    options = space.options
    binding = space.binding
    # Warm start (opt-in, ``REPRO_WARM_START``): expand the root toward the
    # library's best-known regions first and seed the reward cache from the
    # sidecar.  Leaves the RNG stream — and cold-run fingerprints — intact.
    plan = None
    if config.warm_start:
        plan = plan_warm_start(spec, cache_context=evaluator.context, name=space.name)
    search = MCTS(
        spec=spec,
        options=options,
        reward_fn=evaluator.evaluate,
        config=MCTSConfig(
            iterations=iterations,
            seed=seed,
            batch_size=config.frontier_width,
            cache_context=evaluator.context,
            root_priority=plan.root_priority if plan is not None else (),
        ),
    )
    samples = search.run()
    if plan is not None:
        # Publish fresh proxy-training rewards back to the library sidecar
        # so the next warm-started run skips re-training these candidates.
        export_rewards(
            {sample.operator.graph.signature(): sample.reward for sample in samples},
            name=plan.name,
            cache_context=evaluator.context,
        )
    baseline = evaluator.baseline_reward()

    backend = TVMBackend(trials=config.tuning_trials(32))
    baseline_latency = backend.compile(
        linear_loopnest("qkv", rows, EMBED_DIM, EMBED_DIM), A100
    ).latency_seconds
    margin = 0.02
    candidates: list[CandidateRecord] = []
    for sample in samples:
        if baseline - sample.reward > margin:
            continue
        operator = sample.operator
        try:
            program = cached_loopnest(operator, binding)
        except SizeError as exc:
            # The candidate has no integral sizes at this slot, so it gets no
            # latency row.  Any other exception is a lowering bug and
            # propagates.
            log.warning(
                "qualified candidate %s does not lower to a loop nest: %s",
                operator.graph.signature(),
                exc,
            )
            continue
        latency = backend.compile(program, A100).latency_seconds
        candidates.append(
            CandidateRecord(
                signature=operator.graph.signature(),
                reward=sample.reward,
                perplexity=_reward_perplexity(sample.reward),
                macs=operator.macs(binding),
                speedup=baseline_latency / max(latency, 1e-12),
            )
        )
    candidates.sort(key=lambda record: (-record.speedup, -record.reward, record.signature))
    return SearchRunResult(
        model="gpt2_tiny",
        iterations=iterations,
        max_depth=max_depth,
        seed=seed if seed is not None else config.seed,
        train_steps=train_steps,
        baseline_reward=baseline,
        baseline_perplexity=_reward_perplexity(baseline),
        evaluations=len(samples),
        candidates=candidates,
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
