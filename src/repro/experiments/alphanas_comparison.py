"""Section 9.2: comparison with αNAS (FLOPs reduction and speedup).

αNAS reports about 25% fewer FLOPs and ~12% training speedup within 2%
accuracy loss on ResNet-50 / EfficientNet-B0.  The paper contrasts this with
Syno's 63% / 37% FLOPs reductions and 56% / 12% A100 inference speedups on
ResNet-34 / EfficientNetV2-S.  ``run`` computes both sides from the same
machinery: the coarse αNAS-style substitution pass, and the best Syno
candidate's FLOPs/latency on the same models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.alphanas import alphanas_substitution
from repro.compiler.backends import TVMBackend
from repro.compiler.targets import A100
from repro.experiments.common import syno_candidates
from repro.nn.models.profiles import MODEL_PROFILES
from repro.runtime import current
from repro.search.evaluator import LatencyEvaluator


@dataclass
class ComparisonRow:
    model: str
    alphanas_flops_reduction: float
    alphanas_training_speedup: float
    syno_flops_reduction: float
    syno_inference_speedup: float


@dataclass
class AlphaNASComparisonResult:
    rows: list[ComparisonRow] = field(default_factory=list)

    def to_table(self) -> str:
        lines = [f"{'model':20s} {'aNAS dFLOPs':>12s} {'aNAS speedup':>13s} "
                 f"{'Syno dFLOPs':>12s} {'Syno speedup':>13s}"]
        for row in self.rows:
            lines.append(
                f"{row.model:20s} {row.alphanas_flops_reduction:11.0%} "
                f"{row.alphanas_training_speedup:12.2f}x {row.syno_flops_reduction:11.0%} "
                f"{row.syno_inference_speedup:12.2f}x"
            )
        return "\n".join(lines)


def run(models: tuple[str, ...] = ("resnet34", "efficientnet_v2_s")) -> AlphaNASComparisonResult:
    backend = TVMBackend(trials=current().config.tuning_trials(48))
    result = AlphaNASComparisonResult()
    for model in models:
        slots = MODEL_PROFILES[model]
        alphanas = alphanas_substitution(slots)

        best_reduction = 0.0
        best_speedup = 0.0
        for candidate in syno_candidates():
            evaluator = LatencyEvaluator(
                slots=slots, backend=backend, target=A100, coefficients=candidate.coefficients
            )
            original = evaluator.macs(None)
            substituted = evaluator.macs(candidate.operator)
            reduction = 1.0 - substituted / max(original, 1)
            speedup = evaluator.speedup(candidate.operator)
            if speedup > best_speedup:
                best_speedup = speedup
                best_reduction = reduction
        result.rows.append(
            ComparisonRow(
                model=model,
                alphanas_flops_reduction=alphanas.flops_reduction,
                alphanas_training_speedup=alphanas.estimated_training_speedup,
                syno_flops_reduction=best_reduction,
                syno_inference_speedup=best_speedup,
            )
        )
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
