"""Figure 5: end-to-end speedups of Syno-optimized models on CIFAR-100.

The paper reports, for five vision models on three platforms and two
compilers, the speedup of the best Syno-substituted model (within 1% accuracy
loss) over the original model.  ``run`` regenerates that table: for every
(model, target, compiler) it selects the fastest candidate operator and
reports its speedup over the standard-convolution baseline, plus the geomean
per (target, compiler) pair that the abstract quotes (2.06x / 1.72x / 1.47x
for TVM and 1.37x / 1.62x / 1.60x for TorchInductor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.experiments.common import (
    ALL_TARGETS,
    Candidate,
    ModelEvaluation,
    both_backends,
    evaluate_model,
    syno_candidates,
)
from repro.experiments.runner import make_run_record
from repro.nn.models.profiles import MODEL_PROFILES
from repro.runtime import current

#: Under REPRO_SMOKE=1 only the models the headline claims need are costed
#: (the deep DenseNet/ResNeXt profiles dominate the full run's wall clock).
SMOKE_MODELS = ("resnet18", "resnet34", "efficientnet_v2_s")


@dataclass
class Figure5Row:
    """One bar group of Figure 5."""

    model: str
    target: str
    backend: str
    baseline_ms: float
    best_candidate: str
    best_ms: float
    speedup: float


@dataclass
class Figure5Result:
    rows: list[Figure5Row] = field(default_factory=list)

    def geomean_speedup(self, target: str, backend: str) -> float:
        speedups = [row.speedup for row in self.rows if row.target == target and row.backend == backend]
        return float(np.exp(np.mean(np.log(speedups)))) if speedups else float("nan")

    def to_table(self) -> str:
        lines = [f"{'model':22s} {'target':11s} {'backend':14s} {'base(ms)':>9s} {'best':>16s} {'speedup':>8s}"]
        for row in self.rows:
            lines.append(
                f"{row.model:22s} {row.target:11s} {row.backend:14s} {row.baseline_ms:9.2f} "
                f"{row.best_candidate:>16s} {row.speedup:7.2f}x"
            )
        for backend in sorted({row.backend for row in self.rows}):
            for target in sorted({row.target for row in self.rows}):
                lines.append(
                    f"geomean {target:11s} {backend:14s} {self.geomean_speedup(target, backend):.2f}x"
                )
        return "\n".join(lines)


def run(
    models: Sequence[str] | None = None,
    candidates: Sequence[Candidate] | None = None,
    targets=None,
    backends=None,
) -> Figure5Result:
    """Regenerate Figure 5's speedup bars."""
    models = (
        list(models)
        if models is not None
        else current().config.smoke_value(list(MODEL_PROFILES), list(SMOKE_MODELS))
    )
    candidates = list(candidates) if candidates is not None else syno_candidates()
    targets = list(targets) if targets is not None else list(ALL_TARGETS)
    backends = list(backends) if backends is not None else both_backends()

    result = Figure5Result()
    for model in models:
        slots = MODEL_PROFILES[model]
        for target in targets:
            for backend in backends:
                evaluation: ModelEvaluation = evaluate_model(model, slots, backend, target, candidates)
                best_name, best_speedup = evaluation.best_candidate()
                result.rows.append(
                    Figure5Row(
                        model=model,
                        target=target.name,
                        backend=backend.name,
                        baseline_ms=evaluation.baseline_ms,
                        best_candidate=best_name,
                        best_ms=evaluation.candidate_ms[best_name],
                        speedup=best_speedup,
                    )
                )
    return result


#: Structured counterpart of :func:`run`: same execution through the shared
#: runner, returning a :class:`repro.results.ResultRecord` (see
#: :func:`repro.experiments.runner.make_run_record`).
run_record = make_run_record("figure5")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
