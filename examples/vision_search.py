"""End-to-end vision search (Algorithm 1) on a tiny ResNet-18 backbone.

Runs the full pipeline at small scale: extract the convolution slots, run the
MCTS search with proxy-training accuracy as reward under a FLOPs budget, keep
candidates within the accuracy margin, and report their latencies on the
mobile CPU with both compiler backends.

Run with:  REPRO_MCTS_ITERATIONS=8 python examples/vision_search.py
(the default of 8 iterations takes a couple of minutes on a laptop CPU).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.compiler import MOBILE_CPU, InductorBackend, TVMBackend
from repro.nn.models.resnet import resnet18
from repro.search.evaluator import EvaluationSettings
from repro.search.session import SearchConfig, SearchSession


def main() -> None:
    iterations = int(os.environ.get("REPRO_MCTS_ITERATIONS", 8))
    config = SearchConfig(
        max_depth=6,
        mcts_iterations=iterations,
        macs_budget_ratio=1.0,
        accuracy_margin=0.05,
        evaluation=EvaluationSettings(train_steps=int(os.environ.get("REPRO_TRAIN_STEPS", 20))),
    )
    session = SearchSession(
        model_builder=resnet18,
        config=config,
        backends=[TVMBackend(trials=24), InductorBackend()],
        targets=[MOBILE_CPU],
    )
    print(f"extracted {len(session.slots)} conv slots; "
          f"original MACs of the substitutable ones: {session.original_macs}")
    print(f"baseline proxy accuracy: {session.accuracy_evaluator.baseline_accuracy():.3f}")

    candidates = session.run()
    print(f"\n{len(candidates)} candidates within the accuracy margin:")
    for candidate in candidates:
        speedups = ", ".join(f"{k[0]}/{k[1]}={v:.2f}x" for k, v in candidate.speedups.items())
        print(f"  accuracy={candidate.accuracy:.3f} (loss {candidate.accuracy_loss:+.3f}) "
              f"macs={candidate.macs} params={candidate.parameters}  {speedups}")
        print(f"    {candidate.operator.graph.signature()}")


if __name__ == "__main__":
    main()
