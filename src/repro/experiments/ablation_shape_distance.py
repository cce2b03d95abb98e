"""Section 9.4: the shape-distance ablation.

The paper measures random sampling *trials*: with shape distance enabled,
5 million trials yield 253 distinct valid operators in about a minute; without
it, 500 million trials yield none.  The reproduction runs a fixed number of
random synthesis rollouts from the conv2d specification with and without the
guidance and compares the number of (distinct) valid operators found.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.enumeration import EnumerationOptions, default_options_for, enumerate_children
from repro.core.library import C_IN, C_OUT, GROUPS, H, K1, N, SHRINK, W, conv2d_spec
from repro.core.pgraph import PGraph
from repro.core.shape_distance import shape_distance
from repro.experiments.runner import make_run_record
from repro.ir.size import Size
from repro.runtime import current


@dataclass
class AblationResult:
    trials: int
    guided_valid: int
    guided_distinct: int
    guided_seconds: float
    unguided_valid: int
    unguided_distinct: int
    unguided_seconds: float

    @property
    def yield_ratio(self) -> float:
        """Valid-per-trial ratio of guided over unguided sampling."""
        guided_rate = self.guided_valid / max(self.trials, 1)
        unguided_rate = self.unguided_valid / max(self.trials, 1)
        if unguided_rate == 0:
            return float("inf") if guided_rate > 0 else 1.0
        return guided_rate / unguided_rate

    def to_table(self) -> str:
        return (
            f"trials per mode: {self.trials}\n"
            f"guided:   {self.guided_valid} valid ({self.guided_distinct} distinct) "
            f"in {self.guided_seconds:.2f}s\n"
            f"unguided: {self.unguided_valid} valid ({self.unguided_distinct} distinct) "
            f"in {self.unguided_seconds:.2f}s"
        )


def _spec():
    return conv2d_spec(
        bindings=({N: 1, C_IN: 16, C_OUT: 16, H: 8, W: 8, K1: 3, GROUPS: 2, SHRINK: 2},)
    )


_ROLLING_SPEC = _spec()


def _rollout(options: EnumerationOptions, rng: random.Random, use_distance: bool) -> PGraph | None:
    """One random synthesis trial; returns a complete pGraph or None."""
    graph = PGraph.root(_ROLLING_SPEC.output_shape, _ROLLING_SPEC.input_shape)
    for _ in range(options.max_depth):
        if graph.is_complete and graph.depth > 0:
            return graph
        children = enumerate_children(graph, options)
        if use_distance:
            remaining = options.max_depth - graph.depth - 1
            scored = [
                (shape_distance(child.frontier_shape, child.input_shape), action, child)
                for action, child in children
            ]
            scored = [entry for entry in scored if entry[0] <= remaining]
            if not scored:
                return None
            minimum = min(entry[0] for entry in scored)
            if minimum >= remaining - 1:
                # The budget is (almost) down to the distance: every further
                # step must move toward the target shape (the paper's guidance).
                scored = [entry for entry in scored if entry[0] == minimum]
            _, _, graph = rng.choice(scored)
            continue
        if not children:
            return None
        _, graph = rng.choice(children)
    return graph if graph.is_complete and graph.depth > 0 else None


def run(trials: int | None = None, max_depth: int = 4, seed: int = 0) -> AblationResult:
    if trials is None:
        trials = current().config.smoke_value(300, 120)
    options = default_options_for(
        _ROLLING_SPEC, coefficients=[Size.of(K1), Size.of(GROUPS)], max_depth=max_depth
    )

    results = {}
    for label, use_distance in (("guided", True), ("unguided", False)):
        rng = random.Random(seed)
        found = 0
        signatures: set[str] = set()
        start = time.perf_counter()
        for _ in range(trials):
            graph = _rollout(options, rng, use_distance)
            if graph is not None:
                found += 1
                signatures.add(graph.signature())
        results[label] = (found, len(signatures), time.perf_counter() - start)

    return AblationResult(
        trials=trials,
        guided_valid=results["guided"][0],
        guided_distinct=results["guided"][1],
        guided_seconds=results["guided"][2],
        unguided_valid=results["unguided"][0],
        unguided_distinct=results["unguided"][1],
        unguided_seconds=results["unguided"][2],
    )


#: Structured counterpart of :func:`run`: same execution through the shared
#: runner, returning a :class:`repro.results.ResultRecord` (see
#: :func:`repro.experiments.runner.make_run_record`).
run_record = make_run_record("ablation-shape-distance")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
