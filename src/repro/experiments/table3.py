"""Table 3 and the canonicalization ablation (Section 9.4).

The paper samples 6452 pGraphs with canonicalization disabled and finds only
86 of them canonical (>70x redundancy), and reports the canonical rate per
pGraph size (100% at size 2 falling to 0% at size >= 8).  ``run`` repeats the
measurement: random pGraphs are grown with canonicalization switched off, and
each is classified by replaying its construction against the rule engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.canonicalize import CanonicalizationEngine
from repro.core.enumeration import EnumerationOptions, default_options_for, enumerate_children
from repro.core.library import C_IN, C_OUT, GROUPS, H, K1, N, SHRINK, W, conv2d_spec
from repro.core.pgraph import PGraph
from repro.experiments.runner import make_run_record
from repro.ir.size import Size
from repro.runtime import current


@dataclass
class Table3Result:
    samples_total: int
    samples_canonical: int
    per_size: dict[int, tuple[int, int]] = field(default_factory=dict)  #: size -> (canonical, total)

    @property
    def redundancy_factor(self) -> float:
        """How many uncanonical candidates exist per canonical one."""
        return self.samples_total / max(self.samples_canonical, 1)

    def canonical_rate(self, size: int) -> float:
        canonical, total = self.per_size.get(size, (0, 0))
        return canonical / total if total else float("nan")

    def to_table(self) -> str:
        lines = [f"total={self.samples_total} canonical={self.samples_canonical} "
                 f"redundancy={self.redundancy_factor:.1f}x"]
        for size in sorted(self.per_size):
            canonical, total = self.per_size[size]
            lines.append(f"size {size}: {100.0 * canonical / max(total, 1):6.2f}%  ({canonical}/{total})")
        return "\n".join(lines)


def _is_canonical(graph: PGraph, engine: CanonicalizationEngine) -> bool:
    """Replay the graph's construction, checking each application against the rules."""
    replay = PGraph.root(graph.output_shape, graph.input_shape)
    uid_map = {dim.uid: replay.frontier[i] for i, dim in enumerate(graph.output_dims)}
    for app in graph.applications:
        # Reconstruct operands in the replayed graph via the uid mapping.
        original_operands = list(app.consumed)
        if app.weight_dims:
            # Share: operands are (shared, *matched); shared is identified by
            # the first weight dim.
            original_operands = [app.weight_dims[0].identified_with, *app.matched]
        operands = [uid_map[dim.uid] for dim in original_operands]
        if not engine.is_canonical(replay, app.primitive, operands):
            return False
        replay = app.primitive.apply(replay, operands)
        new_app = replay.applications[-1]
        for original, replayed in zip(app.produced, new_app.produced):
            uid_map[original.uid] = replayed
    return True


def sample_random_graphs(
    options: EnumerationOptions,
    num_samples: int,
    seed: int = 0,
    target_depth: int = 8,
) -> list[PGraph]:
    """Random growth of pGraphs with canonicalization disabled."""
    rng = random.Random(seed)
    spec = conv2d_spec(bindings=({N: 1, C_IN: 16, C_OUT: 16, H: 8, W: 8, K1: 3, GROUPS: 2, SHRINK: 2},))
    samples: list[PGraph] = []
    while len(samples) < num_samples:
        graph = PGraph.root(spec.output_shape, spec.input_shape)
        depth = rng.randint(2, target_depth)
        for _ in range(depth):
            children = enumerate_children(graph, options)
            if not children:
                break
            _, graph = rng.choice(children)
        if graph.depth >= 2:
            samples.append(graph)
    return samples


def run(num_samples: int | None = None, seed: int = 0, max_depth: int = 8) -> Table3Result:
    if num_samples is None:
        num_samples = current().config.smoke_value(400, 150)
    spec = conv2d_spec(bindings=({N: 1, C_IN: 16, C_OUT: 16, H: 8, W: 8, K1: 3, GROUPS: 2, SHRINK: 2},))
    options = default_options_for(spec, coefficients=[Size.of(K1), Size.of(GROUPS)], max_depth=max_depth)
    options.canonicalizer = None  # sample WITHOUT canonicalization (the ablation)
    engine = CanonicalizationEngine()

    samples = sample_random_graphs(options, num_samples, seed=seed, target_depth=max_depth)
    per_size: dict[int, list[int]] = {}
    canonical_count = 0
    for graph in samples:
        canonical = _is_canonical(graph, engine)
        canonical_count += int(canonical)
        bucket = per_size.setdefault(graph.depth, [0, 0])
        bucket[0] += int(canonical)
        bucket[1] += 1
    return Table3Result(
        samples_total=len(samples),
        samples_canonical=canonical_count,
        per_size={size: (c, t) for size, (c, t) in per_size.items()},
    )


#: Structured counterpart of :func:`run`: same execution through the shared
#: runner, returning a :class:`repro.results.ResultRecord` (see
#: :func:`repro.experiments.runner.make_run_record`).
run_record = make_run_record("table3")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_table())
