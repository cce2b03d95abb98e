"""The benchmark's three workloads, each a closed loop with one caller.

A workload owns one explicitly configured :class:`repro.runtime.RuntimeContext`
(every field pinned, nothing read from ``REPRO_*``), a seeded op schedule and
the check of each op's output against the pinned golden value.  The seed picks
the op order and the search seeds; the program only ever sees the generated
inputs.  See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from typing import Iterator

from repro.compiler.backends import InductorBackend, TVMBackend
from repro.compiler.targets import A100, MOBILE_CPU, MOBILE_GPU
from repro.experiments.common import evaluate_model, syno_candidates
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.library.builder import build_library
from repro.library.specs import space_for
from repro.nn.models.profiles import MODEL_PROFILES
from repro.runtime import RuntimeConfig, RuntimeContext
from repro.runtime.config import ENV_KNOBS


def pinned_config(scratch: str, **fields) -> RuntimeConfig:
    """A config with every field set explicitly, so no environment leaks in."""
    values = dict(
        smoke=True,
        train_steps=8,
        dtype="float32",
        compiled_forward=True,
        eval_cache=True,
        eval_processes=1,
        shards=1,
        frontier_width=8,
        cache_max_entries=4096,
        cache_lock_timeout=10.0,
        cache_live_sync=False,
        shard_timeout=300.0,
        shard_retries=2,
        fault_plan="",
        results_dir=os.path.join(scratch, "results"),
        library_dir=os.path.join(scratch, "library"),
        seed=0,
        verify_plans=False,
        warm_start=False,
    )
    values.update(fields)
    if set(values) != set(ENV_KNOBS):
        raise RuntimeError(f"unpinned config fields: {sorted(set(ENV_KNOBS) ^ set(values))}")
    return RuntimeConfig(**values)


class Workload:
    """Base: a seeded schedule of op keys, run in rounds of ``round_size``."""

    name = ""
    round_size = 1

    def __init__(self, scratch: str, seed: int, tiny: bool) -> None:
        self.scratch = scratch
        self.seed = seed
        self.tiny = tiny
        self.context = RuntimeContext(self.config())

    def config(self) -> RuntimeConfig:
        raise NotImplementedError

    def keys(self) -> list[str]:
        """Every op key this workload can schedule (the golden covers each)."""
        raise NotImplementedError

    def rounds(self) -> Iterator[list[str]]:
        """Seeded, endless sequence of rounds; one pass covers every key."""
        rng = random.Random(self.seed)
        while True:
            keys = self.keys()
            rng.shuffle(keys)
            for start in range(0, len(keys), self.round_size):
                yield keys[start:start + self.round_size]

    def run(self, key: str):
        """Execute one op and return its raw result."""
        raise NotImplementedError

    def output(self, result) -> object:
        """The part of a result the golden pins."""
        return result

    def matches(self, output, expected) -> bool:
        return output == expected

    def layer_counts(self, result) -> dict[str, float]:
        """Per-layer counters the op's own result reports (traced runs)."""
        return {}

    def reset(self) -> None:
        """Clear in-memory caches and run-private files: a cold start."""
        self.context.caches.clear()


class CostSweep(Workload):
    """Latency of every Syno candidate in three models, targets and backends."""

    name = "cost-sweep"
    #: one pass: every (model, target, backend) op once.
    round_size = 18
    MODELS = ("resnet18", "resnet34", "efficientnet_v2_s")
    BACKENDS = ("tvm", "torchinductor")
    TARGETS = {target.name: target for target in (MOBILE_CPU, MOBILE_GPU, A100)}
    #: smoke tuning budget: tuning_trials(48) under smoke.
    TVM_TRIALS = 16

    def __init__(self, scratch: str, seed: int, tiny: bool) -> None:
        super().__init__(scratch, seed, tiny)
        self.candidates = syno_candidates()
        self.backends = {
            backend.name: backend for backend in (TVMBackend(trials=self.TVM_TRIALS), InductorBackend())
        }
        # Tiny mode keeps the two first slots of each profile.
        self.slots = {
            model: MODEL_PROFILES[model][:2] if tiny else MODEL_PROFILES[model]
            for model in self.MODELS
        }

    def config(self) -> RuntimeConfig:
        return pinned_config(self.scratch, smoke=True, dtype="float32", shards=1)

    def keys(self) -> list[str]:
        return [
            f"{model}|{target}|{backend}"
            for target in self.TARGETS
            for model in self.MODELS
            for backend in self.BACKENDS
        ]

    def rounds(self) -> Iterator[list[str]]:
        # The seed orders the targets and, per target, the backends.  Models
        # keep a fixed order: resnet18 and resnet34 share slot shapes, and
        # tuning results are cached per (backend, target), so a fixed model
        # order makes every op pay the same cold tuning whatever the seed.
        rng = random.Random(self.seed)
        while True:
            targets = list(self.TARGETS)
            rng.shuffle(targets)
            keys = []
            for target in targets:
                backends = list(self.BACKENDS)
                rng.shuffle(backends)
                keys += [f"{model}|{target}|{backend}" for model in self.MODELS for backend in backends]
            yield keys

    def run(self, key: str):
        model, target, backend = key.split("|")
        return evaluate_model(
            model,
            self.slots[model],
            self.backends[backend],
            self.TARGETS[target],
            self.candidates,
            runtime=self.context,
        )

    def output(self, result) -> object:
        return {"baseline_ms": result.baseline_ms, "candidate_ms": dict(result.candidate_ms)}

    def matches(self, output, expected) -> bool:
        values = [(output["baseline_ms"], expected["baseline_ms"])]
        if set(output["candidate_ms"]) != set(expected["candidate_ms"]):
            return False
        values += [(output["candidate_ms"][name], expected["candidate_ms"][name]) for name in expected["candidate_ms"]]
        return all(math.isclose(got, want, rel_tol=1e-9) for got, want in values)


class SearchGpt2(Workload):
    """MCTS search sessions over the GPT-2 QKV projection slot."""

    name = "search-gpt2"
    round_size = 4
    #: search seeds the schedule draws from; the golden pins each one.  A
    #: run gets through the pool more than once, so most sessions find their
    #: candidates' rewards cached and the median session is a warm one.
    POOL = 16
    TINY_POOL = 4

    def __init__(self, scratch: str, seed: int, tiny: bool) -> None:
        super().__init__(scratch, seed, tiny)
        self.options = (
            {"iterations": 24, "max_depth": 3} if tiny else {"iterations": 400, "max_depth": 4}
        )
        self._stores = 0
        self.store_path = os.path.join(scratch, "search-store-0.rpcs")

    def config(self) -> RuntimeConfig:
        steps = 4 if self.tiny else 60
        return pinned_config(self.scratch, smoke=True, dtype="float64", train_steps=steps, shards=1)

    def keys(self) -> list[str]:
        return [str(seed) for seed in range(self.TINY_POOL if self.tiny else self.POOL)]

    def run(self, key: str):
        # As `repro run` does: load the shared store, run, publish.
        self.context.load_caches(self.store_path)
        with self.context.activate():
            outcome = run_experiment(
                "search", ExperimentConfig(seed=int(key), options=dict(self.options))
            )
        self.context.save_caches(self.store_path)
        return outcome

    def output(self, result) -> object:
        return result.record.fingerprint()

    def reset(self) -> None:
        super().reset()
        self._stores += 1
        self.store_path = os.path.join(self.scratch, f"search-store-{self._stores}.rpcs")


class EnumerateConv(Workload):
    """Exhaustive design-space builds of the four conv slot families."""

    name = "enumerate-conv"
    round_size = 2
    FAMILIES = ("resnet", "resnext", "densenet", "efficientnet")
    SHARDS = 2

    def __init__(self, scratch: str, seed: int, tiny: bool) -> None:
        super().__init__(scratch, seed, tiny)
        depth = 2 if tiny else 3
        self.spaces = {family: space_for(family, max_depth=depth) for family in self.FAMILIES}
        self._builds = 0

    def config(self) -> RuntimeConfig:
        return pinned_config(self.scratch, smoke=True, dtype="float32", shards=self.SHARDS)

    def keys(self) -> list[str]:
        return list(self.FAMILIES)

    def run(self, key: str):
        # A fresh run-private library directory per build.
        self._builds += 1
        library_dir = os.path.join(self.scratch, f"library-{self._builds}")
        space = self.spaces[key]
        try:
            return build_library(
                space.spec,
                space.options,
                name=key,
                runtime=self.context.derive(library_dir=library_dir),
                shards=self.SHARDS,
                force=True,
            )
        finally:
            shutil.rmtree(library_dir, ignore_errors=True)

    def output(self, result) -> object:
        return result.content_hash

    def layer_counts(self, result) -> dict[str, float]:
        stats = result.stats
        return {
            "library.build.entries": result.entries,
            "core.enumerate.generated": stats.children_generated,
            "core.enumerate.pruned": stats.pruned_by_distance,
            "core.canonicalize.rejections": sum(stats.canonicalization_rejections.values()),
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (CostSweep, SearchGpt2, EnumerateConv)
}
