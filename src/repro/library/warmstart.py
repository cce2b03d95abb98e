"""Warm-starting MCTS from an ahead-of-time graph library.

Given a library built for the searched spec, warm-starting does two things:

* **Frontier seeding** — the complete library entries are ranked (previously
  rewarded ones first, by reward; the rest by embedding distance to the root)
  and each is walked back through its ``parent_signature`` chain to the
  depth-1 action that leads toward it.  The resulting signature list becomes
  ``MCTSConfig.root_priority``: the root expands toward the library's best
  regions first, while the RNG stream — and therefore every cold-path record
  fingerprint — stays untouched.

* **Reward seeding** — rewards recorded in the library's sidecar under the
  same evaluation context are injected into the run's reward cache by
  signature, so candidates the library has already proxy-trained (in any
  previous run) cost nothing to revisit.

Both halves are opt-in via ``RuntimeConfig.warm_start``
(``REPRO_WARM_START``) and degrade to no-ops when no matching library
exists.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.core.operator import OperatorSpec
from repro.core.pgraph import PGraph
from repro.library.embeddings import distance, feature_vector
from repro.library.store import (
    GraphLibrary,
    RewardSidecar,
    context_digest,
    library_filename,
    sidecar_filename,
    spec_key,
)
from repro.runtime.context import RuntimeContext, current

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WarmStartPlan:
    """Everything a warm-started search needs, resolved ahead of the run."""

    #: library name the plan came from.
    name: str
    #: spec key both the library and the search target share.
    spec_key: str
    #: identity of the library version the plan is pinned to.
    content_hash: str
    #: depth-1 signatures the MCTS root should expand first, best first.
    root_priority: tuple[str, ...]
    #: rewards injected into the run's reward cache from the sidecar.
    seeded_rewards: int


def library_artifact_path(name: str, runtime: RuntimeContext | None = None) -> str:
    runtime = runtime if runtime is not None else current()
    return os.path.join(runtime.library_path(), library_filename(name))


def find_library_name(spec: OperatorSpec, runtime: RuntimeContext | None = None) -> str | None:
    """The name of a library covering ``spec``, discovered by spec key.

    Scans the library root for current-version artifacts (sorted, so the
    result is deterministic when several match) and returns the first whose
    spec key matches.  ``None`` when nothing on disk covers the spec.
    """
    runtime = runtime if runtime is not None else current()
    root = runtime.library_path()
    try:
        filenames = sorted(os.listdir(root))
    except (FileNotFoundError, NotADirectoryError):
        return None
    suffix = library_filename("")  # "-v{version}.rplb"
    key = spec_key(spec)
    for filename in filenames:
        if not filename.endswith(suffix) or filename.startswith("rewards-"):
            continue
        library = GraphLibrary.load(os.path.join(root, filename))
        if library is not None and library.meta.get("spec_key") == key:
            return library.meta.get("name")
    return None


def load_library(
    name: str, spec: OperatorSpec | None = None, runtime: RuntimeContext | None = None
) -> GraphLibrary | None:
    """The named library, or ``None`` if absent or built for another spec."""
    library = GraphLibrary.load(library_artifact_path(name, runtime))
    if library is None:
        return None
    if spec is not None and library.meta.get("spec_key") != spec_key(spec):
        log.warning(
            "library %r was built for a different spec; ignoring for warm start", name
        )
        return None
    return library


def reward_sidecar(name: str, runtime: RuntimeContext | None = None) -> RewardSidecar:
    runtime = runtime if runtime is not None else current()
    return RewardSidecar(os.path.join(runtime.library_path(), sidecar_filename(name)))


def plan_warm_start(
    spec: OperatorSpec,
    *,
    cache_context: Hashable,
    name: str | None = None,
    runtime: RuntimeContext | None = None,
    limit: int = 8,
) -> WarmStartPlan | None:
    """Resolve a warm-start plan for searching ``spec``, or ``None``.

    ``None`` means "run cold": no matching library on disk.  Otherwise the
    returned plan carries the root expansion priority and has already seeded
    the runtime's reward cache from the sidecar (when the cache is enabled).
    ``name`` defaults to spec-key auto-discovery (:func:`find_library_name`).
    """
    runtime = runtime if runtime is not None else current()
    if name is None:
        name = find_library_name(spec, runtime)
        if name is None:
            return None
    library = load_library(name, spec, runtime)
    if library is None:
        return None

    digest = context_digest(cache_context)
    rewards = reward_sidecar(name, runtime).load(digest)

    binding = dict(spec.bindings[0]) if spec.bindings else {}
    root = PGraph.root(spec.output_shape, spec.input_shape)
    root_features = feature_vector(root, binding)

    def rank(entry) -> tuple:
        reward = rewards.get(entry.signature)
        if reward is not None:
            return (0, -reward, entry.signature)
        return (1, distance(entry.features, root_features), entry.signature)

    root_priority: list[str] = []
    for entry in sorted(library.complete_entries(), key=rank):
        prefix = library.prefix_signature(entry, depth=1)
        if prefix is not None and prefix not in root_priority:
            root_priority.append(prefix)
        if len(root_priority) >= limit:
            break

    seeded = 0
    if runtime.config.eval_cache:
        reward_cache = runtime.caches.reward
        for signature, reward in sorted(rewards.items()):
            key = (cache_context, signature)
            if key not in reward_cache:
                reward_cache.put(key, reward)
                seeded += 1

    return WarmStartPlan(
        name=name,
        spec_key=library.meta.get("spec_key", ""),
        content_hash=library.content_hash(),
        root_priority=tuple(root_priority),
        seeded_rewards=seeded,
    )


def export_rewards(
    rewards: Mapping[str, float],
    *,
    name: str,
    cache_context: Hashable,
    runtime: RuntimeContext | None = None,
) -> int:
    """Publish a finished search's ``signature -> reward`` samples.

    Appends only rewards the sidecar does not already hold under this
    context; returns how many were written (0 under lock contention — the
    publish is best-effort by design).
    """
    runtime = runtime if runtime is not None else current()
    sidecar = reward_sidecar(name, runtime)
    return sidecar.publish(context_digest(cache_context), rewards)
