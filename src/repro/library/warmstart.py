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
    library_filename,
    library_names,
    sidecar_filename,
    spec_key,
)
from repro.runtime.context import current
from repro.runtime.store import SharedCacheStore

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


def library_artifact_path(name: str) -> str:
    return os.path.join(current().library_path(), library_filename(name))


def find_library_name(spec: OperatorSpec) -> str | None:
    """The name of a library covering ``spec``, discovered by spec key.

    Scans the library root for current-version artifacts (sorted, so the
    result is deterministic when several match) and returns the first whose
    spec key matches.  ``None`` when nothing on disk covers the spec.
    """
    key = spec_key(spec)
    for name in library_names(current().library_path()):
        library = GraphLibrary.load(library_artifact_path(name))
        if library is not None and library.meta.get("spec_key") == key:
            return library.meta.get("name")
    return None


def load_library(name: str, spec: OperatorSpec | None = None) -> GraphLibrary | None:
    """The named library, or ``None`` if absent or built for another spec."""
    library = GraphLibrary.load(library_artifact_path(name))
    if library is None:
        return None
    if spec is not None and library.meta.get("spec_key") != spec_key(spec):
        log.warning(
            "library %r was built for a different spec; ignoring for warm start", name
        )
        return None
    return library


def reward_sidecar(name: str) -> SharedCacheStore:
    return SharedCacheStore(os.path.join(current().library_path(), sidecar_filename(name)))


def plan_warm_start(
    spec: OperatorSpec,
    *,
    cache_context: Hashable,
    name: str | None = None,
    limit: int = 8,
) -> WarmStartPlan | None:
    """Resolve a warm-start plan for searching ``spec``, or ``None``.

    ``None`` means "run cold": no matching library on disk.  Otherwise the
    returned plan carries the root expansion priority and has already seeded
    the ambient context's reward cache from the sidecar (when the cache is
    enabled).  ``name`` defaults to spec-key auto-discovery
    (:func:`find_library_name`).
    """
    if name is None:
        name = find_library_name(spec)
        if name is None:
            return None
    library = load_library(name, spec)
    if library is None:
        return None

    stored, _ = reward_sidecar(name).load()
    seeds = {
        key: reward
        for key, reward in (stored or {}).get("reward", {}).items()
        if key[0] == cache_context
    }
    rewards = {signature: reward for (_, signature), reward in seeds.items()}

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

    runtime = current()
    seeded = runtime.caches.reward.merge_entries(seeds) if runtime.config.eval_cache else 0

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
) -> int:
    """Publish a finished search's ``signature -> reward`` samples.

    Adds only rewards the sidecar does not already hold under this context;
    returns how many were written (0 under lock contention or a write
    failure — the publish is best-effort by design).
    """
    entries = {(cache_context, signature): reward for signature, reward in rewards.items()}
    status = reward_sidecar(name).publish({"reward": entries})
    return status.entries.get("reward", 0)
