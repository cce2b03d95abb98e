"""The explicit, scoped runtime API (config + caches + store + RNG).

This package replaces the historical soup of ``REPRO_*`` environment reads
and module-global caches with two objects:

* :class:`RuntimeConfig` — a frozen, typed snapshot of every knob (dtype,
  budgets, shard counts, cache policy, results dir, seed), each field
  tagged with its provenance (``default`` / ``env`` / ``explicit``).
  :meth:`RuntimeConfig.from_env` is the *only* place ``REPRO_*`` variables
  are read, called once at each process edge (CLI entry, first build of the
  process-default context).
* :class:`RuntimeContext` — owns a :class:`CacheSet` (the reward, baseline,
  compile, plan, lowering, shape-distance and children caches, plus snapshot
  persistence), the artifact store and the root RNG.  Choose one with
  ``with ctx.activate():`` — two contexts with different configs run
  concurrently in one process with fully isolated caches.

Library code reads :func:`current`, the ambient context: the innermost
activation, else the process default, whose config is parsed from the
environment once.  Only ``evaluate_model`` and ``build_library`` also take a
``runtime`` argument, which they activate on entry.
Changing a ``REPRO_*`` variable after that edge steers nothing; derive and
activate a context instead (``with current().derive(smoke=True).activate():``).
"""

from repro.runtime.caches import (
    CACHE_FORMAT_VERSION,
    CacheSet,
    CacheStats,
    KeyedCache,
    SnapshotStatus,
    cache_snapshot_filename,
)
from repro.runtime.config import (
    ENV_KNOBS,
    PROVENANCE_DEFAULT,
    PROVENANCE_ENV,
    PROVENANCE_EXPLICIT,
    RuntimeConfig,
)
from repro.runtime.context import RuntimeContext, current, default_context
from repro.runtime.faults import (
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    arm_worker,
    fault_sites,
    inject,
)
from repro.runtime.store import CacheLockTimeout, FileLock, SharedCacheStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheLockTimeout",
    "CacheSet",
    "CacheStats",
    "ENV_KNOBS",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "FileLock",
    "KeyedCache",
    "PROVENANCE_DEFAULT",
    "PROVENANCE_ENV",
    "PROVENANCE_EXPLICIT",
    "RuntimeConfig",
    "RuntimeContext",
    "SharedCacheStore",
    "SnapshotStatus",
    "arm_worker",
    "cache_snapshot_filename",
    "current",
    "default_context",
    "fault_sites",
    "inject",
]
