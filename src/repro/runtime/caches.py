"""Evaluation caches as an owned object (`CacheSet`) instead of module globals.

A :class:`CacheSet` bundles the four evaluation caches — reward, compile,
baseline and plan.  Each :class:`~repro.runtime.context.RuntimeContext`
owns one, so two contexts in one process have fully isolated caches.

Snapshot persistence (:meth:`CacheSet.save_snapshot` /
:meth:`CacheSet.load_snapshot`) returns a structured :class:`SnapshotStatus`
instead of silently discarding problems: a version mismatch or an unreadable
store logs a warning naming the path and both versions, and the status is
surfaced by ``repro cache``.

Everything here is stdlib-only and import-light so the compiler, the search
core and the experiment harness can all depend on it without cycles.
"""

from __future__ import annotations

import logging
import pickle
import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")

#: Version of the on-disk snapshot format *and* of the cache key schemas.
#: Bump whenever a key or value type changes shape (e.g. a new field in
#: ``TuneResult`` or an extra component in an evaluation context) *or* the
#: meaning of a cached value changes (v3: trainings reseed the parameter
#: init RNG per work item, so rewards are order-independent): loading
#: ignores snapshots written under any other version, so stale entries can
#: never alias fresh ones.
CACHE_FORMAT_VERSION = 3


def cache_snapshot_filename() -> str:
    """Basename of the persisted snapshot (the key version is part of the name)."""
    return f"evaluation-cache-v{CACHE_FORMAT_VERSION}.pkl"


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses)


class KeyedCache:
    """A thread-safe dict cache with hit/miss accounting and LRU ordering.

    The underlying dict is kept in recency order (hits and inserts move the
    key to the end), so :meth:`export_entries` can apply an LRU-style size cap
    when the caches are persisted to disk.
    """

    _MISSING = object()

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = CacheStats()
        self._data: dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getstate__(self) -> dict:
        # Caches cross the process boundary when an explicit RuntimeContext is
        # shipped to a sharded worker.  Only the lock needs special handling:
        # entries ship as-is (pre-testing each one would pickle everything
        # twice).  A rare unpicklable entry fails the executor's payload
        # guard, which degrades to the result-identical serial map.
        return {
            "name": self.name,
            "stats": self.stats.snapshot(),
            "data": self.export_entries(),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.stats = state["stats"]
        self._data = dict(state["data"])
        self._lock = threading.Lock()

    def lookup(self, key: Hashable) -> tuple[bool, object]:
        """``(found, value)`` for ``key``, updating the hit/miss counters."""
        with self._lock:
            value = self._data.get(key, self._MISSING)
            if value is self._MISSING:
                self.stats.misses += 1
                return False, None
            self.stats.hits += 1
            self._data[key] = self._data.pop(key)  # mark most recently used
            return True, value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._data.pop(key, None)  # re-inserting marks it most recently used
            self._data[key] = value

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], T], enabled: bool = True
    ) -> T:
        """Cached value for ``key``, computing (outside the lock) on a miss.

        ``enabled=False`` bypasses the cache entirely (the ``eval_cache``
        knob, which the owning context passes in).
        """
        if not enabled:
            return compute()
        found, value = self.lookup(key)
        if found:
            return value  # type: ignore[return-value]
        result = compute()
        self.put(key, result)
        return result

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats = CacheStats()

    def key_snapshot(self) -> set:
        """The set of keys currently cached (used for shard-delta exports)."""
        with self._lock:
            return set(self._data)

    def export_entries(self, max_entries: int | None = None) -> dict[Hashable, object]:
        """A shallow copy of the cached entries (for persistence snapshots).

        ``max_entries`` keeps only the most recently used entries (the dict is
        maintained in recency order); ``None`` or a non-positive value exports
        everything.
        """
        with self._lock:
            if max_entries is not None and 0 < max_entries < len(self._data):
                keys = list(self._data)[-max_entries:]
                return {key: self._data[key] for key in keys}
            return dict(self._data)

    def merge_entries(self, entries: Mapping[Hashable, object]) -> int:
        """Insert entries that are not already cached; returns how many were added.

        In-process values win over persisted ones: an entry computed in this
        process is at least as fresh as anything on disk.
        """
        added = 0
        with self._lock:
            for key, value in entries.items():
                if key not in self._data:
                    self._data[key] = value
                    added += 1
        return added


# ---------------------------------------------------------------------------
# Snapshot status
# ---------------------------------------------------------------------------


@dataclass
class SnapshotStatus:
    """Structured outcome of one snapshot load or save (never an exception).

    ``status`` is one of ``loaded``/``saved``/``merged`` (success — ``merged``
    is a save whose delta joined entries other processes already published to
    the shared store), ``missing`` (no file on load), ``disabled`` (caches
    off), ``locked`` (the store lock was not acquired within the timeout),
    ``version-mismatch``, ``unreadable`` or ``write-failed``.  ``entries``
    counts per-cache entries added (load) or newly published (save);
    ``store_entries`` counts what the shared store holds in total afterwards.
    """

    action: str  # "load" | "save"
    path: str
    status: str
    entries: dict[str, int] = field(default_factory=dict)
    snapshot_version: int | None = None
    expected_version: int = CACHE_FORMAT_VERSION
    error: str = ""
    #: per-cache totals in the shared store after the operation.
    store_entries: dict[str, int] = field(default_factory=dict)
    #: seconds spent waiting for the store lock (0.0 when uncontended).
    lock_wait_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("loaded", "saved", "merged", "missing", "disabled")

    def to_dict(self) -> dict:
        """JSON-ready form (``repro cache --json``); round-trips via ``**``."""
        return {
            "action": self.action,
            "path": self.path,
            "status": self.status,
            "entries": dict(self.entries),
            "snapshot_version": self.snapshot_version,
            "expected_version": self.expected_version,
            "error": self.error,
            "store_entries": dict(self.store_entries),
            "lock_wait_seconds": self.lock_wait_seconds,
        }

    def _lock_wait_suffix(self) -> str:
        if self.lock_wait_seconds >= 0.1:
            return f"; waited {self.lock_wait_seconds:.1f}s for the store lock"
        return ""

    def summary(self) -> str:
        """One-line human-readable form (used by ``repro cache`` / ``repro run``)."""
        counts = ", ".join(f"{name}={count}" for name, count in sorted(self.entries.items()))
        totals = ", ".join(
            f"{name}={count}" for name, count in sorted(self.store_entries.items())
        )
        if self.status == "loaded":
            return f"loaded ({counts or 'nothing new'}){self._lock_wait_suffix()}"
        if self.status == "saved":
            return f"saved ({counts or 'empty'}){self._lock_wait_suffix()}"
        if self.status == "merged":
            return (
                f"merged ({counts or 'nothing new'}; store has {totals or 'nothing'})"
                f"{self._lock_wait_suffix()}"
            )
        if self.status == "locked":
            return f"locked: {self.error}"
        if self.status == "version-mismatch":
            return (
                f"ignored: snapshot version {self.snapshot_version!r} != "
                f"expected {self.expected_version}"
            )
        if self.status == "unreadable":
            return f"ignored: unreadable snapshot ({self.error})"
        if self.status == "write-failed":
            return f"not written ({self.error})"
        return self.status


# ---------------------------------------------------------------------------
# The cache set
# ---------------------------------------------------------------------------


class CacheSet:
    """The four evaluation caches one runtime context owns.

    ``reward``/``compile_``/``baseline`` persist to disk; ``plan`` holds
    numpy index arrays and contraction paths that are cheap to recompile, so
    it is memoized in memory only.  All four participate in shard-delta
    export/merge (shipping a compiled plan saves the recompile on the next
    wave).
    """

    def __init__(self) -> None:
        self.reward = KeyedCache("reward")
        self.compile_ = KeyedCache("compile")
        self.baseline = KeyedCache("baseline")
        self.plan = KeyedCache("plan")
        #: status of the most recent snapshot load/save through this set.
        self.last_load: SnapshotStatus | None = None
        self.last_save: SnapshotStatus | None = None

    def __getstate__(self) -> dict:
        # The last_* statuses are process-local diagnostics; don't ship them.
        state = dict(self.__dict__)
        state["last_load"] = None
        state["last_save"] = None
        return state

    # -- views ---------------------------------------------------------------

    def mergeable(self) -> dict[str, KeyedCache]:
        """name -> cache, for every cache that participates in shard merges."""
        return {
            "reward": self.reward,
            "baseline": self.baseline,
            "compile": self.compile_,
            "plan": self.plan,
        }

    def persisted(self) -> tuple[KeyedCache, ...]:
        return (self.reward, self.compile_, self.baseline)

    def all(self) -> tuple[KeyedCache, ...]:
        return (self.reward, self.compile_, self.baseline, self.plan)

    # -- bookkeeping ---------------------------------------------------------

    def clear(self) -> None:
        for cache in self.all():
            cache.clear()

    def stats(self) -> dict[str, CacheStats]:
        return {cache.name: cache.stats.snapshot() for cache in self.all()}

    def sizes(self) -> dict[str, int]:
        return {cache.name: len(cache) for cache in self.all()}

    # -- shard-delta export / merge ------------------------------------------

    def key_snapshots(self) -> dict[str, set]:
        """Per-cache key sets, taken before running a shard's work items."""
        return {name: cache.key_snapshot() for name, cache in self.mergeable().items()}

    def export_delta(self, before: Mapping[str, set]) -> dict[str, dict]:
        """Entries added since ``before``, filtered to what can cross a pipe."""
        delta: dict[str, dict] = {}
        for name, cache in self.mergeable().items():
            prior = before.get(name, set())
            fresh = {
                key: value
                for key, value in cache.export_entries().items()
                if key not in prior
            }
            if fresh:
                delta[name] = _picklable_entries(name, fresh)
        return delta

    def merge_delta(self, entries: Mapping[str, Mapping]) -> dict[str, int]:
        """Merge a worker's (or snapshot's) entries; returns added per cache."""
        added: dict[str, int] = {}
        caches = self.mergeable()
        for name, cache_entries in entries.items():
            cache = caches.get(name)
            if cache is not None and cache_entries:
                added[name] = added.get(name, 0) + cache.merge_entries(cache_entries)
        return added

    # -- disk persistence ----------------------------------------------------

    def save_snapshot(
        self,
        path: str,
        max_entries: int | None = None,
        enabled: bool = True,
        lock_timeout: float | None = None,
    ) -> SnapshotStatus:
        """Publish the reward/compile/baseline caches into the store at ``path``.

        Persistence goes through :class:`repro.runtime.store.SharedCacheStore`:
        under an advisory file lock, only this process's *delta* (entries the
        store does not hold yet) is appended, so N concurrent processes merge
        into one store instead of overwriting each other (status ``merged``
        when the store already held entries, ``saved`` when it was fresh, and
        ``locked`` when the lock was not acquired within ``lock_timeout``
        seconds).  Writes are atomic-or-appended with fsync, so an interrupted
        run never corrupts entries already persisted.  Persistence is
        best-effort and never raises: entries whose key or value cannot be
        pickled are skipped, and an unwritable destination returns a
        ``write-failed`` status instead of failing the experiment.
        ``max_entries`` caps each cache in the store to its most recently
        used entries (``None`` or ``<= 0`` disables the cap).  With the
        caches disabled nothing is written — they are empty then, and
        publishing would add nothing while churning the store.
        """
        path = str(path)
        if not enabled:
            status = SnapshotStatus("save", path, "disabled")
            self.last_save = status
            return status
        from repro.runtime.store import SharedCacheStore

        cap = max_entries if max_entries is not None and max_entries > 0 else None
        caches: dict[str, dict] = {
            cache.name: cache.export_entries(max_entries=cap) for cache in self.persisted()
        }
        for cache in self.persisted():
            dropped = len(cache) - len(caches[cache.name])
            if dropped > 0:
                log.info(
                    "snapshot cap: persisting %d/%d %s-cache entries (LRU eviction of %d)",
                    len(caches[cache.name]), len(cache), cache.name, dropped,
                )
        store = SharedCacheStore(path)
        status = store.publish(caches, max_entries=cap, lock_timeout=lock_timeout)
        self.last_save = status
        return status

    def load_snapshot(
        self, path: str, enabled: bool = True, lock_timeout: float | None = None
    ) -> SnapshotStatus:
        """Merge the persisted store at ``path`` into this set's caches.

        Already-present keys are kept (freshly computed values always win).
        A missing, corrupt or version-mismatched store loads nothing and
        is reported — never raised — through the returned status; corrupt
        and mismatched stores additionally log a warning naming the path
        and the versions involved; a store locked past ``lock_timeout``
        seconds reports ``locked``.
        """
        path = str(path)
        if not enabled:
            status = SnapshotStatus("load", path, "disabled")
            self.last_load = status
            return status
        from repro.runtime.store import SharedCacheStore

        store = SharedCacheStore(path)
        entries, status = store.load(lock_timeout=lock_timeout)
        if entries is not None:
            by_name = {cache.name: cache for cache in self.persisted()}
            # Every persisted cache is reported, zero counts included.
            added: dict[str, int] = {name: 0 for name in by_name}
            for name, cache_entries in entries.items():
                cache = by_name.get(name)
                if cache is not None and isinstance(cache_entries, dict):
                    added[name] = cache.merge_entries(cache_entries)
            status.entries = added
        self.last_load = status
        return status


def _picklable_entries(
    cache_name: str, entries: Mapping[Hashable, object], warn: bool = False
) -> dict:
    """Drop entries that cannot cross a process or disk boundary (best-effort)."""
    emit = log.warning if warn else log.debug
    picklable: dict[Hashable, object] = {}
    for key, value in entries.items():
        try:
            pickle.dumps((key, value))
        except Exception as exc:
            emit("not persisting %s-cache entry %r: %s", cache_name, key, exc)
        else:
            picklable[key] = value
    return picklable
