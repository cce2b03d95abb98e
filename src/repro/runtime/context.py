"""`RuntimeContext`: the explicit, scoped owner of caches, store and RNG.

A :class:`RuntimeContext` bundles everything that used to be process-global
state: a frozen :class:`~repro.runtime.config.RuntimeConfig`, a
:class:`~repro.runtime.caches.CacheSet`
(reward/baseline/compile/plan/lowering/shape_distance), the
:class:`~repro.results.ArtifactStore` rooted at the config's results
directory, and a root RNG seeded from the config.  Two contexts with
different dtypes, budgets or shard counts coexist in one process with fully
isolated caches — the property every future scaling direction (multi-host
sharding, async serving, shared pools) builds on.

Resolution rules:

* **Explicit beats ambient** — APIs take an optional ``runtime`` argument;
  passing a context always wins.
* **Ambient** — :func:`current` returns the innermost context activated via
  ``with ctx.activate():`` (a :mod:`contextvars` variable, so concurrent
  threads each see their own activation).
* **Process default** — with nothing active, :func:`current` returns the
  process-default context, whose config is parsed from the ``REPRO_*``
  environment exactly once, when it is first built (the process edge).
  Changing a ``REPRO_*`` variable afterwards does not steer the running
  process; derive and activate a context instead.

Contexts are picklable (config + caches; the store and RNG are recreated
lazily), which is how the sharded executor boots a worker: the context is
shipped into the forked process, activated there, and its cache deltas are
merged back into the parent — replacing the old implicit env inheritance.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import TYPE_CHECKING, Any, Hashable, Callable, Iterator, TypeVar

from repro.runtime.caches import CacheSet, SnapshotStatus
from repro.runtime.config import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.results.store import ArtifactStore

T = TypeVar("T")

_ACTIVE: contextvars.ContextVar["RuntimeContext | None"] = contextvars.ContextVar(
    "repro-runtime-context", default=None
)


class RuntimeContext:
    """One scoped runtime: config + caches + artifact store + root RNG."""

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        caches: CacheSet | None = None,
        store: "ArtifactStore | None" = None,
    ) -> None:
        self.config = config if config is not None else RuntimeConfig()
        self.caches = caches if caches is not None else CacheSet()
        #: structured ShardFailure diagnostics the supervised executor
        #: recorded while running under this context (see
        #: :meth:`record_shard_failures`); the experiment runner drains them
        #: into the run record's environment.
        self.shard_failures: list = []
        #: batched reward-evaluation hook installed by the serving layer
        #: (see :mod:`repro.serve`): ``(pending, reward_fn, cache_context,
        #: runtime) -> Mapping[signature, reward]``.  When set, MCTS hands
        #: each frontier wave to it instead of mapping the wave through
        #: ``sharded_map`` itself, which is how concurrent searches coalesce
        #: their waves.  Deliberately not pickled: a shard worker
        #: must never recurse into the parent's coalescer.
        self.wave_evaluator: Callable | None = None
        #: how many contexts :meth:`derive` has produced from this one — the
        #: serving layer's per-request accounting (`repro serve` reports it).
        self.derived_count = 0
        self._derived_ids = itertools.count(1)
        self._store = store
        self._shared_store = None
        self._rng = None
        self._param_rng = None

    def __getstate__(self) -> dict:
        # The store and RNGs are recreated lazily on the other side; config and
        # caches are the identity of the context.  Failure diagnostics are
        # parent-side observations and stay behind.
        return {"config": self.config, "caches": self.caches}

    def __setstate__(self, state: dict) -> None:
        self.config = state["config"]
        self.caches = state["caches"]
        self.shard_failures = []
        self.wave_evaluator = None
        self.derived_count = 0
        self._derived_ids = itertools.count(1)
        self._store = None
        self._shared_store = None
        self._rng = None
        self._param_rng = None

    def __repr__(self) -> str:
        tag = "default" if self is _DEFAULT else "explicit"
        return (
            f"RuntimeContext({tag}, dtype={self.config.dtype_name()}, "
            f"smoke={self.config.smoke}, shards={self.config.shards}, "
            f"caches={self.caches.sizes()})"
        )

    # -- owned resources -----------------------------------------------------

    @property
    def store(self) -> "ArtifactStore":
        """The artifact store rooted at ``config.results_dir`` (created lazily)."""
        if self._store is None:
            from repro.results.store import ArtifactStore  # lazy: avoids a cycle

            self._store = ArtifactStore(self.config.results_dir)
        return self._store

    @property
    def shared_store(self):
        """The process-safe shared cache store behind :meth:`snapshot_path`.

        Created lazily (and re-created if the snapshot path moves with
        ``results_dir``); holds no open resources, just the path, the lock
        object and the incremental-refresh offset used by live sync.
        """
        if self._shared_store is None or self._shared_store.path != self.snapshot_path():
            from repro.runtime.store import SharedCacheStore  # lazy: avoids a cycle

            self._shared_store = SharedCacheStore(
                self.snapshot_path(), lock_timeout=self.config.cache_lock_timeout
            )
        return self._shared_store

    @property
    def rng(self):
        """The context's root numpy RNG, seeded from ``config.seed``."""
        if self._rng is None:
            import numpy as np  # lazy: keep the runtime package import-light

            self._rng = np.random.default_rng(self.config.seed)
        return self._rng

    @property
    def param_rng(self):
        """The parameter-initialization RNG (layers, dropout, ``Tensor.randn``).

        Separate from :attr:`rng` so structural draws (search, datasets)
        never perturb the parameter stream.  Evaluators pin it with
        :meth:`reseed_param_rng` before each proxy training, which is what
        makes a reward a pure function of the candidate rather than of how
        many models were built earlier in the process.
        """
        if self._param_rng is None:
            import numpy as np  # lazy: keep the runtime package import-light

            self._param_rng = np.random.default_rng(self.config.seed)
        return self._param_rng

    def reseed_param_rng(self, seed: int) -> None:
        """Reset the parameter-initialization stream to a known seed."""
        import numpy as np  # lazy: keep the runtime package import-light

        self._param_rng = np.random.default_rng(seed)

    # -- scoping -------------------------------------------------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["RuntimeContext"]:
        """Make this context the ambient one within the ``with`` block.

        Activation is per-thread (a :mod:`contextvars` variable): two threads
        can each activate a different context and run concurrently with zero
        cache cross-talk.
        """
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def derive(self, **overrides: Any) -> "RuntimeContext":
        """A context with overridden config but **shared** caches and store.

        This is what the experiment runner uses per run: budgets change, the
        warm caches stay (cache keys already encode every knob that affects a
        cached value, so sharing is safe).  Overriding ``results_dir`` drops
        the materialized store so the derived context re-roots it.

        The :attr:`wave_evaluator` hook carries over — a request context the
        serving layer derived stays coalesced when the runner derives the
        run context from it — and :attr:`derived_count` tracks how many
        contexts this one has fathered (``itertools.count`` so concurrent
        request threads never lose an increment).
        """
        store = None if "results_dir" in overrides else self._store
        derived = RuntimeContext(
            self.config.with_overrides(**overrides), caches=self.caches, store=store
        )
        derived.wave_evaluator = self.wave_evaluator
        self.derived_count = next(self._derived_ids)
        return derived

    def isolated(self, **overrides: Any) -> "RuntimeContext":
        """A context with overridden config and **fresh, empty** caches."""
        return RuntimeContext(self.config.with_overrides(**overrides))

    # -- cache operations ----------------------------------------------------

    def cached_reward(
        self, context: Hashable, signature: str, compute: Callable[[], float]
    ) -> float:
        """The reward of one candidate under one evaluation context, computed once."""
        return self.caches.reward.get_or_compute(
            (context, signature), compute, enabled=self.config.eval_cache
        )

    def cached_baseline(self, context: Hashable, compute: Callable[[], T]) -> T:
        """A baseline (unsubstituted) metric under one context, computed once."""
        return self.caches.baseline.get_or_compute(
            context, compute, enabled=self.config.eval_cache
        )

    def cached_compile(self, key: Hashable, compute: Callable[[], T]) -> T:
        """A ``TuneResult`` for one (backend config, program, target) key."""
        return self.caches.compile_.get_or_compute(
            key, compute, enabled=self.config.eval_cache
        )

    def cached_plan(self, key: Hashable, compute: Callable[[], T]) -> T:
        """A compiled execution plan for one (signature, binding, shapes) key."""
        return self.caches.plan.get_or_compute(
            key, compute, enabled=self.config.eval_cache
        )

    def cached_lowering(self, key: Hashable, compute: Callable[[], T]) -> T:
        """A ``LoopNestProgram`` for one (signature, spec, binding, options) key."""
        return self.caches.lowering.get_or_compute(
            key, compute, enabled=self.config.eval_cache
        )

    def cached_shape_distance(self, key: Hashable, compute: Callable[[], int]) -> int:
        """A shape distance for one (current sizes, desired sizes) key."""
        return self.caches.shape_distance.get_or_compute(
            key, compute, enabled=self.config.eval_cache
        )

    # -- shard-failure diagnostics -------------------------------------------

    #: cap on retained failure diagnostics — a pathological chaos loop must
    #: not grow a long-lived (e.g. default) context without bound.
    _MAX_SHARD_FAILURES = 1000

    def record_shard_failures(self, failures) -> None:
        """Append supervised-executor failure diagnostics to this context."""
        self.shard_failures.extend(failures)
        overflow = len(self.shard_failures) - self._MAX_SHARD_FAILURES
        if overflow > 0:
            del self.shard_failures[:overflow]

    def drain_shard_failures(self) -> list:
        """Return and clear the recorded failures (runner: once per run)."""
        drained = list(self.shard_failures)
        self.shard_failures.clear()
        return drained

    # -- snapshot persistence ------------------------------------------------

    def snapshot_path(self) -> str:
        """Where this context's cache snapshot lives (inside the store)."""
        return str(self.store.cache_path)

    def library_path(self) -> str:
        """Root directory of the ahead-of-time graph library (may not exist).

        Resolved from ``config.library_dir`` (``REPRO_LIBRARY_DIR``), falling
        back to ``<results_dir>/library`` — the same derivation
        :mod:`repro.library.store` uses to place build artifacts.
        """
        return self.config.library_root()

    def save_caches(self, path: str | None = None) -> SnapshotStatus:
        """Persist this context's caches (default path: the store's snapshot).

        Each cache keeps its ``config.cache_max_entries`` most recently used
        entries (``<= 0``: no cap).
        """
        return self.caches.save_snapshot(
            path if path is not None else self.snapshot_path(),
            max_entries=self.config.cache_max_entries,
            enabled=self.config.eval_cache,
            lock_timeout=self.config.cache_lock_timeout,
        )

    def load_caches(self, path: str | None = None) -> SnapshotStatus:
        """Merge a persisted snapshot into this context's caches."""
        return self.caches.load_snapshot(
            path if path is not None else self.snapshot_path(),
            enabled=self.config.eval_cache,
            lock_timeout=self.config.cache_lock_timeout,
        )


# ---------------------------------------------------------------------------
# Ambient resolution
# ---------------------------------------------------------------------------

_DEFAULT: RuntimeContext | None = None


def default_context() -> RuntimeContext:
    """The process-default context, its config parsed from the environment once.

    The first call is the process edge: it reads ``REPRO_*`` through
    :meth:`RuntimeConfig.from_env` and builds the context (and its
    :class:`CacheSet`).  Every later call returns that same object; the
    environment is never consulted again.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = RuntimeContext(RuntimeConfig.from_env())
    return _DEFAULT


def current() -> RuntimeContext:
    """The ambient context: innermost activation, else the process default."""
    context = _ACTIVE.get()
    return context if context is not None else default_context()
