"""The typed runtime configuration (`RuntimeConfig`) and its env-var edge.

Every runtime knob is a field of one frozen dataclass.  Each field carries a
**provenance** tag recording where its value came from:

* ``default`` — the field's built-in default (possibly derived, e.g. the
  compute dtype following the smoke flag);
* ``env`` — parsed from the corresponding ``REPRO_*`` environment variable
  by :meth:`RuntimeConfig.from_env`, which is called once at each process
  edge (CLI entry, first build of the process-default context);
* ``explicit`` — set through the API (:meth:`RuntimeConfig.with_overrides`,
  or a direct constructor call).

Environment variables are read only at the process edge: inside the
process, configuration travels as a :class:`RuntimeConfig` on a
:class:`~repro.runtime.context.RuntimeContext`, and changing a ``REPRO_*``
variable mid-process steers nothing.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

log = logging.getLogger(__name__)

#: Provenance tags a field's value can carry.
PROVENANCE_DEFAULT = "default"
PROVENANCE_ENV = "env"
PROVENANCE_EXPLICIT = "explicit"

#: config field -> the environment variable that backs it at the process edge.
ENV_KNOBS: dict[str, str] = {
    "smoke": "REPRO_SMOKE",
    "train_steps": "REPRO_TRAIN_STEPS",
    "dtype": "REPRO_DTYPE",
    "compiled_forward": "REPRO_COMPILED_FORWARD",
    "eval_cache": "REPRO_EVAL_CACHE",
    "eval_processes": "REPRO_EVAL_PROCESSES",
    "shards": "REPRO_SEARCH_SHARDS",
    "frontier_width": "REPRO_FRONTIER_WIDTH",
    "cache_max_entries": "REPRO_CACHE_MAX_ENTRIES",
    "cache_lock_timeout": "REPRO_CACHE_LOCK_TIMEOUT",
    "cache_live_sync": "REPRO_CACHE_LIVE_SYNC",
    "shard_timeout": "REPRO_SHARD_TIMEOUT",
    "shard_retries": "REPRO_SHARD_RETRIES",
    "fault_plan": "REPRO_FAULT_PLAN",
    "results_dir": "REPRO_RESULTS_DIR",
    "library_dir": "REPRO_LIBRARY_DIR",
    "seed": "REPRO_SEED",
    "verify_plans": "REPRO_VERIFY_PLANS",
    "warm_start": "REPRO_WARM_START",
}

_VALID_DTYPES = ("float32", "float64")

#: Values that turn a flag knob off (matching the historical env parsing).
_FALSY = ("", "0", "false", "no")


def env_int(name: str, default: int, environ: Mapping[str, str] | None = None) -> int:
    """An integer environment knob; malformed values fall back to the default."""
    environ = environ if environ is not None else os.environ
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        log.warning("ignoring malformed %s=%r (expected an integer)", name, raw)
        return default


def env_float(name: str, default: float, environ: Mapping[str, str] | None = None) -> float:
    """A float environment knob; malformed values fall back to the default."""
    environ = environ if environ is not None else os.environ
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        log.warning("ignoring malformed %s=%r (expected a number)", name, raw)
        return default


# ---------------------------------------------------------------------------
# The config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen, typed snapshot of every runtime knob, with per-field provenance.

    ``None`` for :attr:`train_steps` / :attr:`dtype` means "derived": the
    training budget follows the call site's full/smoke defaults and the dtype
    follows the smoke flag (float32 under smoke, float64 at full fidelity).
    Use :meth:`resolve_train_steps` / :meth:`dtype_name` for resolved values.
    """

    #: shrunken workloads (fewer models/layers/samples, smaller budgets).
    smoke: bool = False
    #: proxy-training step budget; ``None`` derives from ``smoke``.
    train_steps: int | None = None
    #: compute dtype name (``float32``/``float64``); ``None`` derives from ``smoke``.
    dtype: str | None = None
    #: run lowered operators through compiled execution plans.
    compiled_forward: bool = True
    #: whether the reward/baseline/compile/plan caches are active.
    eval_cache: bool = True
    #: worker processes for the legacy candidate-evaluation fan-out.
    eval_processes: int = 1
    #: worker shards for sharded search execution (1 = serial).
    shards: int = 1
    #: MCTS frontier width (rollouts proposed per reward wave).
    frontier_width: int = 8
    #: per-cache size cap of the persisted snapshot (``<= 0`` disables).
    cache_max_entries: int = 4096
    #: seconds to wait for the shared cache-store lock before giving up.
    cache_lock_timeout: float = 10.0
    #: merge shard-worker cache deltas through the shared store at wave
    #: boundaries, so concurrent processes share warmth live (not just at
    #: load/exit).
    cache_live_sync: bool = False
    #: per-shard wall-clock seconds before the supervised executor reaps a
    #: worker as hung (``<= 0`` disables the timeout).
    shard_timeout: float = 300.0
    #: supervised re-runs of a dead/hung shard before the executor falls back
    #: to in-process serial execution of that partition.
    shard_retries: int = 2
    #: fault-injection plan spec (see :mod:`repro.runtime.faults`); empty
    #: means no injected faults.
    fault_plan: str = ""
    #: root of the on-disk artifact store.
    results_dir: str = "results"
    #: root of the ahead-of-time graph library (see :mod:`repro.library`);
    #: empty derives ``<results_dir>/library`` (use :meth:`library_root`).
    library_dir: str = ""
    #: seed of the context's root RNG.
    seed: int = 0
    #: statically verify compiled execution plans before first execution.
    verify_plans: bool = False
    #: seed MCTS root frontiers (and the reward cache) from the graph
    #: library when one covers the searched spec (see
    #: :mod:`repro.library.warmstart`).
    warm_start: bool = False
    #: field name -> provenance tag; fields absent here are ``default``.
    provenance: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dtype is not None and self.dtype not in _VALID_DTYPES:
            raise ValueError(f"dtype must be one of {_VALID_DTYPES}, got {self.dtype!r}")
        if not self.provenance:
            # Direct construction: anything differing from the class default
            # was necessarily passed explicitly.
            tags = {
                name: PROVENANCE_EXPLICIT
                for name in ENV_KNOBS
                if getattr(self, name) != type(self).__dataclass_fields__[name].default
            }
            object.__setattr__(self, "provenance", tags)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "RuntimeConfig":
        """Parse a config from ``REPRO_*`` environment variables.

        This is the one place in the codebase where those variables are read.
        It is called at process edges only: the CLI entry and the first build
        of the process-default context (which the pytest bootstrap triggers).
        """
        environ = environ if environ is not None else os.environ
        values: dict[str, Any] = {}
        tags: dict[str, str] = {}

        def flag(field_name: str, default: bool) -> None:
            raw = environ.get(ENV_KNOBS[field_name])
            if raw is None:
                values[field_name] = default
                return
            # An empty string counts as set-and-falsy (`REPRO_EVAL_CACHE= cmd`
            # has always disabled the feature), matching the historical parse.
            values[field_name] = raw not in _FALSY
            tags[field_name] = PROVENANCE_ENV

        def integer(field_name: str, default: int, minimum: int | None = None) -> None:
            variable = ENV_KNOBS[field_name]
            raw = environ.get(variable)
            value = env_int(variable, default, environ)
            values[field_name] = max(value, minimum) if minimum is not None else value
            if raw not in (None, "") and value != default:
                tags[field_name] = PROVENANCE_ENV
            elif raw not in (None, ""):
                try:
                    int(raw)  # well-formed but equal to the default: still env
                    tags[field_name] = PROVENANCE_ENV
                except ValueError:
                    pass  # malformed: fell back to the default

        def floating(field_name: str, default: float, minimum: float | None = None) -> None:
            variable = ENV_KNOBS[field_name]
            raw = environ.get(variable)
            value = env_float(variable, default, environ)
            values[field_name] = max(value, minimum) if minimum is not None else value
            if raw not in (None, ""):
                try:
                    float(raw)
                    tags[field_name] = PROVENANCE_ENV
                except ValueError:
                    pass  # malformed: fell back to the default

        flag("smoke", False)
        flag("compiled_forward", True)
        flag("eval_cache", True)
        flag("verify_plans", False)
        flag("cache_live_sync", False)
        flag("warm_start", False)
        integer("eval_processes", 1, minimum=1)
        integer("shards", 1, minimum=1)
        integer("frontier_width", 8, minimum=1)
        integer("cache_max_entries", 4096)
        integer("seed", 0)
        integer("shard_retries", 2, minimum=0)
        floating("cache_lock_timeout", 10.0, minimum=0.0)
        floating("shard_timeout", 300.0)

        raw_plan = environ.get(ENV_KNOBS["fault_plan"])
        values["fault_plan"] = ""
        if raw_plan:
            values["fault_plan"] = raw_plan
            tags["fault_plan"] = PROVENANCE_ENV

        raw_steps = environ.get(ENV_KNOBS["train_steps"])
        values["train_steps"] = None
        if raw_steps not in (None, ""):
            try:
                values["train_steps"] = int(raw_steps)
                tags["train_steps"] = PROVENANCE_ENV
            except ValueError:
                log.warning(
                    "ignoring malformed %s=%r (expected an integer)",
                    ENV_KNOBS["train_steps"], raw_steps,
                )

        raw_dtype = environ.get(ENV_KNOBS["dtype"])
        values["dtype"] = None
        if raw_dtype:
            name = raw_dtype.strip().lower()
            if name in _VALID_DTYPES:
                values["dtype"] = name
                tags["dtype"] = PROVENANCE_ENV
            else:
                log.warning(
                    "ignoring malformed %s=%r (expected float32/float64)",
                    ENV_KNOBS["dtype"], raw_dtype,
                )

        raw_dir = environ.get(ENV_KNOBS["results_dir"])
        values["results_dir"] = "results"
        if raw_dir:
            values["results_dir"] = raw_dir
            tags["results_dir"] = PROVENANCE_ENV

        raw_library = environ.get(ENV_KNOBS["library_dir"])
        values["library_dir"] = ""
        if raw_library:
            values["library_dir"] = raw_library
            tags["library_dir"] = PROVENANCE_ENV

        return cls(provenance=tags, **values)

    def with_overrides(self, **overrides: Any) -> "RuntimeConfig":
        """A copy with the given fields replaced, tagged ``explicit``."""
        unknown = sorted(set(overrides) - set(ENV_KNOBS))
        if unknown:
            raise TypeError(f"unknown RuntimeConfig field(s): {', '.join(unknown)}")
        tags = {**dict(self.provenance), **dict.fromkeys(overrides, PROVENANCE_EXPLICIT)}
        return dataclasses.replace(self, provenance=tags, **overrides)

    # -- derived values ------------------------------------------------------

    def dtype_name(self) -> str:
        """The resolved compute dtype (float32 under smoke, float64 otherwise)."""
        return self.dtype if self.dtype is not None else (
            "float32" if self.smoke else "float64"
        )

    def resolve_train_steps(self, full: int = 40, smoke: int = 8) -> int:
        """The proxy-training budget: explicit steps win, else smoke/full."""
        if self.train_steps is not None:
            return self.train_steps
        return smoke if self.smoke else full

    def tuning_trials(self, full: int, smoke: int | None = None) -> int:
        """The schedule-tuning trial budget, shrunk under smoke mode."""
        if not self.smoke:
            return full
        return smoke if smoke is not None else max(full // 3, 8)

    def smoke_value(self, full, smoke):
        """Pick between the full-fidelity and smoke value of a knob."""
        return smoke if self.smoke else full

    def library_root(self) -> str:
        """The resolved graph-library root (defaults under ``results_dir``)."""
        if self.library_dir:
            return self.library_dir
        return os.path.join(self.results_dir, "library")

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Resolved field -> value mapping (what records and ``repro config`` show)."""
        return {
            "smoke": self.smoke,
            "train_steps": self.train_steps,
            "dtype": self.dtype_name(),
            "compiled_forward": self.compiled_forward,
            "eval_cache": self.eval_cache,
            "eval_processes": self.eval_processes,
            "shards": self.shards,
            "frontier_width": self.frontier_width,
            "cache_max_entries": self.cache_max_entries,
            "cache_lock_timeout": self.cache_lock_timeout,
            "cache_live_sync": self.cache_live_sync,
            "shard_timeout": self.shard_timeout,
            "shard_retries": self.shard_retries,
            "fault_plan": self.fault_plan,
            "results_dir": self.results_dir,
            "library_dir": self.library_root(),
            "seed": self.seed,
            "verify_plans": self.verify_plans,
            "warm_start": self.warm_start,
        }

    def provenance_map(self) -> dict[str, str]:
        """field -> provenance for every field (``default`` when untagged)."""
        return {name: self.provenance.get(name, PROVENANCE_DEFAULT) for name in ENV_KNOBS}
