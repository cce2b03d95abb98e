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
from typing import Any, Callable, Mapping

log = logging.getLogger(__name__)

#: Provenance tags a field's value can carry.
PROVENANCE_DEFAULT = "default"
PROVENANCE_ENV = "env"
PROVENANCE_EXPLICIT = "explicit"

_VALID_DTYPES = ("float32", "float64")

#: Values that turn a flag knob off (matching the historical env parsing).
_FALSY = ("", "0", "false", "no")

_INTEGER = "an integer"
_NUMBER = "a number"


@dataclass(frozen=True)
class _Knob:
    """How one config field is read at the process edge."""

    #: the ``REPRO_*`` environment variable backing the field.
    variable: str
    #: raw value -> field value; raises ``ValueError`` on a malformed value.
    parse: Callable[[str], Any]
    #: what a well-formed value looks like (the malformed-value warning).
    expected: str = ""


def _knob(default: Any, variable: str, parse: Callable[[str], Any], expected: str = "") -> Any:
    """A config field backed by ``variable`` (see :class:`_Knob`)."""
    return field(default=default, metadata={"knob": _Knob(variable, parse, expected)})


def _flag(raw: str) -> bool:
    return raw not in _FALSY


def _at_least(convert: Callable[[str], Any], minimum: Any) -> Callable[[str], Any]:
    """A parser that floors the converted value at ``minimum``."""
    return lambda raw: max(convert(raw), minimum)


def _dtype(raw: str) -> str:
    name = raw.strip().lower()
    if name not in _VALID_DTYPES:
        raise ValueError(raw)
    return name


# ---------------------------------------------------------------------------
# The config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen, typed snapshot of every runtime knob, with per-field provenance.

    Each field declares its ``REPRO_*`` variable and parser once, as field
    metadata; :meth:`from_env`, :meth:`describe` and :data:`ENV_KNOBS` are
    derived from the fields.

    ``None`` for :attr:`train_steps` / :attr:`dtype` means "derived": the
    training budget follows the call site's full/smoke defaults and the dtype
    follows the smoke flag (float32 under smoke, float64 at full fidelity).
    Use :meth:`resolve_train_steps` / :meth:`dtype_name` for resolved values.
    """

    #: shrunken workloads (fewer models/layers/samples, smaller budgets).
    smoke: bool = _knob(False, "REPRO_SMOKE", _flag)
    #: proxy-training step budget; ``None`` derives from ``smoke``.
    train_steps: int | None = _knob(None, "REPRO_TRAIN_STEPS", int, _INTEGER)
    #: compute dtype name (``float32``/``float64``); ``None`` derives from ``smoke``.
    dtype: str | None = _knob(None, "REPRO_DTYPE", _dtype, "float32/float64")
    #: run lowered operators through compiled execution plans.
    compiled_forward: bool = _knob(True, "REPRO_COMPILED_FORWARD", _flag)
    #: whether the reward/baseline/compile/plan/lowering caches are active.
    eval_cache: bool = _knob(True, "REPRO_EVAL_CACHE", _flag)
    #: worker processes for the legacy candidate-evaluation fan-out.
    eval_processes: int = _knob(1, "REPRO_EVAL_PROCESSES", _at_least(int, 1), _INTEGER)
    #: worker shards for MCTS reward waves and every other sharded map
    #: (1 = serial, in process).
    shards: int = _knob(1, "REPRO_SEARCH_SHARDS", _at_least(int, 1), _INTEGER)
    #: MCTS frontier width (rollouts proposed per reward wave).
    frontier_width: int = _knob(8, "REPRO_FRONTIER_WIDTH", _at_least(int, 1), _INTEGER)
    #: per-cache size cap of the persisted snapshot (``<= 0`` disables).
    cache_max_entries: int = _knob(4096, "REPRO_CACHE_MAX_ENTRIES", int, _INTEGER)
    #: seconds to wait for the shared cache-store lock before giving up.
    cache_lock_timeout: float = _knob(
        10.0, "REPRO_CACHE_LOCK_TIMEOUT", _at_least(float, 0.0), _NUMBER
    )
    #: merge shard-worker cache deltas through the shared store at wave
    #: boundaries, so concurrent processes share warmth live (not just at
    #: load/exit).
    cache_live_sync: bool = _knob(False, "REPRO_CACHE_LIVE_SYNC", _flag)
    #: per-shard wall-clock seconds before the supervised executor reaps a
    #: worker as hung (``<= 0`` disables the timeout).
    shard_timeout: float = _knob(300.0, "REPRO_SHARD_TIMEOUT", float, _NUMBER)
    #: supervised re-runs of a dead/hung shard before the executor falls back
    #: to in-process serial execution of that partition.
    shard_retries: int = _knob(2, "REPRO_SHARD_RETRIES", _at_least(int, 0), _INTEGER)
    #: fault-injection plan spec (see :mod:`repro.runtime.faults`); empty
    #: means no injected faults.
    fault_plan: str = _knob("", "REPRO_FAULT_PLAN", str)
    #: root of the on-disk artifact store.
    results_dir: str = _knob("results", "REPRO_RESULTS_DIR", str)
    #: root of the ahead-of-time graph library (see :mod:`repro.library`);
    #: empty derives ``<results_dir>/library`` (use :meth:`library_root`).
    library_dir: str = _knob("", "REPRO_LIBRARY_DIR", str)
    #: seed of the context's root RNG (and of every MCTS search).
    seed: int = _knob(0, "REPRO_SEED", int, _INTEGER)
    #: statically verify compiled execution plans before first execution.
    verify_plans: bool = _knob(False, "REPRO_VERIFY_PLANS", _flag)
    #: seed MCTS root frontiers (and the reward cache) from the graph
    #: library when one covers the searched spec (see
    #: :mod:`repro.library.warmstart`).
    warm_start: bool = _knob(False, "REPRO_WARM_START", _flag)
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
        A malformed value is logged and leaves its field at the default.
        """
        environ = environ if environ is not None else os.environ
        values: dict[str, Any] = {}
        for name, knob in _KNOBS.items():
            raw = environ.get(knob.variable)
            # An empty flag counts as set-and-falsy (`REPRO_EVAL_CACHE= cmd`
            # has always disabled the cache); any other empty knob is unset.
            if raw is None or (raw == "" and knob.parse is not _flag):
                continue
            try:
                values[name] = knob.parse(raw)
            except ValueError:
                log.warning(
                    "ignoring malformed %s=%r (expected %s)", knob.variable, raw, knob.expected
                )
        return cls(provenance=dict.fromkeys(values, PROVENANCE_ENV), **values)

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
        values = {name: getattr(self, name) for name in ENV_KNOBS}
        values.update(dtype=self.dtype_name(), library_dir=self.library_root())
        return values

    def provenance_map(self) -> dict[str, str]:
        """field -> provenance for every field (``default`` when untagged)."""
        return {name: self.provenance.get(name, PROVENANCE_DEFAULT) for name in ENV_KNOBS}


_KNOBS: dict[str, _Knob] = {
    config_field.name: config_field.metadata["knob"]
    for config_field in dataclasses.fields(RuntimeConfig)
    if "knob" in config_field.metadata
}

#: config field -> the environment variable that backs it at the process edge.
ENV_KNOBS: dict[str, str] = {name: knob.variable for name, knob in _KNOBS.items()}
