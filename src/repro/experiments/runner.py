"""One entry point for every paper experiment: config in, ResultRecord out.

Both the ``repro`` CLI and the benchmark suite run experiments through
:func:`run_experiment`, so a figure regenerated from pytest and one
regenerated from the command line go through *identical* code and produce
directly comparable :class:`~repro.results.ResultRecord` artifacts.

The registry maps each experiment name (``figure5`` ... ``alphanas``) to the
module whose ``run()`` function runs it, plus a small metrics extractor that
flattens the experiment's result dataclass into the record's ``metrics``
dict.  Listing the registry imports no experiment module; a run imports only
its own.  Configuration flows two ways:

* **Runtime overrides** — ``smoke``/``train_steps``/``processes``/``shards``
  become explicit field overrides on a :class:`repro.runtime.RuntimeContext`
  *derived* from the ambient one (same warm caches, new frozen config) and
  activated for the duration of the run.  The resolved config and its
  per-field provenance (default/env/explicit) are captured into the record's
  ``environment`` — replacing the old raw ``REPRO_*`` env capture.
* **Keyword options** — ``seed`` and any per-experiment ``options`` (e.g.
  ``models=["resnet18"]`` for figure5) are passed straight to the
  experiment's ``run()``, filtered to the parameters it actually accepts.

Interrupted (``KeyboardInterrupt``) and failed runs still produce a record —
with status ``interrupted``/``failed`` — before the exception propagates, so
a persisted store plus the persisted caches make any run resumable: the rerun
reloads the cache snapshot and skips every work item the first attempt
finished.
"""

from __future__ import annotations

import importlib
import inspect
import logging
import time
import uuid
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.results.records import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    ResultRecord,
    sanitize_metrics,
)
from repro.results.store import ArtifactStore
from repro.runtime import RuntimeConfig, RuntimeContext, current

log = logging.getLogger(__name__)

#: Sentinel for :func:`run_experiment`'s ``store`` argument: "write the record
#: through the run's *own* context store".  It resolves to ``runtime.store``
#: only after the run context is derived, so two concurrent runs under
#: contexts with distinct ``results_dir`` roots each write through to their
#: own store — a caller holding one shared ``ArtifactStore`` object cannot
#: accidentally interleave both runs' records into one root.
CONTEXT_STORE = "context-store"


@dataclass
class ExperimentConfig:
    """Run configuration shared by the CLI and the benchmark harness.

    ``None`` always means "inherit the ambient runtime config" — an empty
    config runs the experiment exactly as the bare module-level ``run()``
    would.
    """

    #: ``RuntimeConfig.smoke`` for the run; None → inherit.
    smoke: bool | None = None
    #: proxy-training step budget (``RuntimeConfig.train_steps``); None → inherit.
    train_steps: int | None = None
    #: worker processes for candidate evaluation (``RuntimeConfig.eval_processes``).
    processes: int | None = None
    #: worker shards for sharded search execution (``RuntimeConfig.shards``).
    #: Results are bit-identical at any shard or process count, so the
    #: runner excludes this field and ``processes`` from the *fingerprinted*
    #: config — a parallel run and its serial sibling must agree on the
    #: fingerprint.  ``repro report`` reads both counts from the record's
    #: captured environment instead.
    shards: int | None = None
    #: random seed passed to experiments that accept one; None → their default.
    seed: int | None = None
    #: extra keyword arguments for the experiment's ``run()`` (e.g. models=[...]).
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "smoke": self.smoke,
            "train_steps": self.train_steps,
            "processes": self.processes,
            "shards": self.shards,
            "seed": self.seed,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        return cls(
            smoke=payload.get("smoke"),
            train_steps=payload.get("train_steps"),
            processes=payload.get("processes"),
            shards=payload.get("shards"),
            seed=payload.get("seed"),
            options=dict(payload.get("options") or {}),
        )

    def runtime_overrides(self) -> dict:
        """The :class:`~repro.runtime.RuntimeConfig` fields this config pins.

        The runner applies these with ``RuntimeContext.derive`` — an explicit,
        frozen config for the duration of the run, sharing the ambient
        context's warm caches.
        """
        overrides: dict = {}
        if self.smoke is not None:
            overrides["smoke"] = self.smoke
        if self.train_steps is not None:
            overrides["train_steps"] = self.train_steps
        if self.processes is not None:
            overrides["eval_processes"] = self.processes
        if self.shards is not None:
            overrides["shards"] = self.shards
        if self.seed is not None:
            overrides["seed"] = self.seed
        return overrides


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: the module whose ``run()`` runs one experiment, and its metrics."""

    name: str
    module: str
    metrics: Callable[[Any], dict]
    description: str


@dataclass
class RunOutcome:
    """What :func:`run_experiment` returns: the record plus the live result.

    ``record`` is the durable artifact; ``result`` is the experiment's
    original result dataclass (``Figure5Result``, ``Table3Result``, ...) for
    callers — like the benchmark assertions — that need the full object.
    """

    record: ResultRecord
    result: Any


# ---------------------------------------------------------------------------
# Metrics extractors (result dataclass -> flat dict)
# ---------------------------------------------------------------------------


def _figure5_metrics(result) -> dict:
    metrics: dict[str, float] = {"rows": len(result.rows)}
    for backend in sorted({row.backend for row in result.rows}):
        for target in sorted({row.target for row in result.rows}):
            metrics[f"geomean_speedup_{backend}_{target}"] = result.geomean_speedup(target, backend)
    return metrics


def _figure6_metrics(result) -> dict:
    metrics: dict[str, float] = {"points": len(result.points)}
    models = sorted({point.model for point in result.points})
    for model in models:
        points = [p for p in result.points if p.model == model]
        baseline = next((p for p in points if p.candidate == "baseline"), None)
        best = min(
            (p for p in points if p.candidate != "baseline"),
            key=lambda p: p.latency_ms,
            default=None,
        )
        if baseline is not None:
            metrics[f"{model}_baseline_accuracy"] = baseline.accuracy
            metrics[f"{model}_baseline_latency_ms"] = baseline.latency_ms
        if best is not None:
            metrics[f"{model}_best_latency_ms"] = best.latency_ms
        if baseline is not None and best is not None:
            metrics[f"{model}_best_speedup"] = baseline.latency_ms / max(best.latency_ms, 1e-12)
    return metrics


def _figure8_metrics(result) -> dict:
    metrics: dict[str, float] = {}
    for point in result.points:
        metrics[f"{point.variant}_accuracy"] = point.accuracy
        metrics[f"{point.variant}_latency_ms"] = point.latency_ms
    return metrics


def _figure9_metrics(result) -> dict:
    flops_low, flops_high = result.flops_reduction_range()
    params_low, params_high = result.parameter_reduction_range()
    return {
        "layers_compared": len(result.comparisons),
        "geomean_vs_naspte_mobile_cpu_tvm": result.syno_vs_naspte_geomean("mobile_cpu", "tvm"),
        "geomean_vs_naspte_a100_torchinductor": result.syno_vs_naspte_geomean(
            "a100", "torchinductor"
        ),
        "flops_reduction_min": flops_low,
        "flops_reduction_max": flops_high,
        "parameter_reduction_min": params_low,
        "parameter_reduction_max": params_high,
    }


def _figure10_metrics(result) -> dict:
    return {
        "baseline_perplexity": result.baseline_perplexity,
        "syno_perplexity": result.syno_perplexity,
        "training_speedup": result.training_speedup,
        "train_steps_recorded": len(result.baseline_losses),
    }


def _table3_metrics(result) -> dict:
    metrics = {
        "samples_total": result.samples_total,
        "samples_canonical": result.samples_canonical,
        "redundancy_factor": result.redundancy_factor,
    }
    for size in sorted(result.per_size):
        metrics[f"canonical_rate_size_{size}"] = result.canonical_rate(size)
    return metrics


def _materialization_metrics(result) -> dict:
    metrics: dict[str, float] = {}
    for row in result.rows:
        metrics[f"{row.operator}_gain"] = row.gain
    return metrics


def _shape_distance_metrics(result) -> dict:
    return {
        "trials": result.trials,
        "guided_valid": result.guided_valid,
        "guided_distinct": result.guided_distinct,
        "unguided_valid": result.unguided_valid,
        "unguided_distinct": result.unguided_distinct,
        "yield_ratio": result.yield_ratio,
    }


def _search_metrics(result) -> dict:
    metrics: dict[str, float] = {
        "iterations": result.iterations,
        "max_depth": result.max_depth,
        "train_steps": result.train_steps,
        "baseline_reward": result.baseline_reward,
        "baseline_perplexity": result.baseline_perplexity,
        "evaluations": result.evaluations,
        "qualified": len(result.candidates),
    }
    best = result.best()
    if best is not None:
        metrics["best_reward"] = best.reward
        metrics["best_perplexity"] = best.perplexity
        metrics["best_macs"] = best.macs
        metrics["best_speedup"] = best.speedup
    return metrics


def _alphanas_metrics(result) -> dict:
    metrics: dict[str, float] = {}
    for row in result.rows:
        metrics[f"{row.model}_alphanas_flops_reduction"] = row.alphanas_flops_reduction
        metrics[f"{row.model}_syno_flops_reduction"] = row.syno_flops_reduction
        metrics[f"{row.model}_syno_inference_speedup"] = row.syno_inference_speedup
    return metrics


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


#: Every experiment, in registry order.  A spec names its module instead of
#: holding its ``run()``, so listing names and descriptions imports no
#: experiment; :func:`run_experiment` imports the one it runs.
_EXPERIMENTS: Mapping[str, ExperimentSpec] = MappingProxyType({
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "figure5", "repro.experiments.figure5", _figure5_metrics,
            "End-to-end speedups of Syno-optimized models (5 models x 3 targets x 2 compilers)",
        ),
        ExperimentSpec(
            "figure6", "repro.experiments.figure6", _figure6_metrics,
            "Accuracy-vs-latency Pareto curves (baseline vs Syno candidates)",
        ),
        ExperimentSpec(
            "figure8", "repro.experiments.figure8", _figure8_metrics,
            "Case study: Operator 1 vs stacked convolution vs INT8 quantization",
        ),
        ExperimentSpec(
            "figure9", "repro.experiments.figure9", _figure9_metrics,
            "Layer-wise comparison against NAS-PTE on ResNet-34",
        ),
        ExperimentSpec(
            "figure10", "repro.experiments.figure10", _figure10_metrics,
            "GPT-2 perplexity and training speedup with grouped QKV projections",
        ),
        ExperimentSpec(
            "table3", "repro.experiments.table3", _table3_metrics,
            "Canonicalization ablation: canonical rates by pGraph size",
        ),
        ExperimentSpec(
            "ablation-materialization", "repro.experiments.ablation_materialization",
            _materialization_metrics,
            "Materialized-reduction ablation: naive vs staged lowering MACs",
        ),
        ExperimentSpec(
            "ablation-shape-distance", "repro.experiments.ablation_shape_distance",
            _shape_distance_metrics,
            "Shape-distance ablation: guided vs unguided random synthesis yield",
        ),
        ExperimentSpec(
            "alphanas", "repro.experiments.alphanas_comparison", _alphanas_metrics,
            "Comparison with aNAS: FLOPs reduction and inference speedup",
        ),
        ExperimentSpec(
            "search", "repro.experiments.search", _search_metrics,
            "End-to-end MCTS search over the GPT-2 QKV projection slot (the serve workload)",
        ),
    )
})


def _registry() -> Mapping[str, ExperimentSpec]:
    """The experiment table every lookup reads (tests substitute their own)."""
    return _EXPERIMENTS


def experiment_names() -> list[str]:
    """Every runnable experiment name, in registry order."""
    return list(_registry())


def experiment_descriptions() -> dict[str, str]:
    """name → one-line description, for ``repro list`` and ``--help``."""
    return {name: spec.description for name, spec in _registry().items()}


def get_experiment(name: str) -> ExperimentSpec:
    registry = _registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown experiment {name!r}; expected one of: {known}") from None


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def runtime_environment(config: RuntimeConfig) -> dict:
    """What a record's ``environment`` field holds: resolved config + provenance.

    ``environment["runtime"]`` maps every config field to its resolved value
    and ``environment["provenance"]`` to where that value came from
    (``default`` / ``env`` / ``explicit``) — replacing the raw ``REPRO_*``
    capture of earlier record versions.
    """
    return {"runtime": config.describe(), "provenance": config.provenance_map()}


def _accepted_kwargs(fn: Callable[..., Any], kwargs: dict) -> dict:
    """The subset of ``kwargs`` that ``fn`` can actually receive."""
    parameters = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return dict(kwargs)
    return {name: value for name, value in kwargs.items() if name in parameters}


def _new_run_id(experiment: str) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    return f"{experiment}-{stamp}-{uuid.uuid4().hex[:6]}"


def run_experiment(
    name: str,
    config: ExperimentConfig | None = None,
    store: "ArtifactStore | str | None" = None,
) -> RunOutcome:
    """Run one registered experiment and return its record plus live result.

    When ``store`` is given the record is saved there — including for
    interrupted and failed runs, whose partial record (status, error, cache
    activity) is written *before* the exception propagates.  Passing the
    :data:`CONTEXT_STORE` sentinel resolves to the run context's own store
    (``runtime.store``) after deriving, so concurrent runs into distinct
    ``results_dir`` roots write through to their own stores.  Cache snapshot
    persistence is the caller's concern (the CLI saves/loads around this
    call) so that pytest-driven runs stay free of disk side effects.
    """
    spec = get_experiment(name)
    config = config or ExperimentConfig()
    # Only this experiment is imported, and before the record is built:
    # which options its run() accepts decides the fingerprinted config.
    run = importlib.import_module(spec.module).run

    requested = dict(config.options)
    if config.seed is not None:
        requested["seed"] = config.seed
    kwargs = _accepted_kwargs(run, requested)
    dropped = sorted(set(requested) - set(kwargs))
    if dropped:
        log.warning(
            "%s.run() does not accept %s — ignored (check --option spelling)",
            name,
            ", ".join(dropped),
        )
    # Record (and fingerprint) only what was actually applied: a dropped
    # option or an inapplicable --seed must not make two identical runs
    # compare as different.
    applied_config = config.to_dict()
    if "seed" in dropped:
        applied_config["seed"] = None
    # Shard and process counts never change results (that's the sharded
    # executor's guarantee), so they must not change the fingerprint either —
    # `repro run --shards 4` or `--processes 2` and the serial run produce
    # the same record identity.  The counts themselves are still recorded:
    # the resolved config lands in the record's environment, which is where
    # `repro report` reads them from.
    applied_config["shards"] = None
    applied_config["processes"] = None
    applied_config["options"] = {
        key: value for key, value in applied_config["options"].items() if key not in dropped
    }

    # Derive the run's runtime context from the ambient one: an explicit,
    # frozen config (field overrides tagged "explicit") over the *same* warm
    # caches — cache keys already encode every knob that affects a cached
    # value, so sharing is safe and keeps repeated runs cheap.
    runtime = current().derive(**config.runtime_overrides())
    if isinstance(store, str):
        if store != CONTEXT_STORE:
            raise ValueError(
                f"store must be an ArtifactStore, None, or CONTEXT_STORE; got {store!r}"
            )
        store = runtime.store

    record = ResultRecord(
        run_id=_new_run_id(name),
        experiment=name,
        status=STATUS_FAILED,
        config=applied_config,
        environment=runtime_environment(runtime.config),
        # Microsecond resolution: the store orders runs by started_at, and
        # back-to-back runs of a fast experiment can land in the same second.
        started_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
    stats_before = runtime.caches.stats()
    start = time.perf_counter()
    try:
        with runtime.activate():
            result = run(**kwargs)
    except BaseException as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        record.status = STATUS_INTERRUPTED if interrupted else STATUS_FAILED
        record.error = f"{type(exc).__name__}: {exc}"
        _finalize(record, runtime, stats_before, start)
        if store is not None:
            store.save(record)
        raise
    record.status = STATUS_COMPLETED
    record.metrics = sanitize_metrics(spec.metrics(result))
    record.table = result.to_table() if hasattr(result, "to_table") else ""
    _finalize(record, runtime, stats_before, start)
    if store is not None:
        store.save(record)
    return RunOutcome(record=record, result=result)


def _finalize(
    record: ResultRecord, runtime: RuntimeContext, stats_before: dict, start: float
) -> None:
    record.finished_at = datetime.now(timezone.utc).isoformat(timespec="microseconds")
    record.duration_seconds = round(time.perf_counter() - start, 3)
    record.cache_stats = {
        name: asdict(lookups) for name, lookups in runtime.caches.stats_since(stats_before).items()
    }
    # Supervised-executor diagnostics: every worker death/timeout the run
    # survived, as structured data.  Lives in `environment` (not fingerprinted
    # — a degraded-but-recovered run is result-identical to a clean one) and
    # feeds the `repro run` summary and `repro chaos`'s fired-plan assertion.
    failures = runtime.drain_shard_failures()
    if failures:
        record.environment["shard_failures"] = [f.to_dict() for f in failures]
