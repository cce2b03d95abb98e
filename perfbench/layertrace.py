"""Timing shims installed from outside the program, and the spans they record.

A :class:`Tracer` wraps a fixed list of the program's public functions (see
:data:`TARGETS`).  Each wrapper records a span — name, start, end, parent
span, op id — in memory, or only bumps a counter for functions too hot to
read the clock around.  Installing a shim rebinds every ``repro.*`` module
attribute bound to the original function object (modules import these
functions by name), and class attributes for methods; :meth:`Tracer.uninstall`
puts every original back, including bindings made by modules imported while
the shims were live.

Forked shard workers inherit the shims.  After a fork the worker drops the
parent's spans and writes its own to ``spans-<pid>.json`` in the tracer's
spill directory when it exits, so work done inside workers reaches the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: (layer name, module, qualified attribute, kind).  ``span`` records a timed
#: span; ``count`` only counts calls and never reads the clock.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("ir.size.mul", "repro.ir.size", "Size.__mul__", "count"),
    ("ir.size.evaluate", "repro.ir.size", "Size.evaluate", "count"),
    ("core.enumerate", "repro.core.enumeration", "enumerate_children", "span"),
    ("core.shape_distance", "repro.core.shape_distance", "shape_distance", "span"),
    ("core.mcts.propose", "repro.core.mcts", "MCTS.propose_batch", "span"),
    ("codegen.loopnest", "repro.codegen.loopnest", "lower_to_loopnest", "span"),
    ("codegen.plan", "repro.codegen.plan", "compile_plan", "span"),
    ("nn.train", "repro.nn.trainer", "Trainer.fit_language_model", "span"),
    ("nn.train", "repro.nn.trainer", "Trainer.fit_classifier", "span"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", "span"),
    ("compiler.compile", "repro.compiler.backends", "CompilerBackend.compile", "span"),
    ("search.reward", "repro.experiments.search", "ProjectionEvaluator.evaluate", "span"),
    ("search.parallel", "repro.search.parallel", "sharded_map", "span"),
    ("runtime.store.publish", "repro.runtime.store", "SharedCacheStore.publish", "span"),
    ("runtime.store.load", "repro.runtime.store", "SharedCacheStore.load", "span"),
    ("library.embed", "repro.library.embeddings", "feature_vector", "span"),
    ("library.embed", "repro.library.embeddings", "nearest_neighbours", "span"),
    ("library.write", "repro.library.store", "write_frames_atomic", "span"),
)

#: log messages counted as wasted work: (logger, message prefix, counter).
LOG_COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("repro.experiments.search", "candidate %s received zero reward", "search.reward.zero_by_error"),
    ("repro.search.evaluator", "candidate received zero reward", "search.reward.zero_by_error"),
    ("repro.search.evaluator", "operator not lowerable at slot", "search.latency.lowering_skips"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None
    pid: int
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class _CountingHandler(logging.Handler):
    def __init__(self, tracer: "Tracer", logger_name: str) -> None:
        super().__init__(logging.DEBUG)
        self.tracer = tracer
        self.rules = [(prefix, counter) for name, prefix, counter in LOG_COUNTERS if name == logger_name]

    def emit(self, record: logging.LogRecord) -> None:
        message = str(record.msg)
        for prefix, counter in self.rules:
            if message.startswith(prefix):
                self.tracer.counters[counter] += 1


class Tracer:
    """Spans and counters from shims around the program's public functions."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object, object]] = []
        self._handlers: list[tuple[logging.Logger, logging.Handler, int]] = []
        self._signatures: dict[int, tuple[object, str]] = {}
        self._seen_lowerings: set = set()
        self.installed = False

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, hook=None) -> object:
        """Run ``fn`` inside a span named ``name``."""
        after = hook(self, fn, args, kwargs) if hook is not None else None
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.op, self.pid, failed))
        if after is not None:
            after(result)
        return result

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(fn.__qualname__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def signature_of(self, graph) -> str:
        """``graph.signature()``, memoized by object for the repeat-ratio key."""
        cached = self._signatures.get(id(graph))
        if cached is None or cached[0] is not graph:
            cached = (graph, graph.signature())
            self._signatures[id(graph)] = cached
        return cached[1]

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target and attach the wasted-work log counters."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for name, module_name, attribute, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attribute.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = inspect.getattr_static(holder, leaf)
            make = self._count_wrapper if kind == "count" else self._span_wrapper
            wrapper = make(name, original)
            if owner:
                self._patches.append((holder, leaf, original, wrapper))
                setattr(holder, leaf, wrapper)
            for bound_module, bound_name in _module_bindings(original):
                self._patches.append((bound_module, bound_name, original, wrapper))
                setattr(bound_module, bound_name, wrapper)
        for logger_name in sorted({name for name, _, _ in LOG_COUNTERS}):
            logger = logging.getLogger(logger_name)
            handler = _CountingHandler(self, logger_name)
            self._handlers.append((logger, handler, logger.level))
            logger.addHandler(handler)
            logger.setLevel(logging.DEBUG)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original, including bindings made while installed."""
        wrappers = {id(wrapper): original for _, _, original, wrapper in self._patches}
        for holder, leaf, original, wrapper in reversed(self._patches):
            if vars(holder).get(leaf) is wrapper:
                setattr(holder, leaf, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        self._patches.clear()
        for logger, handler, level in self._handlers:
            logger.removeHandler(handler)
            logger.setLevel(level)
        self._handlers.clear()
        self.installed = False

    # -- worker processes ----------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start an empty trace, spilled at worker exit."""
        if not self.installed:
            return
        self.pid = os.getpid()
        self.spans = []
        self.counters.clear()  # in place: the count wrappers hold this dict
        self._stack = []
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        payload = {
            "pid": self.pid,
            "spans": [list(span.__dict__.values()) for span in self.spans],
            "counters": dict(self.counters),
        }
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def absorb_worker_spills(self) -> int:
        """Merge every worker's spilled spans and counters; returns workers read."""
        count = 0
        for entry in sorted(os.listdir(self.spill_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.spill_dir, entry)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            os.remove(path)
            self.spans.extend(Span(*fields) for fields in payload["spans"])
            for key, value in payload["counters"].items():
                self.counters[key] += value
            count += 1
        return count

    def dump(self, path: str) -> None:
        """Write every recorded span (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _module_bindings(function: object) -> list[tuple[object, str]]:
    """Every (repro module, attribute name) bound to ``function``."""
    return [
        (module, attr)
        for module in _repro_modules()
        for attr, value in list(vars(module).items())
        if value is function
    ]


# ---------------------------------------------------------------------------
# Per-target hooks: counts read from arguments and results
# ---------------------------------------------------------------------------


def _enumerate_hook(tracer: Tracer, fn, args, kwargs):
    def after(result):
        tracer.counters["core.enumerate.children"] += len(result)

    return after


def _propose_hook(tracer: Tracer, fn, args, kwargs):
    def after(result):
        tracer.counters["core.mcts.rollouts"] += len(result)
        tracer.counters["core.mcts.rewarded"] += sum(1 for p in result if p.signature is not None)

    return after


def _lowering_hook(tracer: Tracer, fn, args, kwargs):
    operator = args[0] if args else kwargs["operator"]
    binding = args[1] if len(args) > 1 else kwargs["binding"]
    key = (
        tracer.signature_of(operator.graph),
        tuple(sorted((var.name, int(value)) for var, value in binding.items())),
    )
    if key in tracer._seen_lowerings:
        tracer.counters["codegen.loopnest.repeats"] += 1
    else:
        tracer._seen_lowerings.add(key)
    return None


def _train_hook(tracer: Tracer, fn, args, kwargs):
    def after(result):
        tracer.counters["nn.train.steps"] += result.steps

    return after


def _sharded_map_hook(tracer: Tracer, fn, args, kwargs):
    from repro.runtime import current

    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    runtime = bound.get("runtime") or current()
    shards = bound.get("shards") or max(runtime.config.shards, 1)
    items = bound.get("items")
    fans_out = (
        shards > 1
        and bound.get("max_workers") != 1
        and hasattr(items, "__len__")
        and len(items) > 1
    )
    failures_before = len(runtime.shard_failures)

    def after(result):
        if fans_out:
            tracer.counters["search.parallel.fanouts"] += 1
            tracer.counters["search.parallel.fanout_s"] += tracer.spans[-1].duration
        tracer.counters["search.parallel.shard_failures"] += max(
            len(runtime.shard_failures) - failures_before, 0
        )

    return after


def _reward_hook(tracer: Tracer, fn, args, kwargs):
    tracer.counters["search.reward.evaluations"] += 1
    return None


def _store_hook(tracer: Tracer, fn, args, kwargs):
    def after(result):
        status = result[1] if isinstance(result, tuple) else result
        tracer.counters["runtime.store.lock_wait_s"] += getattr(status, "lock_wait_seconds", 0.0)

    return after


_HOOKS = {
    "enumerate_children": _enumerate_hook,
    "MCTS.propose_batch": _propose_hook,
    "lower_to_loopnest": _lowering_hook,
    "Trainer.fit_language_model": _train_hook,
    "Trainer.fit_classifier": _train_hook,
    "sharded_map": _sharded_map_hook,
    "ProjectionEvaluator.evaluate": _reward_hook,
    "SharedCacheStore.publish": _store_hook,
    "SharedCacheStore.load": _store_hook,
}


# ---------------------------------------------------------------------------
# Derivation: self time per layer
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Layer name -> total self time: span time minus its direct children's."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[(span.pid, span.parent)] += span.duration
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - child_time.get((span.pid, span.span_id), 0.0)
    return totals
