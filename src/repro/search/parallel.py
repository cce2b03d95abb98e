"""Sharded search execution with a deterministic merge (the scaling layer).

MCTS reward waves, candidate evaluation and the experiment modules all reduce
to the same shape of work: a list of *pure* work items (each a function of a
small picklable description — an operator to proxy-train, a candidate to
tune) whose results must come back in input order.  :func:`sharded_map` is
the one primitive that fans such a list out over ``RuntimeConfig.shards``
worker processes:

* **Deterministic partition** — item ``i`` always belongs to shard
  ``i % shards``.  The partition depends on the shard count only, never on
  worker availability, machine load or cache warmth.
* **Deterministic merge** — results are reassembled in input order, and each
  worker's freshly computed entries in the six mergeable caches (reward /
  baseline / compile / plan / lowering / children, ``CacheSet.mergeable()``)
  are merged back into the parent context's caches in shard order.  Only
  the shape-distance memo stays in the worker, so a sharded run leaves the
  parent as warm as the serial run in those six caches: a library build's
  workers hand their legal children back, and the next build over the same
  space neither enumerates nor forks.  Because every cached value is a pure
  function of its key, the merge order cannot change any value — fixing it
  anyway makes the executor's behaviour reproducible down to
  cache-iteration order.
* **Context bootstrap** — each worker runs under the caller's ambient
  :class:`~repro.runtime.RuntimeContext` (:func:`repro.runtime.current`):
  it activates a context with the caller's config and its fork-copied
  caches, without the parent's serving hook or failure diagnostics.
* **Serial equivalence** — with ``shards <= 1``, a single item, or an
  explicit ``max_workers=1``, the map degrades to the plain in-process loop.
  Results are bit-identical either way: work items must not depend on
  process-global mutable state, which is why the evaluators reseed the
  substrate's parameter-initialization RNG per item (see
  :meth:`repro.search.evaluator.AccuracyEvaluator._train`).

Worker processes are forked (never spawned), so they inherit the parent's
warm caches for free.  The number of live workers is capped by
``os.cpu_count()``, floored at 2, so a requested shard count forks and is
supervised even on a single-core machine; the cap changes scheduling only,
and the *results* stay a pure function of the shard knob.  Workers inherit
``fn``, their work items and the caller's context through the fork, so none
of them is pickled (a closure works); only results cross the pipe.  A
platform without fork, or a result that cannot be pickled, falls back to
the serial map, so callers never handle parallelism errors.

* **Supervision** — each shard runs in its own child process, tracked by pid
  over a result pipe with heartbeats.  A worker that dies (signal, nonzero
  exit) or exceeds the per-shard wall-clock timeout
  (``RuntimeConfig.shard_timeout``) is reaped and its partition re-run
  through a degradation ladder: up to ``RuntimeConfig.shard_retries``
  identical re-forks with exponential backoff, then in-process serial
  execution of just that partition.  The partition is a pure function of the
  shard knob, so every rung produces bit-identical results — a fault-ridden
  run and a fault-free run share record fingerprints.  Each failed attempt
  is surfaced as a structured :class:`ShardFailure` on the runtime context.
  Genuine exceptions raised by ``fn`` are *not* faults: they propagate
  first-class, exactly as the serial map would raise them.

Every MCTS reward wave goes through :func:`sharded_map` too
(:meth:`repro.core.mcts.MCTS.run`), in process at one shard.
:func:`fan_out` is the candidate-evaluation entry point: :func:`sharded_map`
at the context's ``shards``, or at its ``eval_processes`` when unsharded.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import signal as _signal
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.runtime import CacheStats, RuntimeContext, current
from repro.runtime.faults import (
    SITE_ITEM_EVAL,
    SITE_SHARD_ENTRY,
    FaultInjected,
    arm_worker,
    inject,
)

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ShardOutcome:
    """What one shard worker sends back: its results plus its cache delta."""

    results: list = field(default_factory=list)
    cache_entries: dict[str, dict] = field(default_factory=dict)
    #: per-cache hits and misses made in a forked worker.  Empty for a
    #: partition run in the calling process, whose counters already hold them.
    cache_lookups: dict[str, CacheStats] = field(default_factory=dict)


def shard_partition(count: int, shards: int) -> list[list[int]]:
    """Item indices per shard: item ``i`` goes to shard ``i % shards``.

    The strided assignment balances heavy-tailed work lists (neighbouring
    items tend to cost alike) and is a pure function of ``(count, shards)``.
    """
    shards = max(shards, 1)
    return [list(range(shard, count, shards)) for shard in range(shards)]


def _run_partition(
    fn: Callable,
    items: Sequence,
    runtime: RuntimeContext,
    heartbeat: Callable[[int], None] | None = None,
) -> ShardOutcome:
    """Run one partition's items under ``runtime``; export the entries they add.

    Only *added* entries are exported: a forked worker already holds the
    parent's, whose merge skips present keys anyway.  ``heartbeat`` (called
    with the count of completed items) is given only inside a forked worker,
    and only there do the fault sites fire — so the parent's serial fallback,
    the floor of the degradation ladder, always completes.  Only a forked
    worker reports its cache lookups: the parent's counters hold the rest.
    """
    in_worker = heartbeat is not None
    with runtime.activate():
        if in_worker:
            inject(SITE_SHARD_ENTRY)
        before = runtime.caches.key_snapshots()
        stats_before = runtime.caches.stats()
        results = []
        for done, item in enumerate(items, start=1):
            if in_worker:
                inject(SITE_ITEM_EVAL)
            results.append(fn(item))
            if in_worker:
                heartbeat(done)
        entries = runtime.caches.export_delta(before) if runtime.config.eval_cache else {}
    lookups = runtime.caches.stats_since(stats_before) if in_worker else {}
    return ShardOutcome(results=results, cache_entries=entries, cache_lookups=lookups)


# ---------------------------------------------------------------------------
# Supervised shard execution
# ---------------------------------------------------------------------------

#: backoff before re-forking a failed shard: base * 2^(attempt-1), capped.
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 2.0
#: minimum spacing between a worker's heartbeat messages.
_HEARTBEAT_INTERVAL_SECONDS = 0.2
#: upper bound on one supervisor poll, so retry schedules and timeouts are
#: honored promptly even while pipes are quiet.
_POLL_CAP_SECONDS = 0.25
#: grace given to `Process.join` after a child was killed or reported EOF.
_JOIN_GRACE_SECONDS = 10.0


@dataclass
class ShardFailure:
    """One failed attempt of one supervised shard worker.

    ``kind`` is one of ``signal`` (killed by a signal), ``exit`` (exited
    nonzero before reporting a result), ``timeout`` (exceeded the per-shard
    wall-clock budget and was killed), ``fault`` (an injected
    :class:`~repro.runtime.faults.FaultInjected`), ``unpicklable-result``
    (the result could not cross the pipe — not retryable) or
    ``spawn-failed`` (the fork itself failed).
    """

    shard: int
    attempt: int
    kind: str
    detail: str
    pid: int | None = None
    exitcode: int | None = None
    signal: int | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        return (
            f"shard {self.shard} attempt {self.attempt} [{self.kind}]: "
            f"{self.detail} ({self.elapsed:.2f}s elapsed)"
        )


def _signal_name(signum: int) -> str:
    try:
        return _signal.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


def _supervised_worker(
    conn, fn: Callable, items: list, runtime: RuntimeContext, shard: int, attempt: int
) -> None:
    """Child body: heartbeats, then exactly one terminal message.

    ``fn``, ``items`` and the caller's context ``runtime`` arrive through the
    fork, never pickled.  The items run under the caller's config and its
    fork-copied caches, in a fresh context: it carries neither the parent's
    failure diagnostics nor its serving hook
    (:attr:`~repro.runtime.RuntimeContext.wave_evaluator`), so a worker
    never recurses into the parent's coalescer.

    Terminal messages: ``result`` (the :class:`ShardOutcome`), ``fault``
    (an injected fault surfaced cooperatively), ``unpicklable-result`` (the
    outcome could not be pickled across the pipe) or ``exception`` (a genuine
    ``fn`` failure, shipped for first-class re-raising in the parent).  A
    worker killed by a plan or the OS sends nothing — the parent detects the
    pipe EOF and reads the exit code instead.
    """
    last_beat = time.monotonic()

    def heartbeat(done: int) -> None:
        nonlocal last_beat
        now = time.monotonic()
        if now - last_beat >= _HEARTBEAT_INTERVAL_SECONDS:
            last_beat = now
            _quiet_send(conn, ("progress", done))

    try:
        arm_worker(shard=shard, attempt=attempt)
        runtime = RuntimeContext(runtime.config, caches=runtime.caches)
        outcome = _run_partition(fn, items, runtime, heartbeat=heartbeat)
        try:
            conn.send(("result", outcome))
        except Exception as exc:
            _quiet_send(conn, ("unpicklable-result", f"{type(exc).__name__}: {exc}"))
    except FaultInjected as exc:
        _quiet_send(conn, ("fault", str(exc)))
    except BaseException as exc:
        tb = traceback.format_exc()
        try:
            conn.send(("exception", exc, tb))
        except Exception:
            # The exception object itself would not pickle; the traceback
            # text still lets the parent raise something actionable.
            _quiet_send(conn, ("exception", None, tb))
    finally:
        try:
            conn.close()
        except OSError as exc:
            log.debug("worker pipe close failed: %s", exc)


def _quiet_send(conn, message) -> None:
    try:
        conn.send(message)
    except Exception as exc:
        # The parent may already have reaped us (timeout) or gone away.
        log.debug("worker could not report %r: %s", message[0], exc)


@dataclass
class _ActiveShard:
    """Parent-side tracking state of one worker attempt."""

    shard: int
    attempt: int
    started: float
    process: multiprocessing.process.BaseProcess | None = None
    conn: multiprocessing.connection.Connection | None = None
    pid: int | None = None
    items_done: int = 0
    last_heartbeat: float | None = None


def _supervise_shards(
    fn: Callable, partitions: list[list], runtime: RuntimeContext, workers: int
) -> tuple[list[ShardOutcome], list[ShardFailure]]:
    """Run every partition under supervision; one outcome per partition.

    Dead, hung and crashing workers are retried (identical partition,
    exponential backoff) up to ``config.shard_retries`` times, then the
    partition runs serially in-process — so this function either returns a
    complete outcome list or re-raises a genuine ``fn`` exception.  Every
    failed attempt is returned as a :class:`ShardFailure`.
    """
    config = runtime.config
    timeout = config.shard_timeout if config.shard_timeout > 0 else None
    max_attempts = max(config.shard_retries, 0) + 1
    mp = multiprocessing.get_context("fork")

    outcomes: dict[int, ShardOutcome] = {}
    failures: list[ShardFailure] = []
    attempts = dict.fromkeys(range(len(partitions)), 0)
    #: (ready_at, shard) attempts waiting to launch (retries carry backoff).
    runnable: list[tuple[float, int]] = []
    active: dict[int, _ActiveShard] = {}

    for shard, items in enumerate(partitions):
        if items:
            runnable.append((0.0, shard))
        else:
            outcomes[shard] = ShardOutcome()  # empty partition: nothing to fork

    def fall_back(shard: int) -> None:
        log.warning(
            "shard %d: %d attempt(s) exhausted; running its partition serially "
            "in-process", shard, attempts[shard],
        )
        outcomes[shard] = _run_partition(fn, partitions[shard], runtime)

    def fail(entry: _ActiveShard, kind: str, detail: str, **fields) -> None:
        """Record one failed attempt, then retry its shard or fall back."""
        failure = ShardFailure(
            shard=entry.shard, attempt=entry.attempt, kind=kind, detail=detail,
            pid=entry.pid, elapsed=round(time.monotonic() - entry.started, 3),
            **fields,
        )
        failures.append(failure)
        log.warning("%s", failure.describe())
        shard = entry.shard
        if kind == "unpicklable-result":
            # Retrying cannot make the result picklable; go straight to the
            # ladder's floor.
            fall_back(shard)
        elif attempts[shard] >= max_attempts:
            fall_back(shard)
        else:
            delay = min(
                _BACKOFF_BASE_SECONDS * (2 ** (attempts[shard] - 1)),
                _BACKOFF_CAP_SECONDS,
            )
            runnable.append((time.monotonic() + delay, shard))

    def retire(entry: _ActiveShard, kill: bool = False) -> None:
        """Stop tracking a live attempt: kill it if asked, join it, close its pipe."""
        del active[entry.shard]
        if kill:
            entry.process.kill()
        entry.process.join(_JOIN_GRACE_SECONDS)
        try:
            entry.conn.close()
        except OSError as exc:
            log.debug("supervisor pipe close failed: %s", exc)

    def reap_death(entry: _ActiveShard) -> None:
        """Pipe EOF without a terminal message: the worker died."""
        retire(entry)
        code = entry.process.exitcode
        if code is not None and code < 0:
            fail(
                entry, "signal",
                f"worker pid {entry.pid} killed by {_signal_name(-code)}",
                signal=-code,
            )
        else:
            fail(
                entry, "exit",
                f"worker pid {entry.pid} exited with code {code} "
                "before reporting a result",
                exitcode=code,
            )

    def reap_timeout(entry: _ActiveShard) -> None:
        retire(entry, kill=True)
        if entry.last_heartbeat is None:
            beat = "no heartbeat received"
        else:
            beat = (
                f"last heartbeat {time.monotonic() - entry.last_heartbeat:.1f}s "
                f"ago, {entry.items_done} item(s) done"
            )
        fail(
            entry, "timeout",
            f"worker pid {entry.pid} exceeded the {timeout:.1f}s shard "
            f"timeout and was killed ({beat})",
            signal=int(_signal.SIGKILL),
        )

    def drain(entry: _ActiveShard) -> None:
        """Consume every queued message from one ready pipe."""
        while entry.shard in active:
            try:
                if not entry.conn.poll():
                    return
                message = entry.conn.recv()
            except Exception:
                # EOF (or a frame torn by a mid-send kill): the worker died.
                reap_death(entry)
                return
            tag = message[0]
            if tag == "progress":
                entry.items_done = message[1]
                entry.last_heartbeat = time.monotonic()
                continue
            retire(entry)  # every other message is the attempt's last
            if tag == "result":
                outcomes[entry.shard] = message[1]
            elif tag == "fault":
                fail(
                    entry, "fault",
                    f"worker pid {entry.pid} surfaced an injected fault: {message[1]}",
                )
            elif tag == "unpicklable-result":
                fail(
                    entry, "unpicklable-result",
                    f"worker result could not cross the process boundary: {message[1]}",
                )
            else:  # "exception": a genuine fn failure — propagate first-class.
                exc, tb = message[1], message[2]
                if exc is not None:
                    raise exc
                raise RuntimeError(
                    f"shard {entry.shard} worker failed:\n{tb}"
                )

    try:
        while len(outcomes) < len(partitions):
            now = time.monotonic()
            for item in sorted(runnable):
                if len(active) >= workers:
                    break
                ready_at, shard = item
                if ready_at > now:
                    break  # sorted: everything later is also not due
                runnable.remove(item)
                attempts[shard] += 1
                entry = _ActiveShard(
                    shard=shard, attempt=attempts[shard], started=time.monotonic()
                )
                try:
                    entry.conn, child_conn = mp.Pipe(duplex=False)
                    entry.process = mp.Process(
                        target=_supervised_worker,
                        args=(child_conn, fn, partitions[shard], runtime, shard, entry.attempt),
                        daemon=True,
                    )
                    entry.process.start()
                    child_conn.close()  # parent's copy; EOF now tracks the child
                except OSError as exc:
                    fail(entry, "spawn-failed", f"worker process failed to start: {exc}")
                    continue
                entry.pid = entry.process.pid
                active[shard] = entry
            if not active:
                if runnable:
                    pause = min(ready_at for ready_at, _ in runnable) - time.monotonic()
                    if pause > 0:
                        time.sleep(min(pause, _POLL_CAP_SECONDS))
                continue
            step = _POLL_CAP_SECONDS
            if timeout is not None:
                soonest = min(entry.started + timeout for entry in active.values())
                step = min(step, soonest - time.monotonic())
            if runnable:
                step = min(step, min(r for r, _ in runnable) - time.monotonic())
            ready = multiprocessing.connection.wait(
                [entry.conn for entry in active.values()], timeout=max(step, 0.0)
            )
            by_conn = {id(entry.conn): entry for entry in active.values()}
            for conn in ready:
                entry = by_conn.get(id(conn))
                if entry is not None and entry.shard in active:
                    drain(entry)
            if timeout is not None:
                now = time.monotonic()
                for entry in list(active.values()):
                    if now - entry.started >= timeout:
                        reap_timeout(entry)
    except BaseException:
        # A genuine work exception (or an interrupt): take the remaining
        # children down with us.
        for entry in list(active.values()):
            try:
                retire(entry, kill=True)
            except OSError as exc:
                log.debug("supervisor cleanup failed for shard %d: %s", entry.shard, exc)
        raise
    return [outcomes[shard] for shard in range(len(partitions))], failures


def _live_refresh(runtime: RuntimeContext) -> None:
    """Absorb entries other processes published to the shared store.

    Best-effort and lock-free (:meth:`SharedCacheStore.read_new_entries`):
    an unreadable store just means no new entries this wave.
    Extra warmth can never change a result — every cached value is a pure
    function of its key — so live refresh preserves serial equivalence.
    """
    try:
        added = runtime.caches.merge_delta(runtime.shared_store.read_new_entries())
    except Exception as exc:
        log.warning("live cache refresh failed (%s); continuing with local warmth", exc)
        return
    if any(added.values()):
        log.info(
            "live cache refresh: %s",
            ", ".join(f"{name}+{count}" for name, count in sorted(added.items())),
        )


def _live_publish(runtime: RuntimeContext, deltas: Sequence[dict]) -> None:
    """Publish this wave's fresh cache entries to the shared store.

    Only the caches :meth:`CacheSet.persisted` names are published; the
    memory-only ones (plans, lowerings) are cheap to recompute and are not
    part of the persisted store format.  A held lock or write failure is
    logged and skipped — live sync is an optimisation, never a correctness
    gate.
    """
    persisted = {cache.name for cache in runtime.caches.persisted()}
    combined: dict[str, dict] = {}
    for delta in deltas:
        for name, entries in delta.items():
            if name in persisted:
                combined.setdefault(name, {}).update(entries)
    if not any(combined.values()):
        return
    cap = runtime.config.cache_max_entries
    try:
        status = runtime.shared_store.publish(
            combined, max_entries=cap if cap > 0 else None
        )
    except Exception as exc:
        log.warning("live cache publish failed (%s); entries stay process-local", exc)
        return
    if not status.ok:
        log.warning("live cache publish skipped: %s", status.summary())


def sharded_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    shards: int | None = None,
    max_workers: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` executed across shard worker processes.

    Runs under the ambient context (:func:`repro.runtime.current`);
    ``shards`` defaults to its ``RuntimeConfig.shards``.  Results come back
    in input order and each worker's new entries in the reward, baseline,
    compile, plan, lowering and children caches are merged into the
    context's caches (shard order), so the parent ends as warm in those as
    the serial run would have left it.  The shape-distance memo is not
    merged: what a worker adds to it is lost when it exits.  Each worker's
    cache lookups are added to the context's hit and miss counters.

    ``max_workers`` bounds the live worker processes (default: the machine's
    core count, floored at 2 so a requested shard count still forks — and is
    still supervised — on a single-core box).  It changes scheduling only —
    the shard partition, and therefore every result, is a pure function of
    ``shards``.  An explicit ``max_workers=1`` opts out of forking entirely
    (the serial path).

    With ``RuntimeConfig.cache_live_sync`` on, every map additionally syncs
    through the context's shared cache store at its wave boundaries: new
    store entries are absorbed before the fan-out and this wave's fresh
    entries published after the merge, so N concurrent processes on one box
    share warmth live instead of only at load/exit.  Both directions are
    best-effort and value-preserving, so results stay bit-identical.
    """
    work = list(items)
    runtime = current()
    count = shards if shards is not None else max(runtime.config.shards, 1)
    count = max(count, 1)
    live = runtime.config.cache_live_sync and runtime.config.eval_cache
    if live and work:
        _live_refresh(runtime)

    def serial() -> list[R]:
        if not live:
            return [fn(item) for item in work]
        outcome = _run_partition(fn, work, runtime)
        _live_publish(runtime, [outcome.cache_entries])
        return outcome.results

    if count <= 1 or len(work) <= 1 or (max_workers is not None and max_workers <= 1):
        return serial()
    workers = min(count, max_workers or max(os.cpu_count() or 1, 2), len(work))
    partitions = shard_partition(len(work), count)
    try:
        # Setup-only guard: fork must exist.  Forked workers inherit ``fn``,
        # their items and the caller's context, so none of them is pickled;
        # only results cross the pipe, and an unpicklable result has its own
        # rung.  Errors raised by ``fn`` during the map are genuine work
        # failures and propagate first-class.
        multiprocessing.get_context("fork")
    except ValueError as exc:  # no fork on this platform
        log.warning("sharded execution unavailable (%s); falling back to serial", exc)
        return serial()
    outcomes, failures = _supervise_shards(
        fn,
        [[work[index] for index in partition] for partition in partitions],
        runtime=runtime,
        workers=workers,
    )
    if failures:
        runtime.record_shard_failures(failures)
        log.warning(
            "sharded execution degraded (results unaffected): %s",
            "; ".join(failure.describe() for failure in failures),
        )
    merged: dict[str, int] = {}
    for outcome in outcomes:  # shard order
        for name, added in runtime.caches.merge_delta(outcome.cache_entries).items():
            merged[name] = merged.get(name, 0) + added
        runtime.caches.count_lookups(outcome.cache_lookups)
    if merged:
        log.info(
            "merged shard caches: %s",
            ", ".join(f"{name}+{added}" for name, added in sorted(merged.items())),
        )
    if live:
        _live_publish(runtime, [outcome.cache_entries for outcome in outcomes])
    results: list = [None] * len(work)
    for partition, outcome in zip(partitions, outcomes):
        for index, result in zip(partition, outcome.results):
            results[index] = result
    return results


def fan_out(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]`` through :func:`sharded_map`, sized for candidate evaluation.

    Maps over ``RuntimeConfig.shards`` workers when above 1, otherwise over
    ``RuntimeConfig.eval_processes``.  Sharding wins when both are set, and
    the ignored process count is logged.
    """
    config = current().config
    processes = max(config.eval_processes, 1)
    if config.shards <= 1:
        return sharded_map(fn, items, shards=processes)
    if processes > 1:
        log.warning(
            "sharded execution (shards=%d) takes precedence: ignoring processes=%d",
            config.shards, processes,
        )
    return sharded_map(fn, items, shards=config.shards)
