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
  worker's freshly computed cache entries (reward / baseline / compile /
  plan) are merged back into the parent context's caches in shard order.
  Because every cached value is a pure function of its key, the merge order
  cannot change any value — fixing it anyway makes the executor's behaviour
  reproducible down to cache-iteration order.
* **Context bootstrap** — each worker runs under the same
  :class:`~repro.runtime.RuntimeContext` as the caller: the ambient default
  context is inherited through fork, while an explicit context is pickled
  into the worker and activated there (the worker-side process edge),
  replacing the old implicit environment-variable inheritance.
* **Serial equivalence** — with ``shards <= 1``, a single item, or no spare
  cores, the map degrades to the plain in-process loop.  Results are
  bit-identical either way: work items must not depend on process-global
  mutable state, which is why the evaluators reseed the substrate's
  parameter-initialization RNG per item (see
  :meth:`repro.search.evaluator.AccuracyEvaluator._train`).

Worker processes are forked (never spawned), so they inherit the parent's
warm caches for free; the number of live workers is additionally capped by
``os.cpu_count()`` — on a single-core machine a sharded run executes the
serial path and pays zero fork overhead, while the *results* stay a pure
function of the shard knob.  Any failure to fork or pickle falls back to the
serial map, so callers never handle parallelism errors.

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
when the context shards, else the older :func:`parallel_map`.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal as _signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.runtime import RuntimeContext, current, default_context
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


class _InheritDefaultCaches:
    """Pickle-by-reference marker: "use the worker's inherited default caches".

    A context *derived* from the default one (same cache set, different
    config — what the experiment runner builds per run) must not ship a copy
    of the whole warm cache set to every worker: the fork already carried it.
    The class object itself is used as the marker because classes pickle by
    qualified name, so identity survives the process boundary.
    """


@dataclass
class ShardOutcome:
    """What one shard worker sends back: its results plus its cache delta."""

    results: list = field(default_factory=list)
    cache_entries: dict[str, dict] = field(default_factory=dict)


def shard_partition(count: int, shards: int) -> list[list[int]]:
    """Item indices per shard: item ``i`` goes to shard ``i % shards``.

    The strided assignment balances heavy-tailed work lists (neighbouring
    items tend to cost alike) and is a pure function of ``(count, shards)``.
    """
    shards = max(shards, 1)
    return [list(range(shard, count, shards)) for shard in range(shards)]


def _maybe_activate(runtime: RuntimeContext):
    """Activate ``runtime`` unless it is already the ambient resolution."""
    if runtime is current():
        return contextlib.nullcontext(runtime)
    return runtime.activate()


def _ship_context(runtime: RuntimeContext) -> RuntimeContext | None:
    """What to put in a worker payload so the worker runs under ``runtime``.

    * the process-default context → ``None`` (forked workers inherit it);
    * derived from the default (shared caches, own config) → a context whose
      caches slot is the :class:`_InheritDefaultCaches` marker, so only the
      config crosses the pipe;
    * a fully explicit context → the context itself (config + caches; cache
      entries are filtered best-effort during pickling).
    """
    if runtime is default_context():
        return None
    if runtime.caches is default_context().caches:
        marker = RuntimeContext(runtime.config, caches=_InheritDefaultCaches)  # type: ignore[arg-type]
        return marker
    return runtime


def _worker_context(shipped: RuntimeContext | None) -> RuntimeContext:
    """Rebuild the worker-side context from a shipped payload (process edge)."""
    if shipped is None:
        return default_context()
    if shipped.caches is _InheritDefaultCaches:
        return RuntimeContext(shipped.config, caches=default_context().caches)
    return shipped


def _run_shard(
    payload: tuple[Callable, list, RuntimeContext | None],
    progress: Callable[[int], None] | None = None,
) -> ShardOutcome:
    """Worker body: run one shard's items under the caller's context.

    The worker forked with a copy of the parent's caches, so only entries
    *added* while running this shard are exported — re-shipping the inherited
    ones would be wasted pickling (the parent's merge skips present keys
    anyway).  ``progress`` (supervised workers: the heartbeat sender) is
    called with the count of completed items after each one.
    """
    fn, items, shipped = payload
    runtime = _worker_context(shipped)
    with _maybe_activate(runtime):
        inject(SITE_SHARD_ENTRY, runtime=runtime)
        before = runtime.caches.key_snapshots()
        results = []
        for done, item in enumerate(items, start=1):
            inject(SITE_ITEM_EVAL, runtime=runtime)
            results.append(fn(item))
            if progress is not None:
                progress(done)
        entries: dict[str, dict] = {}
        if runtime.config.eval_cache:
            entries = runtime.caches.export_delta(before)
    return ShardOutcome(results=results, cache_entries=entries)


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
        return {
            "shard": self.shard,
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "pid": self.pid,
            "exitcode": self.exitcode,
            "signal": self.signal,
            "elapsed": self.elapsed,
        }

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


def _supervised_worker(conn, payload, shard: int, attempt: int) -> None:
    """Child body: hello → heartbeats → exactly one terminal message.

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
        conn.send(("hello", os.getpid()))
        arm_worker(shard=shard, attempt=attempt)
        outcome = _run_shard(payload, progress=heartbeat)
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
    """Parent-side tracking state of one live worker attempt."""

    shard: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    started: float
    pid: int | None = None
    items_done: int = 0
    last_heartbeat: float | None = None


def _serial_shard(payload, runtime: RuntimeContext) -> ShardOutcome:
    """The degradation ladder's floor: run one partition in-process.

    No fault injection fires here (the worker sites only arm inside forked
    children), so the fallback always completes — which is what lets the
    executor guarantee a result for every partition under any plan.
    """
    fn, items, _ = payload
    with _maybe_activate(runtime):
        before = runtime.caches.key_snapshots()
        results = [fn(item) for item in items]
        entries: dict[str, dict] = {}
        if runtime.config.eval_cache:
            entries = runtime.caches.export_delta(before)
    return ShardOutcome(results=results, cache_entries=entries)


def _supervise_shards(
    payloads: list, runtime: RuntimeContext, workers: int
) -> tuple[list[ShardOutcome], list[ShardFailure]]:
    """Run every shard payload under supervision; one outcome per payload.

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
    attempts = dict.fromkeys(range(len(payloads)), 0)
    #: (ready_at, shard) attempts waiting to launch (retries carry backoff).
    runnable: list[tuple[float, int]] = []
    active: dict[int, _ActiveShard] = {}

    for index, payload in enumerate(payloads):
        if payload[1]:
            runnable.append((0.0, index))
        else:
            outcomes[index] = ShardOutcome()  # empty partition: nothing to fork

    def fall_back(shard: int) -> None:
        log.warning(
            "shard %d: %d attempt(s) exhausted; running its partition serially "
            "in-process", shard, attempts[shard],
        )
        outcomes[shard] = _serial_shard(payloads[shard], runtime)

    def resolve_failure(failure: ShardFailure) -> None:
        failures.append(failure)
        log.warning("%s", failure.describe())
        shard = failure.shard
        if failure.kind == "unpicklable-result":
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

    def finish(entry: _ActiveShard) -> None:
        try:
            entry.conn.close()
        except OSError as exc:
            log.debug("supervisor pipe close failed: %s", exc)
        entry.process.join(_JOIN_GRACE_SECONDS)

    def reap_death(entry: _ActiveShard) -> None:
        """Pipe EOF without a terminal message: the worker died."""
        del active[entry.shard]
        entry.process.join(_JOIN_GRACE_SECONDS)
        try:
            entry.conn.close()
        except OSError as exc:
            log.debug("supervisor pipe close failed: %s", exc)
        elapsed = time.monotonic() - entry.started
        code = entry.process.exitcode
        if code is not None and code < 0:
            resolve_failure(ShardFailure(
                shard=entry.shard, attempt=entry.attempt, kind="signal",
                detail=f"worker pid {entry.pid} killed by {_signal_name(-code)}",
                pid=entry.pid, signal=-code, elapsed=round(elapsed, 3),
            ))
        else:
            resolve_failure(ShardFailure(
                shard=entry.shard, attempt=entry.attempt, kind="exit",
                detail=(
                    f"worker pid {entry.pid} exited with code {code} "
                    "before reporting a result"
                ),
                pid=entry.pid, exitcode=code, elapsed=round(elapsed, 3),
            ))

    def reap_timeout(entry: _ActiveShard) -> None:
        del active[entry.shard]
        entry.process.kill()
        entry.process.join(_JOIN_GRACE_SECONDS)
        try:
            entry.conn.close()
        except OSError as exc:
            log.debug("supervisor pipe close failed: %s", exc)
        elapsed = time.monotonic() - entry.started
        if entry.last_heartbeat is None:
            beat = "no heartbeat received"
        else:
            beat = (
                f"last heartbeat {time.monotonic() - entry.last_heartbeat:.1f}s "
                f"ago, {entry.items_done} item(s) done"
            )
        resolve_failure(ShardFailure(
            shard=entry.shard, attempt=entry.attempt, kind="timeout",
            detail=(
                f"worker pid {entry.pid} exceeded the {timeout:.1f}s shard "
                f"timeout and was killed ({beat})"
            ),
            pid=entry.pid, signal=int(_signal.SIGKILL), elapsed=round(elapsed, 3),
        ))

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
            if tag == "hello":
                entry.pid = message[1]
            elif tag == "progress":
                entry.items_done = message[1]
                entry.last_heartbeat = time.monotonic()
            elif tag == "result":
                outcomes[entry.shard] = message[1]
                del active[entry.shard]
                finish(entry)
            elif tag == "fault":
                del active[entry.shard]
                finish(entry)
                resolve_failure(ShardFailure(
                    shard=entry.shard, attempt=entry.attempt, kind="fault",
                    detail=f"worker pid {entry.pid} surfaced an injected fault: {message[1]}",
                    pid=entry.pid,
                    elapsed=round(time.monotonic() - entry.started, 3),
                ))
            elif tag == "unpicklable-result":
                del active[entry.shard]
                finish(entry)
                resolve_failure(ShardFailure(
                    shard=entry.shard, attempt=entry.attempt,
                    kind="unpicklable-result",
                    detail=(
                        "worker result could not cross the process boundary: "
                        f"{message[1]}"
                    ),
                    pid=entry.pid,
                    elapsed=round(time.monotonic() - entry.started, 3),
                ))
            else:  # "exception": a genuine fn failure — propagate first-class.
                del active[entry.shard]
                finish(entry)
                exc, tb = message[1], message[2]
                if exc is not None:
                    raise exc
                raise RuntimeError(
                    f"shard {entry.shard} worker failed:\n{tb}"
                )

    try:
        while len(outcomes) < len(payloads):
            now = time.monotonic()
            for item in sorted(runnable):
                if len(active) >= workers:
                    break
                ready_at, shard = item
                if ready_at > now:
                    break  # sorted: everything later is also not due
                runnable.remove(item)
                attempts[shard] += 1
                try:
                    parent_conn, child_conn = mp.Pipe(duplex=False)
                    process = mp.Process(
                        target=_supervised_worker,
                        args=(child_conn, payloads[shard], shard, attempts[shard]),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()  # parent's copy; EOF now tracks the child
                except OSError as exc:
                    resolve_failure(ShardFailure(
                        shard=shard, attempt=attempts[shard], kind="spawn-failed",
                        detail=f"worker process failed to start: {exc}",
                    ))
                    continue
                active[shard] = _ActiveShard(
                    shard=shard, attempt=attempts[shard], process=process,
                    conn=parent_conn, started=time.monotonic(), pid=process.pid,
                )
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
        # children down with us, exactly as the pool executor did.
        for entry in list(active.values()):
            try:
                entry.process.kill()
                entry.process.join(_JOIN_GRACE_SECONDS)
                entry.conn.close()
            except OSError as exc:
                log.debug("supervisor cleanup failed for shard %d: %s", entry.shard, exc)
        raise
    return [outcomes[index] for index in range(len(payloads))], failures


def merge_shard_caches(
    outcomes: Sequence[ShardOutcome], runtime: RuntimeContext | None = None
) -> dict[str, int]:
    """Merge worker cache deltas into the parent context, in shard order.

    Returns entries added per cache.  Already-present keys are kept (the
    parent's value is at least as fresh), mirroring snapshot loading.
    """
    caches = (runtime if runtime is not None else current()).caches
    added: dict[str, int] = {}
    for outcome in outcomes:
        for name, count in caches.merge_delta(outcome.cache_entries).items():
            added[name] = added.get(name, 0) + count
    return added


def _live_refresh(runtime: RuntimeContext) -> None:
    """Absorb entries other processes published to the shared store.

    Best-effort and lock-free (:meth:`SharedCacheStore.read_new_entries`):
    a torn tail or a store mid-compaction just means fewer entries this wave.
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


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, fanned out over worker processes when asked.

    The older, cache-discarding fan-out beside :func:`sharded_map`.
    Parallelism is strictly opt-in: with ``processes`` (or the ambient
    context's ``eval_processes``) at 1 the map runs serially in process,
    which is also the only path that warms the context's caches.  Any failure
    to fork or pickle falls back to the serial map so callers never have to
    handle parallelism errors.
    """
    work: Sequence[T] = list(items)
    count = processes if processes is not None else max(current().config.eval_processes, 1)
    if count <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    try:
        # Setup-only guard: prove the payload can cross the process boundary
        # and that fork is available.  Failures here mean "parallelism is not
        # possible", so falling back to serial is correct.  Errors raised by
        # ``fn`` itself during the map are genuine work failures and
        # propagate to the caller first-class.
        pickle.dumps(fn)
        pickle.dumps(work)
        context = multiprocessing.get_context("fork")
        pool = context.Pool(min(count, len(work)))
    except Exception as exc:  # unpicklable payloads, missing fork, ...
        log.warning("parallel evaluation unavailable (%s); falling back to serial", exc)
        return [fn(item) for item in work]
    with pool:
        return pool.map(fn, work)


def sharded_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    shards: int | None = None,
    max_workers: int | None = None,
    runtime: RuntimeContext | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` executed across shard worker processes.

    ``shards`` defaults to the context's ``RuntimeConfig.shards``; ``runtime``
    defaults to the ambient context (:func:`repro.runtime.current`).  Results
    come back in input order and each worker's freshly cached evaluations are
    merged into the context's caches (shard order), so a sharded run leaves
    the parent process exactly as warm as the serial run would have.

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
    context_given = runtime is not None
    runtime = runtime if runtime is not None else current()
    count = shards if shards is not None else max(runtime.config.shards, 1)
    count = max(count, 1)
    workers = max_workers if max_workers is not None else max(os.cpu_count() or 1, 2)
    workers = min(count, max(workers, 1), len(work))
    live = runtime.config.cache_live_sync and runtime.config.eval_cache
    if live and work:
        _live_refresh(runtime)

    def serial() -> list[R]:
        if not live:
            return _serial_plain()
        before = runtime.caches.key_snapshots()
        results = _serial_plain()
        _live_publish(runtime, [runtime.caches.export_delta(before)])
        return results

    def _serial_plain() -> list[R]:
        if context_given:
            with _maybe_activate(runtime):
                return [fn(item) for item in work]
        return [fn(item) for item in work]

    if count <= 1 or len(work) <= 1 or workers <= 1:
        return serial()
    partitions = shard_partition(len(work), count)
    shipped = _ship_context(runtime)
    payloads = [
        (fn, [work[index] for index in partition], shipped) for partition in partitions
    ]
    try:
        # Setup-only guard, as in parallel_map: prove one full payload (work
        # items, fn and any shipped context) can cross the process boundary
        # and that fork exists.  Every payload shares fn and the shipped
        # context, and partition 0 holds work items, so one probe covers the
        # lot.  Errors raised by ``fn`` during the map are genuine work
        # failures and propagate first-class.
        pickle.dumps(payloads[0])
        multiprocessing.get_context("fork")
    except Exception as exc:  # unpicklable payloads, missing fork, ...
        log.warning("sharded execution unavailable (%s); falling back to serial", exc)
        return serial()
    outcomes, failures = _supervise_shards(payloads, runtime=runtime, workers=workers)
    if failures:
        runtime.record_shard_failures(failures)
        log.warning(
            "sharded execution degraded (results unaffected): %s",
            "; ".join(failure.describe() for failure in failures),
        )
    merged = merge_shard_caches(outcomes, runtime=runtime)
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


def fan_out(
    fn: Callable[[T], R], items: Iterable[T], runtime: RuntimeContext | None = None
) -> list[R]:
    """``[fn(x) for x in items]`` through the context's configured fan-out.

    With ``RuntimeConfig.shards > 1`` the items go through :func:`sharded_map`
    (worker caches merge back); otherwise through :func:`parallel_map` at
    ``RuntimeConfig.eval_processes`` workers.  Sharding wins when both are
    set, and the ignored process count is logged.
    """
    config = (runtime if runtime is not None else current()).config
    processes = max(config.eval_processes, 1)
    if config.shards > 1:
        if processes > 1:
            log.warning(
                "sharded execution (shards=%d) takes precedence: ignoring processes=%d",
                config.shards, processes,
            )
        return sharded_map(fn, items, runtime=runtime)
    return parallel_map(fn, items, processes=processes)
