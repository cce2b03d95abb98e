"""Cross-request wave coalescing: N searches, one ``sharded_map`` fan-out.

Concurrent search requests each run their own MCTS loop, but their frontier
waves all need the same kind of work — proxy-train a candidate, cache the
reward — against the *same* shared :class:`~repro.runtime.caches.CacheSet`.
The :class:`WaveCoalescer` is the meeting point: every search submits its
wave's pending ``(signature, operator)`` pairs and blocks; one submitting
thread becomes the wave leader, merges every queued submission into a single
de-duplicated task list, runs it through one
:func:`repro.search.parallel.sharded_map` call, and distributes the rewards
back.  N clients searching overlapping spaces therefore amortize proxy
trainings three ways:

* **within a wave** — identical ``(cache context, signature)`` tasks from
  different searches collapse to one computation before the fan-out;
* **across waves** — tasks already present in the shared reward cache are
  satisfied without training (the pre-wave probe counts these as hits);
* **across the fleet** — one fan-out per wave instead of one per search
  keeps the shard workers full regardless of how many clients are connected.

A wave fires when every registered search has a submission queued (the
common steady state: all in-flight searches hit their wave boundary) or when
the oldest submission's coalescing window (``window_seconds``) expires —
whichever comes first, so a lone client never waits on company that is not
coming.

Determinism: wave *composition* happens inside each search before
submission (a pure function of its seed and frontier width), and every
reward is a pure function of its cache key — so how submissions interleave,
which searches share a wave, and where tasks are computed can change
wall-clock and cache traffic but never a result.  That is why a coalesced
serve-side run's fingerprint is bit-identical to a serial ``repro run``.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from repro.runtime import RuntimeContext, current
from repro.search.parallel import sharded_map

log = logging.getLogger(__name__)


def _coalesced_task(task: tuple) -> float:
    """Compute one coalesced reward under its request's configuration.

    Runs inside a shard worker (or in-process on the serial path).  The
    request's frozen config is re-rooted onto the *ambient* cache set — the
    forked worker's inherited copy, or the server's shared set on the serial
    path — so the evaluator resolves dtype and budget through the request's
    own config while the cached value lands under the shared keys either
    way.  The double caching (here and inside ``reward_fn``) mirrors the
    serial MCTS path exactly.
    """
    reward_fn, cache_context, config, signature, operator = task
    scoped = RuntimeContext(config, caches=current().caches)
    with scoped.activate():
        return scoped.cached_reward(
            cache_context, signature, lambda: float(reward_fn(operator))
        )


@dataclass
class WaveStats:
    """One coalesced wave, as reported to every participating request."""

    wave: int
    #: searches whose pending evaluations joined this wave.
    submissions: int
    #: total (signature, operator) evaluations submitted.
    pending: int
    #: unique (cache context, signature) tasks after de-duplication.
    tasks: int
    #: tasks already satisfied by the shared reward cache before the fan-out.
    cache_hits: int
    #: tasks that actually cost a proxy training this wave.
    computed: int
    #: supervised-executor failures recovered during the fan-out.
    shard_failures: int

    @property
    def coalesced(self) -> int:
        """Duplicate evaluations amortized *within* this wave."""
        return self.pending - self.tasks

    def to_dict(self) -> dict:
        return {
            "wave": self.wave,
            "submissions": self.submissions,
            "pending": self.pending,
            "tasks": self.tasks,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "shard_failures": self.shard_failures,
        }


@dataclass
class _Submission:
    """One search's pending wave, queued for the next coalesced fan-out."""

    pending: list
    reward_fn: Callable
    cache_context: Hashable
    config: object  # the request's frozen RuntimeConfig
    deadline: float
    on_wave: Callable[[WaveStats], None] | None = None
    done: bool = False
    rewards: dict = field(default_factory=dict)
    error: BaseException | None = None


class WaveCoalescer:
    """Batches concurrent searches' reward waves into shared fan-outs."""

    def __init__(self, runtime: RuntimeContext, window_seconds: float = 0.05) -> None:
        #: the server's root context, activated around every coalesced
        #: fan-out: its caches are the shared substrate and its ``shards``
        #: knob sizes the fan-out.
        self._runtime = runtime
        #: how long a lone submission waits for company before its wave fires.
        self.window_seconds = max(window_seconds, 0.0)
        self._cond = threading.Condition()
        self._registered = 0
        self._queue: list[_Submission] = []
        self._leader_busy = False
        self._waves = 0
        self._total_submissions = 0
        self._total_pending = 0
        self._total_tasks = 0
        self._total_hits = 0
        self._total_computed = 0

    # -- registration --------------------------------------------------------

    @contextlib.contextmanager
    def search_scope(self) -> Iterator["WaveCoalescer"]:
        """Mark one search as in-flight for the duration of the block.

        The registration count is the coalescer's completeness signal: a
        wave fires early once every registered search has submitted, so the
        common steady state pays no window latency at all.  Exits notify
        waiters because a departing search may have been the one everyone
        was (bounded by the window) waiting for.
        """
        with self._cond:
            self._registered += 1
        try:
            yield self
        finally:
            with self._cond:
                self._registered -= 1
                self._cond.notify_all()

    # -- submission ----------------------------------------------------------

    def evaluate(
        self,
        pending: Sequence[tuple[str, object]],
        reward_fn: Callable,
        cache_context: Hashable,
        on_wave: Callable[[WaveStats], None] | None = None,
    ) -> Mapping[str, float]:
        """Submit one search's wave and block until its rewards are ready.

        Matches the :attr:`repro.runtime.RuntimeContext.wave_evaluator`
        signature (plus the optional ``on_wave`` progress callback the
        serving layer threads in); the rewards are computed under the
        calling search's ambient config.  The calling thread either waits
        for a leader to deliver its rewards or becomes the leader itself and
        runs the merged wave.
        """
        if not pending:
            return {}
        submission = _Submission(
            pending=list(pending),
            reward_fn=reward_fn,
            cache_context=cache_context,
            config=current().config,
            deadline=time.monotonic() + self.window_seconds,
            on_wave=on_wave,
        )
        batch: list[_Submission] | None = None
        with self._cond:
            self._queue.append(submission)
            self._cond.notify_all()
            while not submission.done:
                if not self._leader_busy and self._wave_due():
                    self._leader_busy = True
                    batch, self._queue = self._queue, []
                    break
                self._cond.wait(timeout=self._wait_step())
        if batch is not None:
            try:
                self._run_wave(batch)
            finally:
                with self._cond:
                    self._leader_busy = False
                    self._cond.notify_all()
        if submission.error is not None:
            raise submission.error
        return submission.rewards

    def _wave_due(self) -> bool:
        """Fire check (callers hold the condition): full house or window up."""
        if not self._queue:
            return False
        if len(self._queue) >= max(self._registered, 1):
            return True
        return min(s.deadline for s in self._queue) <= time.monotonic()

    def _wait_step(self) -> float:
        """How long a waiter may sleep before rechecking the fire condition."""
        if not self._queue:
            return 0.5
        horizon = min(s.deadline for s in self._queue) - time.monotonic()
        return max(min(horizon, 0.5), 0.01)

    # -- the wave ------------------------------------------------------------

    def _run_wave(self, batch: list[_Submission]) -> None:
        """Leader body: merge, de-duplicate, fan out once, distribute."""
        tasks: list[tuple] = []
        index: dict[tuple, int] = {}
        pending_total = 0
        for submission in batch:
            for signature, operator in submission.pending:
                pending_total += 1
                key = (submission.cache_context, signature)
                if key in index:
                    continue
                index[key] = len(tasks)
                tasks.append((
                    submission.reward_fn, submission.cache_context,
                    submission.config, signature, operator,
                ))
        # Probe before computing: a key already in the shared reward cache is
        # another request's (or an earlier wave's) amortized training.
        reward_cache = self._runtime.caches.reward
        hits = sum(1 for key in index if key in reward_cache)
        failures_before = len(self._runtime.shard_failures)
        try:
            with self._runtime.activate():
                values = sharded_map(_coalesced_task, tasks)
        except BaseException as exc:
            # A genuine reward failure poisons every search in the wave; each
            # waiter re-raises it from its own evaluate() call.
            with self._cond:
                for submission in batch:
                    submission.error = exc
                    submission.done = True
                self._cond.notify_all()
            raise
        by_key = {key: values[i] for key, i in index.items()}
        with self._cond:
            self._waves += 1
            stats = WaveStats(
                wave=self._waves,
                submissions=len(batch),
                pending=pending_total,
                tasks=len(tasks),
                cache_hits=hits,
                computed=len(tasks) - hits,
                shard_failures=len(self._runtime.shard_failures) - failures_before,
            )
            self._total_submissions += len(batch)
            self._total_pending += pending_total
            self._total_tasks += len(tasks)
            self._total_hits += hits
            self._total_computed += len(tasks) - hits
            for submission in batch:
                submission.rewards = {
                    signature: by_key[(submission.cache_context, signature)]
                    for signature, _ in submission.pending
                }
                submission.done = True
            self._cond.notify_all()
        log.info(
            "wave %d: %d submission(s), %d pending -> %d task(s), "
            "%d cache hit(s), %d computed",
            stats.wave, stats.submissions, stats.pending, stats.tasks,
            stats.cache_hits, stats.computed,
        )
        for submission in batch:
            if submission.on_wave is not None:
                submission.on_wave(stats)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime coalescing totals (``repro serve`` status, bench report)."""
        with self._cond:
            return {
                "waves": self._waves,
                "registered": self._registered,
                "submissions": self._total_submissions,
                "pending": self._total_pending,
                "tasks": self._total_tasks,
                "coalesced": self._total_pending - self._total_tasks,
                "cache_hits": self._total_hits,
                "computed": self._total_computed,
            }
