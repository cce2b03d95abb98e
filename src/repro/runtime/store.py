"""Process-safe shared cache store: one pickled snapshot behind a file lock.

A whole-pickle snapshot written once at process exit loses work when two
``repro run``s share a results dir: the *last* writer wins and silently
discards the other process's rewards.  This module keeps the one-pickle
format but makes every write a locked read-merge-replace, so N processes on
one box can share a store:

* **One snapshot, merge on publish.**  The store file is a single pickled
  ``{"version": ..., "caches": {name: {key: value}}}``.  A publisher takes
  the lock, reads the snapshot, adds only the entries it lacks (entries
  already stored win), applies the per-cache LRU cap and replaces the file —
  so two concurrent publishers both land instead of overwriting each other.
* **Advisory file lock.**  Publishes and loads happen under a lock
  *directory* next to the store (``<path>.lock``), in the style of Theano's
  compile lock: atomic ``os.mkdir`` acquisition, exponential backoff while
  waiting, a configurable timeout (``RuntimeConfig.cache_lock_timeout`` /
  ``REPRO_CACHE_LOCK_TIMEOUT``), and stale-lock detection with forced
  unlock — a lock whose recorded owner is a dead pid on this host is broken
  immediately; a foreign or unreadable lock is broken after
  ``stale_timeout`` seconds.
* **Crash tolerance.**  A publish writes ``<path>.tmp``, fsyncs it and
  renames it over the store with ``os.replace``, so the store file is always
  either the old snapshot or the new one, never torn.  A writer SIGKILLed
  before the replace leaves the old snapshot intact, a stray ``.tmp`` that
  the next publish overwrites, and a dead-pid lock that the stale-holder
  check breaks.
* **Versioned.**  A snapshot of another format version reports
  ``version-mismatch`` and a file that is not a snapshot at all reports
  ``unreadable``; neither is ever raised, and the next publish replaces
  either one.

The one reader that skips the lock is :meth:`read_new_entries`, the refresh
the sharded executor's live sync runs at wave boundaries: a replaced file is
never torn, so it re-reads the snapshot whenever the file's stat changed.

Everything here is stdlib-only, keeping :mod:`repro.runtime` import-light.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import socket
import time
from typing import Mapping

from repro.runtime.caches import (
    CACHE_FORMAT_VERSION,
    SnapshotStatus,
    _picklable_entries,
)
from repro.runtime.faults import SITE_SNAPSHOT_LOAD, SITE_STORE_PUBLISH, inject

log = logging.getLogger(__name__)

#: Default seconds a process waits for the store lock before reporting
#: ``locked`` (env edge: ``REPRO_CACHE_LOCK_TIMEOUT``).
DEFAULT_LOCK_TIMEOUT = 10.0
#: Seconds after which a lock whose holder cannot be probed (another host,
#: unreadable info) is presumed dead and forcibly broken.  Same-host holders
#: are probed by pid and broken immediately when dead.
DEFAULT_STALE_TIMEOUT = 300.0


class CacheLockTimeout(TimeoutError):
    """The store lock could not be acquired within the timeout.

    Carries :attr:`waited` (seconds spent trying) so callers can surface the
    wait in a :class:`~repro.runtime.caches.SnapshotStatus`.
    """

    def __init__(self, message: str, waited: float = 0.0) -> None:
        super().__init__(message)
        self.waited = waited


# ---------------------------------------------------------------------------
# The advisory file lock
# ---------------------------------------------------------------------------


class FileLock:
    """An advisory inter-process lock: an atomically-created lock directory.

    ``os.mkdir`` is atomic on every platform we care about, which makes the
    directory itself the lock token; an ``info`` file inside records the
    holder (pid, host, acquisition wall-time) for diagnostics and for the
    stale-holder check.  The lock is *advisory*: only cooperating callers
    (the store's publish/load paths) go through it.

    Not reentrant — one acquisition per instance at a time.  Use either the
    context-manager form (``with lock.acquire(timeout=...):`` or plain
    ``with lock:``) or explicit :meth:`acquire`/:meth:`release`.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        timeout: float = DEFAULT_LOCK_TIMEOUT,
        stale_timeout: float = DEFAULT_STALE_TIMEOUT,
    ) -> None:
        self.path = str(path)
        self.timeout = timeout
        self.stale_timeout = stale_timeout
        #: seconds the most recent successful acquisition waited.
        self.last_wait = 0.0
        #: stale locks this instance forcibly broke (test/diagnostic surface).
        self.breaks = 0
        self._held = False

    @property
    def info_path(self) -> str:
        return os.path.join(self.path, "info")

    def read_info(self) -> dict | None:
        """The current holder's ``{"pid", "host", "time"}``, or ``None``.

        ``None`` means the lock directory is absent *or* its info file is not
        readable yet (a holder mid-acquisition, or a crash between ``mkdir``
        and the info write).
        """
        try:
            with open(self.info_path, "r", encoding="utf-8") as handle:
                info = json.load(handle)
        except (OSError, ValueError):
            return None
        return info if isinstance(info, dict) else None

    def is_held(self) -> bool:
        return self._held

    def _is_stale(self, info: dict | None) -> bool:
        """Whether the current holder can safely be presumed dead."""
        if info is None:
            # No readable info: either a holder between mkdir and the info
            # write (give it a grace period) or a crash in that window.
            try:
                age = time.time() - os.stat(self.path).st_mtime
            except OSError:
                return False  # lock vanished — not stale, just gone
            return age > max(self.stale_timeout, 5.0)
        pid, host = info.get("pid"), info.get("host")
        if host == socket.gethostname() and isinstance(pid, int):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # recorded owner is dead on this very host
            except OSError:
                pass  # e.g. EPERM: alive but not ours
            return False
        age = time.time() - float(info.get("time", 0.0))
        return age > self.stale_timeout

    def break_lock(self, expected: dict | None = None) -> bool:
        """Forcibly remove the lock (stale-holder recovery / manual unlock).

        With ``expected`` given, the break is conditional: if the on-disk
        holder info changed since ``expected`` was read (the stale holder
        released and someone else acquired), nothing is removed.  Returns
        whether the lock is gone.
        """
        if expected is not None:
            now = self.read_info()
            if now is not None and (
                now.get("pid") != expected.get("pid")
                or now.get("time") != expected.get("time")
            ):
                return False
        try:
            os.unlink(self.info_path)
        except OSError:
            pass
        try:
            os.rmdir(self.path)
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return True

    def acquire(self, timeout: float | None = None) -> "FileLock":
        """Take the lock, waiting up to ``timeout`` seconds (default: ctor's).

        Waits with exponential backoff (1 ms doubling to 50 ms); a stale
        holder is broken and the acquisition retried immediately.  Raises
        :class:`CacheLockTimeout` when the deadline passes.
        """
        if self._held:
            raise RuntimeError(f"lock {self.path} is already held by this instance")
        timeout = self.timeout if timeout is None else timeout
        start = time.monotonic()
        deadline = start + max(timeout, 0.0)
        delay = 0.001
        # Outside the retry loop: a parent that cannot be created (e.g. a
        # file in the way) is an I/O error, not a lock held by someone else.
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        while True:
            try:
                os.mkdir(self.path)
            except FileExistsError:
                info = self.read_info()
                if self._is_stale(info):
                    holder = self._describe_holder(info)
                    if self.break_lock(expected=info):
                        self.breaks += 1
                        log.warning(
                            "broke stale cache-store lock %s (%s)", self.path, holder
                        )
                        continue
                now = time.monotonic()
                if now >= deadline:
                    waited = now - start
                    raise CacheLockTimeout(
                        f"cache-store lock {self.path} still held "
                        f"({self._describe_holder(info)}) after {timeout:.1f}s",
                        waited=waited,
                    )
                time.sleep(min(delay, max(deadline - now, 0.0)))
                delay = min(delay * 2, 0.05)
            else:
                try:
                    with open(self.info_path, "w", encoding="utf-8") as handle:
                        json.dump(
                            {
                                "pid": os.getpid(),
                                "host": socket.gethostname(),
                                "time": time.time(),
                            },
                            handle,
                        )
                except OSError:
                    pass  # diagnostics only; the directory is the lock
                self._held = True
                self.last_wait = time.monotonic() - start
                return self

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        self.break_lock()

    @staticmethod
    def _describe_holder(info: dict | None) -> str:
        if info is None:
            return "holder unknown"
        return f"held by pid {info.get('pid')} on {info.get('host')}"

    def __enter__(self) -> "FileLock":
        # Plain `with lock:` acquires with the constructor timeout;
        # `with lock.acquire(timeout=...):` reuses the already-held lock.
        if not self._held:
            self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# ---------------------------------------------------------------------------
# The shared store
# ---------------------------------------------------------------------------


class _BadSnapshot(Exception):
    """The store file exists but holds no current-version snapshot."""

    def __init__(self, status: str, error: str, version: object = None) -> None:
        super().__init__(error)
        #: the status to report: ``unreadable`` or ``version-mismatch``.
        self.status = status
        self.version = version


class SharedCacheStore:
    """The process-safe, merge-on-publish backing of cache persistence.

    One instance wraps one store path; the lock lives at ``<path>.lock``.
    Entry payloads are plain ``{cache name: {key: value}}`` mappings — the
    :class:`~repro.runtime.caches.CacheSet` integration (export, merge,
    enablement) stays in ``caches.py``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        stale_timeout: float = DEFAULT_STALE_TIMEOUT,
    ) -> None:
        self.path = str(path)
        self.lock = FileLock(
            self.path + ".lock", timeout=lock_timeout, stale_timeout=stale_timeout
        )
        #: stat identity of the file :meth:`read_new_entries` last returned.
        self._seen: tuple | None = None

    def _read(self) -> dict[str, dict] | None:
        """The snapshot's caches, or ``None`` when there is no store file.

        Raises :class:`_BadSnapshot` when the file is not a snapshot of the
        current format version; other I/O errors propagate.
        """
        try:
            with open(self.path, "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            return None
        try:
            snapshot = pickle.loads(payload)
        except Exception as exc:  # unpickling garbage can raise almost anything
            raise _BadSnapshot("unreadable", f"not a cache snapshot: {exc!r}") from exc
        version = snapshot.get("version") if isinstance(snapshot, dict) else None
        if version != CACHE_FORMAT_VERSION:
            raise _BadSnapshot(
                "version-mismatch",
                f"format version {version!r} != expected {CACHE_FORMAT_VERSION}",
                version,
            )
        return snapshot.get("caches", {})

    def _replace(self, caches: Mapping[str, Mapping]) -> None:
        """Write ``caches`` as the new snapshot (caller holds the lock)."""
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            pickle.dump(
                {"version": CACHE_FORMAT_VERSION, "caches": caches},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)

    def publish(
        self,
        entries: Mapping[str, Mapping],
        max_entries: int | None = None,
        lock_timeout: float | None = None,
    ) -> SnapshotStatus:
        """Merge ``entries`` into the store; other publishers' work survives.

        Under the lock: read the snapshot, add only the keys it lacks, keep
        the ``max_entries`` most recent entries per cache, and replace the
        file when that changed anything or the file was missing or unusable.
        Returns a :class:`SnapshotStatus`: ``saved`` (store was absent or
        empty), ``merged`` (our delta joined existing entries), ``locked``
        (timeout) or ``write-failed``; ``entries`` counts the delta actually
        added and ``store_entries`` the per-cache totals after the publish.
        """
        cap = max_entries if max_entries is not None and max_entries > 0 else None
        try:
            # Inside the error envelope on purpose: an injected fault here
            # (FaultInjected is an OSError) exercises the same degradation
            # a real disk failure would — a `write-failed` status, never a
            # crashed publisher.
            inject(SITE_STORE_PUBLISH)
            with self.lock.acquire(timeout=lock_timeout):
                try:
                    stored = self._read()
                except _BadSnapshot as exc:
                    log.warning("replacing cache store %s: %s", self.path, exc)
                    stored = None
                caches = stored if stored is not None else {}
                had_entries = any(caches.values())
                delta: dict[str, dict] = {}
                for name, fresh in entries.items():
                    present = caches.get(name, {})
                    new = _picklable_entries(
                        name, {key: value for key, value in fresh.items() if key not in present}
                    )
                    if new:
                        delta[name] = new
                        caches.setdefault(name, {}).update(new)
                over_cap = [
                    name for name, values in caches.items()
                    if cap is not None and len(values) > cap
                ]
                for name in over_cap:  # LRU: the newest entries are the last ones
                    caches[name] = dict(list(caches[name].items())[-cap:])
                if stored is None or delta or over_cap:
                    self._replace(caches)
                return SnapshotStatus(
                    "save",
                    self.path,
                    "merged" if had_entries else "saved",
                    entries={name: len(new) for name, new in delta.items()},
                    store_entries={name: len(values) for name, values in caches.items()},
                    lock_wait_seconds=round(self.lock.last_wait, 3),
                )
        except CacheLockTimeout as exc:
            log.warning("cache store %s not published: %s", self.path, exc)
            return SnapshotStatus(
                "save", self.path, "locked",
                error=str(exc), lock_wait_seconds=round(exc.waited, 3),
            )
        except OSError as exc:
            log.warning("could not persist cache store %s: %s", self.path, exc)
            return SnapshotStatus("save", self.path, "write-failed", error=str(exc))

    def load(
        self, lock_timeout: float | None = None
    ) -> tuple[dict[str, dict] | None, SnapshotStatus]:
        """``(entries, status)`` — the full store contents under the lock.

        ``entries`` is ``None`` unless the status is ``loaded``.  Statuses:
        ``missing``, ``unreadable`` (not a snapshot, or an I/O error),
        ``version-mismatch`` (a snapshot of another format version),
        ``locked`` on lock timeout, plus ``loaded``.
        """
        if not os.path.exists(self.path):
            return None, SnapshotStatus("load", self.path, "missing")
        try:
            # Same envelope as real I/O failures: an injected fault loads as
            # an `unreadable` status, so runs degrade to cold instead of dying.
            inject(SITE_SNAPSHOT_LOAD)
            with self.lock.acquire(timeout=lock_timeout):
                caches = self._read()
        except CacheLockTimeout as exc:
            log.warning("cache store %s not loaded: %s", self.path, exc)
            return None, SnapshotStatus(
                "load", self.path, "locked",
                error=str(exc), lock_wait_seconds=round(exc.waited, 3),
            )
        except _BadSnapshot as exc:
            log.warning("ignoring cache store %s: %s", self.path, exc)
            return None, SnapshotStatus(
                "load", self.path, exc.status,
                error=str(exc), snapshot_version=exc.version,
                lock_wait_seconds=round(self.lock.last_wait, 3),
            )
        except OSError as exc:
            log.warning(
                "ignoring unreadable cache snapshot %s (expected format v%d): %s",
                self.path, CACHE_FORMAT_VERSION, exc,
            )
            return None, SnapshotStatus("load", self.path, "unreadable", error=str(exc))
        if caches is None:  # deleted between the existence check and the read
            return None, SnapshotStatus("load", self.path, "missing")
        return caches, SnapshotStatus(
            "load", self.path, "loaded",
            store_entries={name: len(values) for name, values in caches.items()},
            lock_wait_seconds=round(self.lock.last_wait, 3),
        )

    def read_new_entries(self) -> dict[str, dict]:
        """The whole snapshot if the file changed since the last call, else ``{}``.

        Used by the sharded executor's live sync at wave boundaries.  Reading
        without the lock is safe because publishers replace the file whole:
        a reader sees the old snapshot or the new one, never a torn one.
        Entries this process already holds come back again after any change,
        which is harmless — merging a cache entry twice is idempotent.
        """
        try:
            stat = os.stat(self.path)
            seen = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            if seen == self._seen:
                return {}
            caches = self._read()
        except (OSError, _BadSnapshot):
            return {}
        self._seen = seen
        return caches or {}

    # -- maintenance / inspection --------------------------------------------

    def entry_counts(self) -> dict[str, int] | None:
        """Per-cache entry totals (lock-free), or ``None`` when absent/unusable."""
        try:
            caches = self._read()
        except (OSError, _BadSnapshot):
            return None
        if caches is None:
            return None
        return {name: len(values) for name, values in caches.items()}

    def lock_info(self) -> dict | None:
        """The current lock holder's info (pid/host/time), or ``None`` if free."""
        return self.lock.read_info()

    def clear(self) -> bool:
        """Delete the store file and break its lock; returns whether it existed."""
        existed = os.path.exists(self.path)
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self.lock.break_lock()
        self._seen = None
        return existed
