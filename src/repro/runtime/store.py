"""Process-safe shared cache store: a framed append/merge log behind a file lock.

PR 5's snapshot was one pickle written at process exit — two concurrent
``repro run``s raced and the *last* writer won, silently discarding the other
process's rewards.  This module replaces that with a store N processes on one
box can share:

* **Per-entry frames, append/merge semantics.**  The store file is a log of
  self-delimiting frames (magic + length + CRC32 + pickled
  ``{"version": ..., "caches": {name: {key: value}}}``).  A publisher reads
  what is already on disk, appends only its *delta* (entries the store does
  not have yet), and rewrites the log into one compact frame only when the
  LRU cap is exceeded or the file needs repair — so two concurrent
  publishers both land, instead of overwriting each other.
* **Advisory file lock.**  All writes (and consistent loads) happen under a
  lock *directory* next to the store (``<path>.lock``), in the style of
  Theano's compile lock: atomic ``os.mkdir`` acquisition, exponential
  backoff while waiting, a configurable timeout
  (``RuntimeConfig.cache_lock_timeout`` / ``REPRO_CACHE_LOCK_TIMEOUT``),
  and stale-lock detection with forced unlock — a lock whose recorded owner
  is a dead pid on this host is broken immediately; a foreign or unreadable
  lock is broken after ``stale_timeout`` seconds.
* **Crash tolerance.**  Frames are appended with flush+fsync, so a writer
  SIGKILLed mid-write can leave at most one torn frame at the *tail* of the
  log.  Readers stop at the first bad frame (everything before it loads
  fine) and the next publisher truncates the torn tail before appending —
  the store is self-repairing, and the dead writer's lock is reclaimed by
  the stale-holder check.
* **Versioned frames.**  Frames carrying another format version are
  skipped (a store holding only those reports ``version-mismatch``) and
  garbage-collected by the next publish; a file that is not a framed log
  at all reports ``unreadable``.  Neither is ever raised.

The one exception to "everything is locked" is :meth:`read_new_entries`,
the incremental refresh used by the sharded executor's live sync at wave
boundaries: it reads lock-free from the last seen byte offset.  Torn tails
are benign there (the frame is picked up on the next refresh), and a
concurrent compaction is detected by offset/parse mismatch and answered by
re-reading from the start — merging a cache entry twice is idempotent.

Everything here is stdlib-only, keeping :mod:`repro.runtime` import-light.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
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

#: Every frame starts with this magic.
FRAME_MAGIC = b"RPCS"
#: magic (4s) | payload length (u32 BE) | CRC32 of the payload (u32 BE).
FRAME_HEADER = struct.Struct(">4sII")


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
# Frame parsing
# ---------------------------------------------------------------------------


@dataclass
class _StoreContents:
    """What one pass over the store file saw."""

    #: per-cache entries in recency order (later frames count as fresher).
    entries: dict[str, dict] = field(default_factory=dict)
    #: complete, version-matching frames.
    frames: int = 0
    #: complete frames skipped for carrying a different format version.
    skipped_frames: int = 0
    #: the version of the first skipped frame (for version-mismatch reports).
    wrong_version: int | None = None
    #: byte offset just past the last complete frame (truncation point).
    end_offset: int = 0
    #: description of the torn/garbage tail, if any.
    tail_error: str | None = None


def _parse_frames(buffer: bytes, start: int = 0) -> _StoreContents:
    contents = _StoreContents(end_offset=start)
    position = start
    header_size = FRAME_HEADER.size
    while position < len(buffer):
        header = buffer[position : position + header_size]
        if len(header) < header_size:
            contents.tail_error = f"truncated frame header at byte {position}"
            break
        magic, length, checksum = FRAME_HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            contents.tail_error = f"bad frame magic at byte {position}"
            break
        payload = buffer[position + header_size : position + header_size + length]
        if len(payload) < length:
            contents.tail_error = f"truncated frame payload at byte {position}"
            break
        if zlib.crc32(payload) != checksum:
            contents.tail_error = f"frame checksum mismatch at byte {position}"
            break
        try:
            frame = pickle.loads(payload)
        except Exception as exc:
            contents.tail_error = f"unpicklable frame at byte {position}: {exc}"
            break
        position += header_size + length
        contents.end_offset = position
        if not isinstance(frame, dict) or frame.get("version") != CACHE_FORMAT_VERSION:
            contents.skipped_frames += 1
            if contents.wrong_version is None:
                version = frame.get("version") if isinstance(frame, dict) else None
                contents.wrong_version = version
            continue
        contents.frames += 1
        for name, cache_entries in frame.get("caches", {}).items():
            if not isinstance(cache_entries, dict):
                continue
            merged = contents.entries.setdefault(name, {})
            for key, value in cache_entries.items():
                # Re-inserting moves the key to the end: later frames are
                # fresher, which is what the LRU compaction cap keys off.
                merged.pop(key, None)
                merged[key] = value
    return contents


def _pack_frame(caches: Mapping[str, Mapping]) -> bytes:
    payload = pickle.dumps(
        {"version": CACHE_FORMAT_VERSION, "caches": {k: dict(v) for k, v in caches.items()}},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


# ---------------------------------------------------------------------------
# The shared store
# ---------------------------------------------------------------------------


@dataclass
class _DiskState:
    """The store file as one publish/load transaction sees it (under lock)."""

    contents: _StoreContents
    #: the file needs a full compact rewrite (missing, torn or foreign head,
    #: or wrong-version frames worth garbage-collecting).
    needs_rewrite: bool
    #: file existed at all (distinguishes ``saved`` from ``merged``).
    existed: bool


class SharedCacheStore:
    """The process-safe, append/merge backing of cache persistence.

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
        self._refresh_offset = 0

    # -- raw reading ---------------------------------------------------------

    def _read_disk(self) -> _DiskState:
        """Parse the store file (caller holds the lock)."""
        try:
            with open(self.path, "rb") as handle:
                buffer = handle.read()
        except FileNotFoundError:
            return _DiskState(_StoreContents(), needs_rewrite=True, existed=False)
        contents = _parse_frames(buffer)
        # A torn or foreign head (no complete frame at all) or dead
        # wrong-version frames are repaired/garbage-collected by rewriting
        # compactly.
        rewrite = contents.skipped_frames > 0 or (
            contents.frames == 0 and contents.tail_error is not None
        )
        return _DiskState(contents, needs_rewrite=rewrite, existed=True)

    # -- writing -------------------------------------------------------------

    def _rewrite(self, caches: Mapping[str, Mapping]) -> int:
        """Atomically replace the store with one compact frame; returns size."""
        frame = _pack_frame(caches)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return len(frame)

    def _append(self, caches: Mapping[str, Mapping], end_offset: int) -> None:
        """Append one frame after the last good frame, dropping a torn tail."""
        frame = _pack_frame(caches)
        with open(self.path, "r+b") as handle:
            handle.truncate(end_offset)
            handle.seek(end_offset)
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())

    def publish(
        self,
        entries: Mapping[str, Mapping],
        max_entries: int | None = None,
        lock_timeout: float | None = None,
    ) -> SnapshotStatus:
        """Merge ``entries`` into the store; other publishers' work survives.

        Under the lock: read what is on disk, append only the delta (keys the
        store lacks), and compact — one frame, ``max_entries`` most recent
        per cache — only when the cap is exceeded or the file needs repair
        (torn or foreign head, version-skipped frames).  Returns a
        :class:`SnapshotStatus`: ``saved`` (store was absent or empty),
        ``merged`` (our delta joined existing entries), ``locked`` (timeout)
        or ``write-failed``; ``entries`` counts the delta actually appended
        and ``store_entries`` the per-cache totals after the publish.
        """
        cap = max_entries if max_entries is not None and max_entries > 0 else None
        try:
            # Inside the error envelope on purpose: an injected fault here
            # (FaultInjected is an OSError) exercises the same degradation
            # a real disk failure would — a `write-failed` status, never a
            # crashed publisher.
            inject(SITE_STORE_PUBLISH)
            with self.lock.acquire(timeout=lock_timeout):
                state = self._read_disk()
                disk = state.contents.entries
                delta = {}
                for name, fresh in entries.items():
                    present = disk.get(name, {})
                    new = {key: value for key, value in fresh.items() if key not in present}
                    if new:
                        new = _picklable_entries(name, new)
                    if new:
                        delta[name] = new
                combined: dict[str, dict] = {name: dict(values) for name, values in disk.items()}
                for name, new in delta.items():
                    combined.setdefault(name, {}).update(new)
                over_cap = cap is not None and any(
                    len(values) > cap for values in combined.values()
                )
                if state.needs_rewrite or over_cap:
                    if cap is not None:
                        combined = {
                            name: dict(list(values.items())[-cap:])
                            for name, values in combined.items()
                        }
                    self._rewrite(combined)
                elif delta:
                    self._append(delta, state.contents.end_offset)
                elif state.contents.tail_error is not None:
                    # Nothing of ours to write, but repair the torn tail so
                    # readers stop re-reporting it.
                    self._append({}, state.contents.end_offset)
                had_entries = any(disk.values())
                status = SnapshotStatus(
                    "save",
                    self.path,
                    "merged" if had_entries else "saved",
                    entries={name: len(new) for name, new in delta.items()},
                    store_entries={name: len(values) for name, values in combined.items()},
                    lock_wait_seconds=round(self.lock.last_wait, 3),
                )
                if state.contents.tail_error is not None:
                    log.warning(
                        "repaired torn cache store %s (%s)",
                        self.path, state.contents.tail_error,
                    )
                return status
        except CacheLockTimeout as exc:
            log.warning("cache store %s not published: %s", self.path, exc)
            return SnapshotStatus(
                "save", self.path, "locked",
                error=str(exc), lock_wait_seconds=round(exc.waited, 3),
            )
        except OSError as exc:
            log.warning("could not persist cache store %s: %s", self.path, exc)
            return SnapshotStatus("save", self.path, "write-failed", error=str(exc))

    # -- loading -------------------------------------------------------------

    def load(
        self, lock_timeout: float | None = None
    ) -> tuple[dict[str, dict] | None, SnapshotStatus]:
        """``(entries, status)`` — the full store contents under the lock.

        ``entries`` is ``None`` unless the status is ``loaded``.  Statuses:
        ``missing``, ``unreadable`` (not a framed store, or no complete
        frame), ``version-mismatch`` (only other-version frames),
        ``locked`` on lock timeout, plus ``loaded``.
        """
        if not os.path.exists(self.path):
            return None, SnapshotStatus("load", self.path, "missing")
        try:
            # Same envelope as real I/O failures: an injected fault loads as
            # an `unreadable` status, so runs degrade to cold instead of dying.
            inject(SITE_SNAPSHOT_LOAD)
            with self.lock.acquire(timeout=lock_timeout):
                state = self._read_disk()
        except CacheLockTimeout as exc:
            log.warning("cache store %s not loaded: %s", self.path, exc)
            return None, SnapshotStatus(
                "load", self.path, "locked",
                error=str(exc), lock_wait_seconds=round(exc.waited, 3),
            )
        except OSError as exc:
            log.warning(
                "ignoring unreadable cache snapshot %s (expected format v%d): %s",
                self.path, CACHE_FORMAT_VERSION, exc,
            )
            return None, SnapshotStatus("load", self.path, "unreadable", error=str(exc))
        wait = round(self.lock.last_wait, 3)
        contents = state.contents
        if contents.frames == 0 and contents.skipped_frames > 0:
            log.warning(
                "ignoring cache store %s: format version %r != expected %d",
                self.path, contents.wrong_version, CACHE_FORMAT_VERSION,
            )
            return None, SnapshotStatus(
                "load", self.path, "version-mismatch",
                snapshot_version=contents.wrong_version, lock_wait_seconds=wait,
            )
        if contents.frames == 0 and contents.tail_error is not None:
            log.warning(
                "ignoring unreadable cache store %s: %s", self.path, contents.tail_error
            )
            return None, SnapshotStatus(
                "load", self.path, "unreadable",
                error=contents.tail_error, lock_wait_seconds=wait,
            )
        status = SnapshotStatus(
            "load", self.path, "loaded",
            store_entries={name: len(values) for name, values in contents.entries.items()},
            lock_wait_seconds=wait,
        )
        if contents.tail_error is not None:
            # Everything up to the torn tail loaded; say so without failing.
            status.error = f"ignored torn tail ({contents.tail_error})"
            log.warning(
                "cache store %s has a torn tail (%s); loaded %d complete frame(s)",
                self.path, contents.tail_error, contents.frames,
            )
        return contents.entries, status

    def read_new_entries(self) -> dict[str, dict]:
        """Frames appended since the last call (lock-free incremental refresh).

        Used by the sharded executor's live sync at wave boundaries.  Reading
        without the lock is safe because frames are self-delimiting: a torn
        or in-flight tail simply isn't consumed yet (the offset stays put and
        the next refresh retries), and a concurrent compaction that rewrote
        the file is detected — offset beyond EOF or no longer on a frame
        boundary — and answered by re-reading from the start, which is
        idempotent for cache merges.
        """
        try:
            with open(self.path, "rb") as handle:
                buffer = handle.read()
        except OSError:
            return {}
        if not buffer.startswith(FRAME_MAGIC):
            return {}
        start = self._refresh_offset if self._refresh_offset <= len(buffer) else 0
        contents = _parse_frames(buffer, start=start)
        if start > 0 and contents.frames == 0 and contents.tail_error is not None:
            contents = _parse_frames(buffer)  # compacted under us: start over
        if contents.end_offset > 0:
            self._refresh_offset = contents.end_offset
        return contents.entries

    # -- maintenance / inspection --------------------------------------------

    def entry_counts(self) -> dict[str, int] | None:
        """Per-cache entry totals (lock-free), or ``None`` when absent/foreign."""
        try:
            with open(self.path, "rb") as handle:
                buffer = handle.read()
        except OSError:
            return None
        if not buffer.startswith(FRAME_MAGIC):
            return None
        contents = _parse_frames(buffer)
        return {name: len(values) for name, values in contents.entries.items()}

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
        self._refresh_offset = 0
        return existed
