"""Shared fixtures: the float64 pin, concrete bindings/specs, fault injection.

Every unit test runs with the process-default runtime context pinned to
float64 (:func:`_full_precision_substrate`).  The root ``conftest.py`` parsed
the ``REPRO_*`` environment once, with smoke on, which would make the
compute dtype float32 and break the exact-numerics assertions here.  A test
that exercises another config activates its own context
(``with current().derive(...).activate():``); setting ``REPRO_*`` variables
mid-process steers nothing, except in tests that drive a process edge
themselves (``main([...])``, ``RuntimeConfig.from_env()``).

The fault-injection fixtures (:func:`lock_holder`, :func:`crashed_writer`)
drive the shared cache store's crash/contention paths with *real* child
processes — a genuinely held lock in another pid, a writer SIGKILLed in the
middle of appending a frame — and are shared between ``test_cache_store.py``
and ``test_parallel_search.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.library import (
    BLOCK,
    C_IN,
    C_OUT,
    GROUPS,
    H,
    K,
    K1,
    M,
    N,
    OUT_FEATURES,
    POOL,
    SHRINK,
    W,
    conv2d_spec,
    matmul_spec,
)
from repro.runtime import default_context


@pytest.fixture(autouse=True)
def _full_precision_substrate(monkeypatch):
    """Pin the process-default context to float64 for the test's duration."""
    context = default_context()
    monkeypatch.setattr(context, "config", context.config.with_overrides(dtype="float64"))


@pytest.fixture
def conv_binding() -> dict:
    """A small but non-trivial convolution binding."""
    return {N: 2, C_IN: 8, C_OUT: 8, H: 6, W: 6, K1: 3, GROUPS: 4, SHRINK: 2}


@pytest.fixture
def matmul_binding() -> dict:
    return {M: 4, K: 6, OUT_FEATURES: 5}


@pytest.fixture
def pool_binding() -> dict:
    return {H: 12, POOL: 3, BLOCK: 2}


@pytest.fixture
def conv_spec_bound(conv_binding):
    return conv2d_spec(bindings=(conv_binding,))


@pytest.fixture
def matmul_spec_bound(matmul_binding):
    return matmul_spec(bindings=(matmul_binding,))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# Fault injection (shared by test_cache_store.py and test_parallel_search.py)
# ---------------------------------------------------------------------------


def _hold_lock_child(lock_path: str, acquired, release) -> None:
    """Child body: take the store lock and hold it until told to let go."""
    from repro.runtime.store import FileLock

    lock = FileLock(lock_path, timeout=10.0)
    lock.acquire()
    acquired.set()
    release.wait(60.0)
    lock.release()


def _crash_writer_child(store_path: str, ready) -> None:
    """Child body: take the lock, append a *torn* frame, then hang.

    The parent SIGKILLs this process once ``ready`` is set, leaving exactly
    the on-disk state a mid-write crash produces: a dead-pid lock directory
    plus a frame whose header promises more payload bytes than were written.
    """
    from repro.runtime.caches import CACHE_FORMAT_VERSION
    from repro.runtime.store import FRAME_HEADER, FRAME_MAGIC, SharedCacheStore

    store = SharedCacheStore(store_path)
    store.lock.acquire()
    payload = pickle.dumps(
        {"version": CACHE_FORMAT_VERSION, "caches": {"reward": {("crash", "sig"): 1.0}}}
    )
    header = FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload))
    with open(store_path, "ab") as handle:
        handle.write(header + payload[: len(payload) // 2])
        handle.flush()
        os.fsync(handle.fileno())
    ready.set()
    time.sleep(600.0)  # killed long before this expires


@pytest.fixture
def lock_holder():
    """Start a real child process that holds a store lock; returns a handle.

    Usage: ``holder = lock_holder(lock_path)`` — the fixture blocks until the
    child has actually acquired the lock.  ``holder.release()`` lets it go
    cleanly; ``holder.kill()`` SIGKILLs it, leaving a stale dead-pid lock.
    Any survivors are cleaned up at teardown.
    """
    spawned: list[tuple[multiprocessing.Process, object]] = []

    def start(lock_path) -> SimpleNamespace:
        mp = multiprocessing.get_context("fork")
        acquired, release = mp.Event(), mp.Event()
        process = mp.Process(
            target=_hold_lock_child, args=(str(lock_path), acquired, release), daemon=True
        )
        process.start()
        assert acquired.wait(15.0), "lock-holder child never acquired the lock"
        spawned.append((process, release))

        def _release() -> None:
            release.set()
            process.join(10.0)

        def _kill() -> None:
            os.kill(process.pid, signal.SIGKILL)
            process.join(10.0)

        return SimpleNamespace(pid=process.pid, release=_release, kill=_kill)

    yield start
    for process, release in spawned:
        # Only live holders: a SIGKILLed child may have died inside
        # ``release.wait()``, and ``Event.set`` would then block forever in
        # ``Condition.notify`` waiting for that dead sleeper to wake.
        if not process.is_alive():
            continue
        release.set()
        process.join(5.0)
        if process.is_alive():
            process.kill()
            process.join(5.0)


@pytest.fixture
def crashed_writer():
    """SIGKILL a child mid-append; returns its pid once the crash happened.

    ``crashed_writer(store_path)`` leaves the store with a torn trailing
    frame and its lock directory owned by a dead pid — the exact state the
    store's stale-lock detection and torn-tail repair must recover from.
    """

    def crash(store_path) -> int:
        mp = multiprocessing.get_context("fork")
        ready = mp.Event()
        process = mp.Process(
            target=_crash_writer_child, args=(str(store_path), ready), daemon=True
        )
        process.start()
        assert ready.wait(15.0), "crash-writer child never reached mid-write"
        os.kill(process.pid, signal.SIGKILL)
        process.join(10.0)
        return process.pid

    return crash
