"""Crash/contention harness for the process-safe shared cache store.

This file is the acceptance bar of the store (ROADMAP open item 2, in the
style of the Theano compile-lock test contract):

* lock semantics — timeout, forced unlock, stale dead-pid recovery — against
  *real* holder processes (the ``lock_holder`` fixture in ``conftest.py``);
* merge-on-publish snapshot format — deltas join, existing entries win, the
  LRU cap keeps the newest entries, missing, wrong-version and unreadable
  files are reported, never loaded, and replaced by the next publish;
* real multiprocess contention — N writer processes race one store and every
  writer's delta survives (a last-writer-wins snapshot kept only the last
  writer's);
* crash injection — a writer SIGKILLed between writing ``<path>.tmp`` and
  the replace (``crashed_writer``) leaves the store loadable and its lock
  recoverable within the timeout;
* serial-vs-concurrent parity — two concurrent ``repro run``s sharing one
  store produce the serial run's fingerprint and both publish their deltas.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.results import ArtifactStore
from repro.runtime import (
    CACHE_FORMAT_VERSION,
    CacheLockTimeout,
    CacheSet,
    FileLock,
    SharedCacheStore,
    SnapshotStatus,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A valid current-version store file's bytes.
_SNAPSHOT = pickle.dumps(
    {"version": CACHE_FORMAT_VERSION, "caches": {"reward": {"k": 1.0}}}
)


# ---------------------------------------------------------------------------
# FileLock semantics
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_acquire_records_holder_info_and_release_frees(self, tmp_path):
        lock = FileLock(tmp_path / "store.lock")
        lock.acquire()
        assert lock.is_held()
        info = lock.read_info()
        assert info["pid"] == os.getpid()
        assert lock.last_wait < 1.0
        lock.release()
        assert not lock.is_held()
        assert lock.read_info() is None
        assert not (tmp_path / "store.lock").exists()

    def test_contended_acquire_times_out_then_succeeds_after_release(
        self, tmp_path, lock_holder
    ):
        lock_path = tmp_path / "store.lock"
        holder = lock_holder(lock_path)
        waiter = FileLock(lock_path)
        with pytest.raises(CacheLockTimeout) as excinfo:
            waiter.acquire(timeout=0.3)
        assert excinfo.value.waited >= 0.3
        assert str(holder.pid) in str(excinfo.value)
        holder.release()
        waiter.acquire(timeout=10.0)
        assert waiter.is_held()
        waiter.release()

    def test_forced_unlock_breaks_a_live_holder(self, tmp_path, lock_holder):
        lock_path = tmp_path / "store.lock"
        holder = lock_holder(lock_path)
        usurper = FileLock(lock_path)
        assert usurper.break_lock()  # unconditional manual unlock
        usurper.acquire(timeout=1.0)
        assert usurper.read_info()["pid"] == os.getpid()
        usurper.release()
        holder.release()  # the child's own release is tolerated afterwards

    def test_stale_dead_pid_lock_is_broken_within_the_timeout(
        self, tmp_path, lock_holder
    ):
        lock_path = tmp_path / "store.lock"
        holder = lock_holder(lock_path)
        holder.kill()  # SIGKILL: the lock directory survives, its owner dies
        assert (lock_path / "info").exists()
        waiter = FileLock(lock_path)
        waiter.acquire(timeout=5.0)  # dead-pid probe breaks it immediately
        assert waiter.breaks == 1
        assert waiter.last_wait < 5.0
        waiter.release()

    def test_conditional_break_aborts_when_the_holder_changed(self, tmp_path):
        lock = FileLock(tmp_path / "store.lock")
        lock.acquire()
        stale_view = dict(lock.read_info())
        # The holder "changed" since stale_view was read: re-arm the info.
        with open(lock.info_path, "w", encoding="utf-8") as handle:
            json.dump({**stale_view, "time": stale_view["time"] + 99.0}, handle)
        assert not FileLock(lock.path).break_lock(expected=stale_view)
        assert lock.read_info() is not None
        lock.release()

    def test_reentrant_acquire_is_an_error(self, tmp_path):
        lock = FileLock(tmp_path / "store.lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()


# ---------------------------------------------------------------------------
# Store format: merge on publish, cap, unusable files
# ---------------------------------------------------------------------------


class TestSharedCacheStore:
    def test_publish_then_load_round_trip(self, tmp_path):
        path = tmp_path / "store.pkl"
        status = SharedCacheStore(path).publish({"reward": {("c", "s"): 1.5}})
        assert status.status == "saved"
        assert status.entries == {"reward": 1}
        entries, load_status = SharedCacheStore(path).load()
        assert load_status.status == "loaded"
        assert entries == {"reward": {("c", "s"): 1.5}}
        assert load_status.store_entries == {"reward": 1}

    def test_second_publisher_merges_instead_of_overwriting(self, tmp_path):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"a": 1.0}})
        status = SharedCacheStore(path).publish({"reward": {"b": 2.0}})
        assert status.status == "merged"
        assert status.entries == {"reward": 1}
        assert status.store_entries == {"reward": 2}
        entries, _ = SharedCacheStore(path).load()
        assert entries["reward"] == {"a": 1.0, "b": 2.0}

    def test_existing_store_entries_win_over_republished_keys(self, tmp_path):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"k": 1.0}})
        status = SharedCacheStore(path).publish({"reward": {"k": 2.0, "fresh": 3.0}})
        assert status.entries == {"reward": 1}  # only the genuinely new key
        entries, _ = SharedCacheStore(path).load()
        assert entries["reward"]["k"] == 1.0

    def test_cap_compacts_to_the_most_recent_entries(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = SharedCacheStore(path)
        for index in range(5):
            store.publish({"reward": {f"sig{index}": float(index)}}, max_entries=3)
        entries, status = SharedCacheStore(path).load()
        assert len(entries["reward"]) == 3
        assert set(entries["reward"]) == {"sig2", "sig3", "sig4"}  # newest survive
        assert status.store_entries == {"reward": 3}

    def test_missing_store_reports_missing_and_the_next_publish_creates_it(
        self, tmp_path
    ):
        path = tmp_path / "store.pkl"
        entries, status = SharedCacheStore(path).load()
        assert entries is None and status.status == "missing"
        assert not path.exists()
        assert SharedCacheStore(path).publish({}).status == "saved"
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded" and entries == {}

    def test_other_version_snapshot_reports_version_mismatch_and_is_replaced(
        self, tmp_path
    ):
        path = tmp_path / "store.pkl"
        path.write_bytes(pickle.dumps({"version": 999, "caches": {"reward": {"k": 1.0}}}))
        entries, status = SharedCacheStore(path).load()
        assert entries is None
        assert status.status == "version-mismatch"
        assert status.snapshot_version == 999
        publish = SharedCacheStore(path).publish({"reward": {"new": 2.0}})
        assert publish.status == "saved"  # the stale entries are not merged
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded" and entries == {"reward": {"new": 2.0}}

    @pytest.mark.parametrize(
        "content",
        [b"not a snapshot", b"", _SNAPSHOT[: len(_SNAPSHOT) // 2]],
        ids=["garbage", "empty", "truncated"],
    )
    def test_unreadable_file_reports_unreadable_and_is_replaced(self, tmp_path, content):
        path = tmp_path / "store.pkl"
        path.write_bytes(content)
        entries, status = SharedCacheStore(path).load()
        assert entries is None and status.status == "unreadable"
        assert status.error
        assert SharedCacheStore(path).entry_counts() is None
        publish = SharedCacheStore(path).publish({"reward": {"new": 2.0}})
        assert publish.status == "saved"
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded" and entries == {"reward": {"new": 2.0}}

    def test_read_new_entries_returns_the_snapshot_only_after_a_change(self, tmp_path):
        path = tmp_path / "store.pkl"
        reader = SharedCacheStore(path)
        assert reader.read_new_entries() == {}
        SharedCacheStore(path).publish({"reward": {"a": 1.0}})
        assert reader.read_new_entries() == {"reward": {"a": 1.0}}
        assert reader.read_new_entries() == {}  # unchanged file: nothing new
        SharedCacheStore(path).publish({"reward": {"b": 2.0}})
        assert reader.read_new_entries() == {"reward": {"a": 1.0, "b": 2.0}}
        assert reader.read_new_entries() == {}
        # A capped publish by another process is picked up like any other.
        SharedCacheStore(path).publish({"reward": {"c": 3.0}}, max_entries=2)
        assert reader.read_new_entries() == {"reward": {"b": 2.0, "c": 3.0}}

    def test_publish_without_news_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"a": 1.0}})
        before = os.stat(path)
        status = SharedCacheStore(path).publish({"reward": {"a": 5.0}})
        assert status.status == "merged" and status.entries == {}
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_entry_counts_and_clear(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = SharedCacheStore(path)
        assert store.entry_counts() is None
        store.publish({"reward": {"a": 1.0}, "compile": {"b": 2.0}})
        assert store.entry_counts() == {"reward": 1, "compile": 1}
        assert store.clear()
        assert not path.exists()
        assert not store.clear()  # second clear: nothing left, no error


# ---------------------------------------------------------------------------
# CacheSet integration and SnapshotStatus surface
# ---------------------------------------------------------------------------


class TestCacheSetIntegration:
    def test_locked_store_reports_locked_on_save_and_load(self, tmp_path, lock_holder):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"warm": 1.0}})
        lock_holder(str(path) + ".lock")
        caches = CacheSet()
        caches.reward.put("fresh", 2.0)
        saved = caches.save_snapshot(str(path), lock_timeout=0.2)
        assert saved.status == "locked" and not saved.ok
        assert "locked" in saved.summary()
        loaded = caches.load_snapshot(str(path), lock_timeout=0.2)
        assert loaded.status == "locked" and not loaded.ok
        assert len(caches.reward) == 1  # nothing was merged in

    def test_merged_save_surfaces_delta_and_store_totals(self, tmp_path):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"other": 1.0}})
        caches = CacheSet()
        caches.reward.put("mine", 2.0)
        status = caches.save_snapshot(str(path))
        assert status.status == "merged" and status.ok
        assert status.entries == {"reward": 1}
        assert status.store_entries["reward"] == 2
        assert "merged (reward=1" in status.summary()

    def test_snapshot_status_round_trips_through_to_dict(self):
        status = SnapshotStatus(
            "save", "/tmp/x", "merged",
            entries={"reward": 1}, store_entries={"reward": 5}, lock_wait_seconds=0.25,
        )
        assert SnapshotStatus(**status.to_dict()) == status
        assert json.loads(json.dumps(status.to_dict())) == status.to_dict()


# ---------------------------------------------------------------------------
# Real multiprocess contention
# ---------------------------------------------------------------------------

_WRITERS = 6
_ENTRIES_PER_WRITER = 5


def _contending_writer(store_path: str, index: int, barrier, outcomes) -> None:
    """Child body: publish this writer's delta the moment everyone is ready."""
    store = SharedCacheStore(store_path, lock_timeout=30.0)
    barrier.wait(30.0)
    entries = {
        "reward": {
            (f"writer-{index}", f"sig-{j}"): float(index * 100 + j)
            for j in range(_ENTRIES_PER_WRITER)
        }
    }
    status = store.publish(entries)
    outcomes.put((index, status.status, status.entries.get("reward", 0)))


class TestMultiprocessContention:
    def test_n_concurrent_writers_all_deltas_survive(self, tmp_path):
        """The acceptance scenario: N writers × one store, nothing lost."""
        path = tmp_path / "store.pkl"
        mp = multiprocessing.get_context("fork")
        barrier = mp.Barrier(_WRITERS)
        outcomes = mp.Queue()
        workers = [
            mp.Process(
                target=_contending_writer, args=(str(path), index, barrier, outcomes)
            )
            for index in range(_WRITERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
            assert worker.exitcode == 0
        results = [outcomes.get(timeout=10.0) for _ in range(_WRITERS)]
        statuses = sorted(status for _, status, _ in results)
        # Exactly one writer found the store empty; everyone else merged.
        assert statuses == ["merged"] * (_WRITERS - 1) + ["saved"]
        assert all(added == _ENTRIES_PER_WRITER for _, _, added in results)

        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded"
        assert len(entries["reward"]) == _WRITERS * _ENTRIES_PER_WRITER
        for index in range(_WRITERS):
            for j in range(_ENTRIES_PER_WRITER):
                assert entries["reward"][(f"writer-{index}", f"sig-{j}")] == float(
                    index * 100 + j
                )


# ---------------------------------------------------------------------------
# Crash injection
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_sigkill_before_the_replace_leaves_the_old_snapshot_and_a_recoverable_lock(
        self, tmp_path, crashed_writer
    ):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {("pre", "crash"): 1.0}})
        dead_pid = crashed_writer(path)

        # The crash left a dead-pid lock and a complete but unrenamed tmp file.
        lock_dir = Path(str(path) + ".lock")
        assert lock_dir.is_dir()
        assert FileLock(lock_dir).read_info()["pid"] == dead_pid
        tmp_file = Path(str(path) + ".tmp")
        assert tmp_file.exists()

        # Loading breaks the lock (dead-pid probe, well within the timeout)
        # and reads the untouched pre-crash snapshot.
        store = SharedCacheStore(path, lock_timeout=5.0)
        entries, status = store.load()
        assert status.status == "loaded"
        assert status.error == ""
        assert entries["reward"] == {("pre", "crash"): 1.0}
        assert store.lock.breaks == 1

        # The next publish merges into the old snapshot and overwrites the
        # leftover tmp file on its way to the replace.
        publish = SharedCacheStore(path, lock_timeout=5.0).publish(
            {"reward": {("post", "crash"): 2.0}}
        )
        assert publish.status == "merged"
        assert not tmp_file.exists()
        entries, status = SharedCacheStore(path).load()
        assert status.error == ""
        assert entries["reward"] == {("pre", "crash"): 1.0, ("post", "crash"): 2.0}

    def test_crash_before_the_first_publish_leaves_a_missing_store(
        self, tmp_path, crashed_writer
    ):
        path = tmp_path / "store.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        crashed_writer(path)  # the unrenamed tmp file is the *only* content
        entries, status = SharedCacheStore(path, lock_timeout=5.0).load()
        assert entries is None and status.status == "missing"
        publish = SharedCacheStore(path, lock_timeout=5.0).publish(
            {"reward": {"fresh": 1.0}}
        )
        assert publish.status == "saved"
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded" and entries["reward"] == {"fresh": 1.0}


# ---------------------------------------------------------------------------
# Serial vs concurrent CLI parity (end to end, cheap experiment)
# ---------------------------------------------------------------------------


def _run_command(results_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli",
        "run", "figure10", "--smoke", "--train-steps", "2",
        "--results-dir", str(results_dir),
    ]


class TestSerialVsConcurrentParity:
    def test_two_concurrent_runs_match_the_serial_fingerprint_and_merge(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": "src"}
        serial_dir, shared_dir = tmp_path / "serial", tmp_path / "shared"

        subprocess.run(
            _run_command(serial_dir),
            cwd=REPO_ROOT, env=env, check=True, capture_output=True, text=True,
        )
        (serial_record,) = ArtifactStore(serial_dir).list_runs()

        # A sentinel another process already published: the old whole-pickle
        # snapshot was last-writer-wins, the store must keep it.
        shared_store_path = ArtifactStore(shared_dir).cache_path
        SharedCacheStore(shared_store_path).publish(
            {"reward": {("foreign", "sentinel"): 42.0}}
        )

        workers = [
            subprocess.Popen(
                _run_command(shared_dir),
                cwd=REPO_ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for worker in workers:
            _, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr

        records = ArtifactStore(shared_dir).list_runs()
        assert [record.status for record in records] == ["completed", "completed"]
        assert {record.fingerprint() for record in records} == {
            serial_record.fingerprint()
        }

        entries, status = SharedCacheStore(shared_store_path).load()
        assert status.status == "loaded"
        assert entries["reward"][("foreign", "sentinel")] == 42.0
        assert len(entries.get("compile", {})) >= 2  # the runs' deltas landed too
