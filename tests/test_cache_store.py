"""Crash/contention harness for the process-safe shared cache store.

This file is the acceptance bar of the store (ROADMAP open item 2, in the
style of the Theano compile-lock test contract):

* lock semantics — timeout, forced unlock, stale dead-pid recovery — against
  *real* holder processes (the ``lock_holder`` fixture in ``conftest.py``);
* append/merge store format — deltas join, existing entries win, the LRU cap
  compacts, wrong-version and non-framed files are reported, never loaded;
* real multiprocess contention — N writer processes race one store and every
  writer's delta survives (the old whole-pickle snapshot kept only the last
  writer's);
* crash injection — a writer SIGKILLed mid-append (``crashed_writer``) leaves
  the store loadable and its lock recoverable within the timeout;
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
import zlib
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
from repro.runtime.store import FRAME_HEADER, FRAME_MAGIC

REPO_ROOT = Path(__file__).resolve().parent.parent


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
# Store format: append/merge, repair, migration, cap
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

    def test_torn_tail_is_read_around_and_repaired_by_the_next_publish(self, tmp_path):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {"good": 1.0}})
        with open(path, "ab") as handle:
            handle.write(b"\x00torn garbage from a crashed writer")
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded"
        assert "torn tail" in status.error
        assert entries["reward"] == {"good": 1.0}
        # The next publish truncates the tail before appending.
        SharedCacheStore(path).publish({"reward": {"after": 2.0}})
        entries, status = SharedCacheStore(path).load()
        assert status.error == ""
        assert entries["reward"] == {"good": 1.0, "after": 2.0}

    def test_wholly_torn_store_reports_unreadable_and_recovers(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(FRAME_MAGIC + b"\x00\x00")  # torn before any frame
        entries, status = SharedCacheStore(path).load()
        assert entries is None and status.status == "unreadable"
        publish = SharedCacheStore(path).publish({"reward": {"k": 1.0}})
        assert publish.ok
        entries, status = SharedCacheStore(path).load()
        assert status.status == "loaded" and entries["reward"] == {"k": 1.0}

    def test_wrong_version_frames_report_version_mismatch(self, tmp_path):
        path = tmp_path / "store.pkl"
        payload = pickle.dumps({"version": 999, "caches": {"reward": {"k": 1.0}}})
        path.write_bytes(
            FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload
        )
        entries, status = SharedCacheStore(path).load()
        assert entries is None
        assert status.status == "version-mismatch"
        assert status.snapshot_version == 999

    def test_non_framed_file_reports_unreadable_and_publish_rewrites_it(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(
            pickle.dumps({"version": CACHE_FORMAT_VERSION, "caches": {"reward": {"old": 1.0}}})
        )
        entries, status = SharedCacheStore(path).load()
        assert entries is None and status.status == "unreadable"
        # The next publish replaces the foreign file with a framed store.
        SharedCacheStore(path).publish({"reward": {"new": 2.0}})
        assert path.read_bytes().startswith(FRAME_MAGIC)
        entries, _ = SharedCacheStore(path).load()
        assert entries["reward"] == {"new": 2.0}

    def test_read_new_entries_is_incremental(self, tmp_path):
        path = tmp_path / "store.pkl"
        reader = SharedCacheStore(path)
        assert reader.read_new_entries() == {}
        SharedCacheStore(path).publish({"reward": {"a": 1.0}})
        assert reader.read_new_entries() == {"reward": {"a": 1.0}}
        SharedCacheStore(path).publish({"reward": {"b": 2.0}})
        assert reader.read_new_entries() == {"reward": {"b": 2.0}}
        assert reader.read_new_entries() == {}

    def test_read_new_entries_survives_a_concurrent_compaction(self, tmp_path):
        path = tmp_path / "store.pkl"
        reader = SharedCacheStore(path)
        store = SharedCacheStore(path)
        for index in range(4):
            store.publish({"reward": {f"sig{index}": float(index)}})
        assert len(reader.read_new_entries()["reward"]) == 4
        # Another process compacts the store under the reader's feet.
        SharedCacheStore(path).publish({}, max_entries=2)
        assert len(reader.read_new_entries().get("reward", {})) == 2

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
    def test_sigkill_mid_write_leaves_store_loadable_and_lock_recoverable(
        self, tmp_path, crashed_writer
    ):
        path = tmp_path / "store.pkl"
        SharedCacheStore(path).publish({"reward": {("pre", "crash"): 1.0}})
        dead_pid = crashed_writer(path)

        # The crash left a dead-pid lock and a torn trailing frame.
        lock_dir = Path(str(path) + ".lock")
        assert lock_dir.is_dir()
        assert FileLock(lock_dir).read_info()["pid"] == dead_pid

        # Loading recovers the lock (dead-pid break, well within the timeout)
        # and reads everything up to the torn tail.
        entries, status = SharedCacheStore(path, lock_timeout=5.0).load()
        assert status.status == "loaded"
        assert "torn tail" in status.error
        assert entries["reward"] == {("pre", "crash"): 1.0}

        # Publishing repairs the tail; subsequent loads are pristine.
        publish = SharedCacheStore(path, lock_timeout=5.0).publish(
            {"reward": {("post", "crash"): 2.0}}
        )
        assert publish.status == "merged"
        entries, status = SharedCacheStore(path).load()
        assert status.error == ""
        assert entries["reward"] == {("pre", "crash"): 1.0, ("post", "crash"): 2.0}

    def test_crash_before_any_complete_frame_still_recovers(
        self, tmp_path, crashed_writer
    ):
        path = tmp_path / "store.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        crashed_writer(path)  # the torn frame is the *only* content
        entries, status = SharedCacheStore(path, lock_timeout=5.0).load()
        assert entries is None and status.status == "unreadable"
        publish = SharedCacheStore(path, lock_timeout=5.0).publish(
            {"reward": {"fresh": 1.0}}
        )
        assert publish.status in ("saved", "merged")
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
