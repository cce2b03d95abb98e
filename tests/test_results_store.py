"""Tests for the results subsystem: records, the artifact store, cache persistence."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.results import ArtifactStore, ResultRecord, sanitize_metrics
from repro.runtime import (
    CACHE_FORMAT_VERSION,
    RuntimeConfig,
    RuntimeContext,
    cache_snapshot_filename,
    current,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_caches():
    current().caches.clear()
    yield
    current().caches.clear()


def make_record(run_id="figure5-20260101-000000-abc123", **overrides) -> ResultRecord:
    payload = dict(
        run_id=run_id,
        experiment="figure5",
        status="completed",
        config={"smoke": True, "train_steps": None, "processes": None, "seed": None, "options": {}},
        started_at="2026-01-01T00:00:00+00:00",
        finished_at="2026-01-01T00:00:20+00:00",
        duration_seconds=20.0,
        metrics={"geomean_speedup_tvm_a100": 2.5, "rows": 18},
        table="model target backend speedup\nresnet18 a100 tvm 2.50x",
        cache_stats={"compile": {"hits": 10, "misses": 2}},
        environment={"REPRO_SMOKE": "1"},
    )
    payload.update(overrides)
    return ResultRecord(**payload)


# ---------------------------------------------------------------------------
# ResultRecord
# ---------------------------------------------------------------------------


def test_record_json_round_trip():
    record = make_record()
    restored = ResultRecord.from_json(record.to_json())
    assert restored == record
    assert restored.fingerprint() == record.fingerprint()


def test_record_fingerprint_covers_payload_not_incidentals():
    record = make_record()
    # Incidental fields do not change identity...
    twin = make_record(
        run_id="figure5-20270101-999999-zzzzzz",
        started_at="2027-01-01T00:00:00+00:00",
        duration_seconds=0.5,
        cache_stats={"compile": {"hits": 0, "misses": 12}},
    )
    assert twin.fingerprint() == record.fingerprint()
    # ...but the deterministic payload does.
    assert make_record(metrics={"rows": 17}).fingerprint() != record.fingerprint()
    assert make_record(config={"smoke": False}).fingerprint() != record.fingerprint()


def test_sanitize_metrics_handles_non_finite_and_non_numeric():
    cleaned = sanitize_metrics(
        {"ok": 1.5, "count": 3, "inf": float("inf"), "nan": float("nan"), "text": "n/a"}
    )
    assert cleaned == {"ok": 1.5, "count": 3, "inf": None, "nan": None, "text": None}


# ---------------------------------------------------------------------------
# ArtifactStore
# ---------------------------------------------------------------------------


def test_store_save_load_list_latest(tmp_path):
    store = ArtifactStore(tmp_path)
    first = make_record("figure5-20260101-000000-aaaaaa")
    second = make_record(
        "table3-20260101-000100-bbbbbb",
        experiment="table3",
        started_at="2026-01-01T00:01:00+00:00",
    )
    store.save(first)
    store.save(second)

    assert store.load(first.run_id) == first
    assert (store.run_dir(first.run_id) / "table.txt").read_text().startswith("model target")
    assert [record.run_id for record in store.list_runs()] == [first.run_id, second.run_id]
    assert [record.run_id for record in store.list_runs("table3")] == [second.run_id]
    assert store.latest().run_id == second.run_id
    assert store.latest("figure5").run_id == first.run_id


def test_store_root_defaults_to_results_dir_env(tmp_path):
    edge = RuntimeConfig.from_env({"REPRO_RESULTS_DIR": str(tmp_path / "elsewhere")})
    with RuntimeContext(edge).activate():
        store = ArtifactStore()
    assert store.root == tmp_path / "elsewhere"
    assert store.cache_path.name == cache_snapshot_filename()


def test_store_skips_unreadable_records(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(make_record())
    bad = store.runs_dir / "broken-run"
    bad.mkdir(parents=True)
    (bad / "record.json").write_text("{not json")
    assert len(store.list_runs()) == 1


# ---------------------------------------------------------------------------
# Cache persistence
# ---------------------------------------------------------------------------


def test_cache_persist_and_reload_in_process(tmp_path):
    path = tmp_path / cache_snapshot_filename()
    runtime = current()
    calls = []
    runtime.cached_reward(("persist-test",), "sig", lambda: calls.append(1) or 0.75)
    saved = runtime.save_caches(str(path))
    assert saved.entries["reward"] == 1

    runtime.caches.clear()  # simulate a fresh process
    added = runtime.load_caches(str(path))
    assert added.entries["reward"] == 1
    value = runtime.cached_reward(("persist-test",), "sig", lambda: calls.append(1) or 0.0)
    assert value == 0.75 and calls == [1]
    assert runtime.caches.stats()["reward"].hits == 1


def test_load_ignores_missing_and_version_mismatched_snapshots(tmp_path):
    runtime = current()
    assert runtime.load_caches(str(tmp_path / "absent.pkl")).status == "missing"

    stale = tmp_path / "stale.pkl"
    stale.write_bytes(
        pickle.dumps(
            {"version": CACHE_FORMAT_VERSION + 1, "caches": {"reward": {("k",): 1.0}}}
        )
    )
    assert runtime.load_caches(str(stale)).status == "version-mismatch"
    assert len(runtime.caches.reward) == 0

    corrupt = tmp_path / "corrupt.pkl"
    corrupt.write_bytes(b"not a pickle")
    assert runtime.load_caches(str(corrupt)).status == "unreadable"


def test_save_skips_unpicklable_entries(tmp_path):
    path = tmp_path / "snapshot.pkl"
    runtime = current()
    runtime.caches.reward.put(("fine",), 1.0)
    runtime.caches.reward.put(("poison",), lambda: None)  # lambdas cannot be pickled
    saved = runtime.save_caches(str(path))
    assert saved.entries["reward"] == 1

    runtime.caches.clear()
    loaded = runtime.load_caches(str(path))
    assert loaded.entries == {"reward": 1, "compile": 0, "baseline": 0}
    found, value = runtime.caches.reward.lookup(("fine",))
    assert found and value == 1.0


def test_in_process_values_win_over_persisted_ones(tmp_path):
    path = tmp_path / "snapshot.pkl"
    runtime = current()
    runtime.caches.reward.put(("shared",), 1.0)
    runtime.save_caches(str(path))
    runtime.caches.clear()
    runtime.caches.reward.put(("shared",), 2.0)
    assert runtime.load_caches(str(path)).entries["reward"] == 0
    assert runtime.caches.reward.lookup(("shared",)) == (True, 2.0)


def test_disabled_caches_do_not_clobber_a_warm_snapshot(tmp_path):
    path = tmp_path / "snapshot.pkl"
    current().caches.reward.put(("warm",), 1.0)
    assert current().save_caches(str(path)).entries["reward"] == 1

    with current().derive(eval_cache=False).activate():
        current().caches.clear()
        # must not overwrite the warm file; loading is a no-op while disabled
        assert current().save_caches(str(path)).status == "disabled"
        assert current().load_caches(str(path)).status == "disabled"

    assert current().load_caches(str(path)).entries["reward"] == 1


def test_save_survives_unwritable_destination(tmp_path):
    current().caches.reward.put(("k",), 1.0)
    target = tmp_path / "file-not-dir" / "snapshot.pkl"
    (tmp_path / "file-not-dir").write_text("")  # makedirs will fail on this
    # logged, not raised
    assert current().save_caches(str(target)).status == "write-failed"


def test_cache_persist_across_two_processes(tmp_path):
    """Process A computes and saves; process B loads and must not recompute."""
    path = tmp_path / cache_snapshot_filename()
    producer = textwrap.dedent(
        f"""
        from repro.runtime import current
        current().cached_reward(("two-proc",), "sig", lambda: 41.5)
        status = current().save_caches({str(path)!r})
        assert status.entries["reward"] == 1, status
        """
    )
    consumer = textwrap.dedent(
        f"""
        from repro.runtime import current
        added = current().load_caches({str(path)!r})
        assert added.entries["reward"] == 1, added
        def recompute():
            raise AssertionError("work item was recomputed despite the snapshot")
        value = current().cached_reward(("two-proc",), "sig", recompute)
        assert value == 41.5, value
        assert current().caches.stats()["reward"].hits == 1
        """
    )
    for script in (producer, consumer):
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            check=True,
            capture_output=True,
            text=True,
        )
