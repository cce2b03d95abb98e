"""Supervised shard execution under injected and real faults.

Covers :mod:`repro.runtime.faults` (plan grammar, site registry, armed-worker
confinement) and the supervised executor in :mod:`repro.search.parallel`:
killed workers are retried, hung workers are reaped within the shard timeout,
exhausted retries fall back to in-process serial execution of just that
partition, injected store faults surface as statuses — and in every case the
results (and experiment fingerprints) are bit-identical to the fault-free run.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.runtime import (
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    RuntimeConfig,
    RuntimeContext,
    current,
)
from repro.runtime.faults import (
    SITE_ITEM_EVAL,
    SITE_SHARD_ENTRY,
    SITE_SNAPSHOT_LOAD,
    SITE_STORE_PUBLISH,
    arm_worker,
    disarm_worker,
    fault_sites,
    inject,
)
from repro.search.parallel import sharded_map


@pytest.fixture(autouse=True)
def _fresh_state():
    current().caches.clear()
    disarm_worker()
    yield
    current().caches.clear()
    disarm_worker()


def _double(x):
    return x * 2


def _worker_context_probe(x):
    """The worker's pid, and what its ambient context kept of the parent's."""
    runtime = current()
    return (os.getpid(), len(runtime.shard_failures), runtime.wave_evaluator is None)


def _pid_probe(x):
    """Returns the worker's pid with the result, so tests can see *where* an
    item actually ran (forked child vs the parent's serial fallback)."""
    return (os.getpid(), x * 2)


def _boom(x):
    raise ValueError(f"genuine failure on {x}")


def _cache_unpicklable_plan(x):
    """Puts a lambda, which no pickle can carry, into the plan cache."""
    current().cached_plan(("unpicklable", x), lambda: lambda: x)
    return x * 2


def _block_first_attempt(scratch: str, x):
    """Item 3 blocks forever on its first attempt, after publishing its pid.

    The test kills that pid with a real ``os.kill`` (no registry involved);
    the marker file makes the retry attempt sail through.
    """
    if x == 3:
        marker = Path(scratch) / "attempt-1-started"
        if not marker.exists():
            marker.touch()
            (Path(scratch) / "pid").write_text(str(os.getpid()), encoding="utf-8")
            time.sleep(120)
    return x * 2


# ---------------------------------------------------------------------------
# Fault plan grammar
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_multi_rule_spec(self):
        plan = FaultPlan.parse(
            "kill:shard-entry:shard=1,attempt=2; hang:item-eval:seconds=0.5;"
            "raise:store-publish"
        )
        assert [rule.action for rule in plan.rules] == ["kill", "hang", "raise"]
        kill = plan.rules[0]
        assert (kill.site, kill.shard, kill.attempt) == (SITE_SHARD_ENTRY, 1, 2)
        assert plan.rules[1].seconds == 0.5
        assert plan.rules[2].site == SITE_STORE_PUBLISH

    def test_empty_spec_has_no_rules(self):
        assert FaultPlan.parse("").rules == ()
        assert FaultPlan.parse("  ").rules == ()

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:shard-entry",  # unknown action
            "kill:warp-core",  # unknown site
            "kill:shard-entry:color=red",  # unknown matcher key
            "kill:shard-entry:shard=abc",  # malformed value
            "kill",  # missing site
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(spec)

    def test_rule_for_respects_shard_and_attempt_matchers(self):
        plan = FaultPlan.parse("kill:shard-entry:shard=1,attempt=2")
        assert plan.rule_for(SITE_SHARD_ENTRY, 1, 2) is not None
        assert plan.rule_for(SITE_SHARD_ENTRY, 1, 1) is None
        assert plan.rule_for(SITE_SHARD_ENTRY, 0, 2) is None
        assert plan.rule_for(SITE_ITEM_EVAL, 1, 2) is None

    def test_all_injection_sites_are_registered(self):
        assert {
            SITE_SHARD_ENTRY,
            SITE_ITEM_EVAL,
            SITE_STORE_PUBLISH,
            SITE_SNAPSHOT_LOAD,
        } <= set(fault_sites())

    def test_inject_rejects_unregistered_sites(self):
        with pytest.raises(ValueError, match="unregistered fault site"):
            inject("not-a-site")


# ---------------------------------------------------------------------------
# In-process injection semantics
# ---------------------------------------------------------------------------


class TestInjectionConfinement:
    def test_inject_is_a_noop_without_a_plan(self):
        with RuntimeContext(RuntimeConfig()).activate():
            inject(SITE_SHARD_ENTRY)  # must not raise

    def test_raise_rule_fires_as_fault_injected(self):
        ctx = RuntimeContext(RuntimeConfig(fault_plan="raise:store-publish"))
        with ctx.activate(), pytest.raises(FaultInjected):
            inject(SITE_STORE_PUBLISH)

    def test_fault_injected_is_an_os_error(self):
        # The store's existing `except OSError` envelopes are the recovery
        # path for injected publish/load faults; the subclassing is the
        # contract that makes that work.
        assert issubclass(FaultInjected, OSError)

    def test_destructive_rules_are_ignored_outside_a_worker(self):
        # A kill rule matching this (unarmed, parent) process must not fire —
        # otherwise `repro chaos` would kill the supervisor itself.
        ctx = RuntimeContext(RuntimeConfig(fault_plan="kill:shard-entry"))
        with ctx.activate():
            inject(SITE_SHARD_ENTRY)  # still alive ⇒ confinement held

    def test_destructive_rules_honor_armed_identity_matchers(self):
        ctx = RuntimeContext(RuntimeConfig(fault_plan="kill:shard-entry:shard=7"))
        arm_worker(shard=3, attempt=1)
        try:
            with ctx.activate():
                inject(SITE_SHARD_ENTRY)  # shard 3 ≠ 7: no fire
        finally:
            disarm_worker()


# ---------------------------------------------------------------------------
# Supervised execution: the degradation ladder
# ---------------------------------------------------------------------------


class TestSupervisedExecution:
    def test_killed_worker_is_retried_transparently(self):
        ctx = current().derive(fault_plan="kill:shard-entry:shard=1,attempt=1")
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4, 5], shards=2) == [2, 4, 6, 8, 10]
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["signal"]
        assert failures[0].shard == 1 and failures[0].attempt == 1
        assert failures[0].signal == signal.SIGKILL

    def test_exit_rule_reports_the_exit_code(self):
        ctx = current().derive(
            fault_plan="exit:shard-entry:shard=0,attempt=1,exitcode=7"
        )
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["exit"]
        assert failures[0].exitcode == 7

    def test_failure_dicts_keep_the_record_keys_in_order(self):
        """``record.environment["shard_failures"]`` stores these dicts as they are."""
        ctx = current().derive(
            fault_plan="exit:shard-entry:shard=0,attempt=1,exitcode=7"
        )
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        (failure,) = ctx.drain_shard_failures()
        report = failure.to_dict()
        assert list(report) == [
            "shard", "attempt", "kind", "detail", "pid", "exitcode", "signal", "elapsed",
        ]
        assert report["shard"] == 0 and report["attempt"] == 1
        assert report["kind"] == "exit" and report["exitcode"] == 7
        assert report["pid"] not in (None, os.getpid())
        assert json.loads(json.dumps(report)) == report

    def test_item_eval_fault_is_surfaced_cooperatively(self):
        ctx = current().derive(fault_plan="raise:item-eval:shard=0,attempt=1")
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["fault"]
        assert "injected fault" in failures[0].detail

    def test_hung_worker_is_reaped_within_the_shard_timeout(self):
        ctx = current().derive(
            fault_plan="hang:shard-entry:shard=0,attempt=1", shard_timeout=1.0
        )
        start = time.monotonic()
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        wall = time.monotonic() - start
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["timeout"]
        assert failures[0].elapsed >= 1.0
        assert wall < 30.0  # reaped at the timeout, not at the 3600s hang

    def test_exhausted_retries_fall_back_to_in_process_serial(self):
        # shard 1 dies on *every* attempt; shard 0 runs normally in a child.
        ctx = current().derive(
            fault_plan="kill:shard-entry:shard=1", shard_retries=1
        )
        with ctx.activate():
            results = sharded_map(_pid_probe, [1, 2, 3, 4], shards=2)
        assert [value for _, value in results] == [2, 4, 6, 8]
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["signal", "signal"]
        assert [f.attempt for f in failures] == [1, 2]
        # Strided partition: shard 0 ran items 1,3 in a child; shard 1's
        # items 2,4 ran in *this* process via the serial fallback.
        parent = os.getpid()
        assert results[0][0] != parent and results[2][0] != parent
        assert results[1][0] == parent and results[3][0] == parent

    def test_real_os_kill_is_recovered_like_an_injected_one(self, tmp_path):
        pid_file = tmp_path / "pid"

        def sniper():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not pid_file.exists():
                time.sleep(0.02)
            os.kill(int(pid_file.read_text(encoding="utf-8")), signal.SIGKILL)

        thread = threading.Thread(target=sniper, daemon=True)
        thread.start()
        ctx = current().derive(shard_timeout=60.0)
        worker = functools.partial(_block_first_attempt, str(tmp_path))
        with ctx.activate():
            assert sharded_map(worker, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        thread.join(timeout=30.0)
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["signal"]
        assert failures[0].signal == signal.SIGKILL

    def test_genuine_exceptions_still_propagate_first_class(self):
        ctx = current().derive(shards=2)
        with ctx.activate(), pytest.raises(ValueError, match="genuine failure"):
            sharded_map(_boom, [1, 2, 3, 4], shards=2)

    def test_an_unpicklable_cache_entry_reruns_its_partition_in_process(self):
        items = [1, 2, 3, 4]
        with current().isolated().activate():
            expected = sharded_map(_cache_unpicklable_plan, items, shards=1)
        ctx = current().isolated()
        with ctx.activate():
            assert sharded_map(_cache_unpicklable_plan, items, shards=2) == expected
        failures = ctx.drain_shard_failures()
        assert [f.kind for f in failures] == ["unpicklable-result"] * 2
        assert sorted(f.shard for f in failures) == [0, 1]
        # The fallback computed every entry in this process.
        plans = ctx.caches.plan.export_entries()
        assert sorted(key[1] for key in plans if key[0] == "unpicklable") == items

    def test_fault_free_runs_record_no_failures(self):
        ctx = current().derive(shards=2)
        with ctx.activate():
            assert sharded_map(_double, [1, 2, 3, 4], shards=2) == [2, 4, 6, 8]
        assert ctx.drain_shard_failures() == []


# ---------------------------------------------------------------------------
# Experiment-level parity: fault-ridden ≡ fault-free
# ---------------------------------------------------------------------------


class TestChaosParity:
    def test_figure8_fingerprint_survives_a_killed_shard(self):
        config = ExperimentConfig(smoke=True, train_steps=2, seed=0)
        clean_ctx = current().derive(shards=1, fault_plan="")
        with clean_ctx.activate():
            clean = run_experiment("figure8", config)

        current().caches.clear()
        chaos_ctx = current().derive(
            shards=4, fault_plan="kill:shard-entry:shard=1,attempt=1"
        )
        with chaos_ctx.activate():
            chaos = run_experiment("figure8", config)

        assert clean.record.fingerprint() == chaos.record.fingerprint()
        assert clean.record.metrics == chaos.record.metrics
        # The failures are diagnostics in the record's environment — present,
        # but deliberately outside the fingerprinted payload.
        recorded = chaos.record.environment.get("shard_failures")
        assert recorded and recorded[0]["kind"] == "signal"
        assert "shard_failures" not in clean.record.environment


# ---------------------------------------------------------------------------
# Store faults: publish / snapshot-load
# ---------------------------------------------------------------------------


class TestStoreFaults:
    def _warm_context(self, tmp_path, fault_plan=""):
        ctx = RuntimeContext(
            RuntimeConfig(results_dir=str(tmp_path), fault_plan=fault_plan)
        )
        ctx.caches.reward.put(("chaos", "sig"), 1.0)
        return ctx

    def test_injected_publish_fault_becomes_write_failed(self, tmp_path):
        ctx = self._warm_context(tmp_path, fault_plan="raise:store-publish")
        with ctx.activate():
            status = ctx.save_caches(str(tmp_path / "snap.pkl"))
        assert status.status == "write-failed"

    def test_injected_load_fault_becomes_unreadable(self, tmp_path):
        snapshot = tmp_path / "snap.pkl"
        writer = self._warm_context(tmp_path)
        with writer.activate():
            assert writer.save_caches(str(snapshot)).ok

        reader = self._warm_context(tmp_path, fault_plan="raise:snapshot-load")
        with reader.activate():
            status = reader.load_caches(str(snapshot))
        assert status.status == "unreadable"

    def test_destructive_store_rules_never_kill_the_parent(self, tmp_path):
        # `kill:store-publish` in the parent process: confinement downgrades
        # it to a warning and the save completes normally.
        ctx = self._warm_context(tmp_path, fault_plan="kill:store-publish")
        with ctx.activate():
            status = ctx.save_caches(str(tmp_path / "snap.pkl"))
        assert status.status in ("saved", "merged")


# ---------------------------------------------------------------------------
# Knob plumbing
# ---------------------------------------------------------------------------


class TestKnobPlumbing:
    def test_env_knobs_resolve_with_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill:shard-entry:shard=1")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "5")
        config = RuntimeConfig.from_env()
        assert config.fault_plan == "kill:shard-entry:shard=1"
        assert config.shard_timeout == 12.5
        assert config.shard_retries == 5
        provenance = config.provenance_map()
        assert provenance["fault_plan"] == "env"
        assert provenance["shard_timeout"] == "env"
        assert provenance["shard_retries"] == "env"

    def test_defaults_without_env(self):
        config = RuntimeConfig()
        assert config.fault_plan == ""
        assert config.shard_timeout == 300.0
        assert config.shard_retries == 2

    def test_shard_failures_ledger_is_bounded_and_drains(self):
        from repro.search.parallel import ShardFailure

        ctx = RuntimeContext(RuntimeConfig())
        ctx.record_shard_failures(
            [ShardFailure(shard=0, attempt=1, kind="signal", detail=f"f{i}")
             for i in range(1200)]
        )
        assert len(ctx.shard_failures) == 1000  # capped, newest kept
        drained = ctx.drain_shard_failures()
        assert len(drained) == 1000 and drained[-1].detail == "f1199"
        assert ctx.drain_shard_failures() == []

    def test_workers_start_without_the_parents_failures_or_serving_hook(self):
        from repro.search.parallel import ShardFailure

        ctx = RuntimeContext(RuntimeConfig(shards=2))
        recorded = ShardFailure(shard=0, attempt=1, kind="exit", detail="x")
        ctx.record_shard_failures([recorded])
        ctx.wave_evaluator = lambda pending, reward_fn, cache_context: {}
        with ctx.activate():
            probes = sharded_map(_worker_context_probe, [1, 2, 3, 4], max_workers=2)
        assert all(pid != os.getpid() for pid, _, _ in probes)  # really forked
        assert [probe[1:] for probe in probes] == [(0, True)] * 4
        assert ctx.shard_failures == [recorded]
