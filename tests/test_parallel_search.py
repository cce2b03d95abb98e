"""Serial/sharded parity and determinism of the sharded search executor.

Covers :mod:`repro.search.parallel` (deterministic partition, order-preserving
merge, worker-cache merge-back), the batched MCTS frontier API
(``propose_batch`` / ``pending_evaluations`` / ``apply_results``), and the
headline guarantee: for a fixed seed, ``shards=1`` and ``shards=4`` produce
bit-identical candidate sets, rewards and record fingerprints.
"""

from __future__ import annotations

import functools
import logging
import os
from pathlib import Path

import pytest

from repro.core.enumeration import default_options_for
from repro.codegen.loopnest import cached_loopnest
from repro.core.library import K, M, OUT_FEATURES, build_matmul, matmul_spec
from repro.core.mcts import MCTS, MCTSConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.runtime import RuntimeConfig, RuntimeContext, SharedCacheStore, current
from repro.search.parallel import shard_partition, sharded_map


@pytest.fixture(autouse=True)
def _fresh_caches():
    current().caches.clear()
    yield
    current().caches.clear()


def _sample_key(record):
    return (record.operator.graph.signature(), record.reward, record.iteration)


def _matmul_search(reward_fn, *, seed=1, iterations=40, batch_size=4, cache_context=None):
    spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
    options = default_options_for(spec, coefficients=[], max_depth=3)
    return MCTS(
        spec=spec,
        options=options,
        reward_fn=reward_fn,
        config=MCTSConfig(
            iterations=iterations,
            seed=seed,
            batch_size=batch_size,
            cache_context=cache_context,
        ),
    )


def _signature_reward(operator) -> float:
    """A deterministic, picklable reward: a pure function of the signature."""
    return (hash(operator.graph.signature()) % 1000) / 1000.0


def _double(x):
    return x * 2


# ---------------------------------------------------------------------------
# sharded_map: partition, order, merge
# ---------------------------------------------------------------------------


class TestShardedMap:
    def test_partition_is_strided_and_covers_everything(self):
        partition = shard_partition(7, 3)
        assert partition == [[0, 3, 6], [1, 4], [2, 5]]
        assert sorted(index for shard in partition for index in shard) == list(range(7))

    def test_results_in_input_order_any_shard_count(self):
        items = list(range(11))
        expected = [item * 2 for item in items]
        for shards in (1, 2, 3, 8, 16):
            assert sharded_map(_double, items, shards=shards, max_workers=4) == expected

    def test_serial_fallbacks_are_result_identical(self):
        # One item, one shard, and no spare workers all take the serial path.
        assert sharded_map(_double, [21], shards=4) == [42]
        assert sharded_map(_double, [1, 2], shards=1) == [2, 4]
        assert sharded_map(_double, [1, 2], shards=4, max_workers=1) == [2, 4]

    def test_unpicklable_work_runs_in_forked_workers(self):
        # A closure cannot be pickled, but forked workers inherit it.
        local = 10
        results = sharded_map(
            lambda x: (x + local, os.getpid()), [1, 2, 3], shards=2, max_workers=2
        )
        assert [value for value, _ in results] == [11, 12, 13]
        assert all(pid != os.getpid() for _, pid in results)

    def test_unpicklable_results_fall_back_to_serial(self):
        results = sharded_map(_make_closure, [1, 2, 3], shards=2, max_workers=2)
        assert [fn() for fn in results] == [1, 2, 3]

    def test_worker_reward_caches_merge_back_into_the_parent(self):
        worker = functools.partial(_cached_square, "merge-test")
        assert sharded_map(worker, [1, 2, 3, 4], shards=2, max_workers=2) == [1, 4, 9, 16]
        # The workers computed the rewards, yet the parent cache is warm.
        assert len(current().caches.reward) == 4
        calls = []
        assert _cached_square("merge-test", 3, calls) == 9
        assert calls == []  # parent hit, no recompute

    def test_shards_env_knob_is_the_default(self):
        edge = RuntimeConfig.from_env({"REPRO_SEARCH_SHARDS": "5"})
        assert edge.shards == 5
        assert RuntimeConfig.from_env({}).shards == 1


def _make_closure(value):
    """Picklable worker whose *result* (a closure) cannot cross back."""
    return lambda: value


def _cached_square(context, value, calls=None):
    def compute():
        if calls is not None:
            calls.append(value)
        return float(value * value)

    return current().cached_reward(context, str(value), compute)


# ---------------------------------------------------------------------------
# Batched MCTS frontier
# ---------------------------------------------------------------------------


class TestBatchedFrontier:
    def test_propose_apply_round_trip_matches_run(self):
        """Driving the frontier API by hand reproduces run() exactly."""
        reference = _matmul_search(_signature_reward).run()

        current().caches.clear()
        search = _matmul_search(_signature_reward)
        done = 0
        while done < search.config.iterations:
            wave = search.propose_batch(
                min(search.config.batch_size, search.config.iterations - done)
            )
            pending = search.pending_evaluations(wave)
            rewards = {sig: _signature_reward(op) for sig, op in pending}
            search.apply_results(wave, rewards)
            done += len(wave)
        assert [_sample_key(s) for s in search.best_samples()] == [
            _sample_key(s) for s in reference
        ]

    def test_pending_evaluations_are_unique_and_exclude_known(self):
        search = _matmul_search(_signature_reward, iterations=12, batch_size=12)
        wave = search.propose_batch(12)
        pending = search.pending_evaluations(wave)
        signatures = [sig for sig, _ in pending]
        assert len(signatures) == len(set(signatures))
        search.apply_results(wave, dict.fromkeys(signatures, 0.5))
        # A later wave never re-requests an already-evaluated signature.
        second = search.propose_batch(12)
        assert not set(sig for sig, _ in search.pending_evaluations(second)) & set(signatures)

    def test_batch_width_one_reproduces_the_classic_loop(self):
        """run(batch_size=1) equals the classic one-sample-at-a-time loop.

        The classic loop is expressed through the frontier API itself:
        propose one rollout, evaluate it immediately, apply it — reward
        available before the next selection, exactly like the pre-batching
        implementation.
        """
        classic = _matmul_search(_signature_reward, batch_size=1)
        for _ in range(classic.config.iterations):
            (pending,) = classic.propose_batch(1)
            wave = [pending]
            rewards = {sig: _signature_reward(op) for sig, op in classic.pending_evaluations(wave)}
            classic.apply_results(wave, rewards)

        current().caches.clear()
        batched = _matmul_search(_signature_reward, batch_size=1).run()
        assert [_sample_key(s) for s in batched] == [
            _sample_key(s) for s in classic.best_samples()
        ]


class TestMCTSDeterminism:
    def test_same_seed_same_sample_sequence(self):
        first = _matmul_search(_signature_reward, cache_context="det").run()
        second = _matmul_search(_signature_reward, cache_context="det").run()
        assert first, "the search must find samples for the test to mean anything"
        assert [_sample_key(s) for s in first] == [_sample_key(s) for s in second]

    def test_sample_sequence_survives_a_cache_round_trip(self, tmp_path):
        """Warm rewards from a persisted snapshot must not alter the search."""
        calls = []

        def counting_reward(operator):
            calls.append(operator.graph.signature())
            return _signature_reward(operator)

        first = _matmul_search(counting_reward, cache_context="round-trip").run()
        assert calls, "first run must actually evaluate"
        snapshot = tmp_path / "caches.pkl"
        current().save_caches(str(snapshot))

        current().caches.clear()
        current().load_caches(str(snapshot))
        calls.clear()
        second = _matmul_search(counting_reward, cache_context="round-trip").run()
        assert calls == []  # every reward came from the reloaded snapshot
        assert [_sample_key(s) for s in first] == [_sample_key(s) for s in second]

    def test_rewards_are_computed_with_an_explicit_runtime_active(self):
        """A serial wave runs like a shard worker: under the activated context."""
        ctx = RuntimeContext(RuntimeConfig())
        active = []

        def reward(operator):
            active.append(current())
            return _signature_reward(operator)

        with ctx.activate():
            samples = _matmul_search(reward, iterations=12).run()
        assert samples and active
        assert all(context is ctx for context in active)
        assert len(ctx.caches.reward) == len(active)
        assert len(current().caches.reward) == 0

    def test_serial_vs_sharded_waves_are_bit_identical(self):
        serial = _matmul_search(_signature_reward, cache_context="parity-serial").run()

        current().caches.clear()
        with current().derive(shards=4).activate():
            sharded = _matmul_search(_signature_reward, cache_context="parity-sharded").run()
        assert [_sample_key(s) for s in serial] == [_sample_key(s) for s in sharded]
        # The sharded run left the parent's reward cache exactly as warm.
        assert len(current().caches.reward) >= len(
            {s.operator.graph.signature() for s in sharded}
        )


# ---------------------------------------------------------------------------
# Experiment-level parity: shards=1 vs shards=4
# ---------------------------------------------------------------------------


class TestExperimentParity:
    def test_figure8_record_is_identical_serial_vs_sharded(self):
        """The acceptance scenario: fixed seed, shards=1 vs =4, same record."""
        config = ExperimentConfig(smoke=True, train_steps=2, seed=0)
        with current().derive(shards=1).activate():
            serial = run_experiment("figure8", config)
        current().caches.clear()
        with current().derive(shards=4).activate():
            sharded = run_experiment("figure8", config)
        assert serial.record.table == sharded.record.table
        assert serial.record.metrics == sharded.record.metrics
        assert serial.record.fingerprint() == sharded.record.fingerprint()

    def test_explicit_shards_config_shares_the_serial_fingerprint(self):
        """`repro run --shards 4` must produce the same record identity.

        The shard count is excluded from the fingerprinted config (results
        are identical by construction); it is still recorded in the run's
        environment for `repro report`.
        """
        serial = run_experiment("figure8", ExperimentConfig(smoke=True, train_steps=2))
        current().caches.clear()
        sharded = run_experiment(
            "figure8", ExperimentConfig(smoke=True, train_steps=2, shards=4)
        )
        assert serial.record.fingerprint() == sharded.record.fingerprint()
        assert sharded.record.config["shards"] is None
        # The count survives in the record's resolved runtime config, marked
        # as an explicit override.
        assert sharded.record.environment["runtime"]["shards"] == 4
        assert sharded.record.environment["provenance"]["shards"] == "explicit"

    def test_explicit_processes_config_shares_the_serial_fingerprint(self):
        """`repro run figure5 --processes 2` keeps the serial record identity.

        Its record also counts the lookups the forked workers made, so a
        cold fanned-out run reports the serial run's cache activity.
        """
        serial = run_experiment("figure5", ExperimentConfig(smoke=True))
        current().caches.clear()
        forked = run_experiment("figure5", ExperimentConfig(smoke=True, processes=2))
        assert forked.record.metrics == serial.record.metrics
        assert forked.record.fingerprint() == serial.record.fingerprint()
        assert forked.record.cache_stats == serial.record.cache_stats
        assert forked.record.config["processes"] is None
        assert forked.record.environment["runtime"]["eval_processes"] == 2
        assert forked.record.environment["provenance"]["eval_processes"] == "explicit"

    def test_figure8_variants_identical_across_forked_workers(self):
        """Force real worker processes (even on one core) and compare."""
        from repro.compiler.targets import MOBILE_CPU
        from repro.experiments.figure8 import _VARIANTS, _variant_points

        serial = [_variant_points(2, 0, MOBILE_CPU, variant) for variant in _VARIANTS]
        current().caches.clear()
        worker = functools.partial(_variant_points, 2, 0, MOBILE_CPU)
        forked = sharded_map(worker, _VARIANTS, shards=3, max_workers=3)
        assert serial == forked
        # The workers' training/tuning results were merged back.
        sizes = current().caches.sizes()
        assert sizes["baseline"] > 0 and sizes["compile"] > 0


# ---------------------------------------------------------------------------
# Live store sync at wave boundaries (REPRO_CACHE_LIVE_SYNC)
# ---------------------------------------------------------------------------


def _live_probe(item):
    """Picklable worker: a cached reward that records which process computed it."""
    return current().cached_reward("live", f"sig{item}", lambda: float(item))


def _live_probe_with_lowering(item):
    """Like :func:`_live_probe`, plus a memory-only lowering cache entry."""
    binding = {M: 4, K: 2 * item, OUT_FEATURES: 5}
    cached_loopnest(build_matmul(), binding)
    return _live_probe(item)


def _live_context(tmp_path, **overrides) -> RuntimeContext:
    config = RuntimeConfig(
        results_dir=str(tmp_path / "results"), cache_live_sync=True, **overrides
    )
    return RuntimeContext(config)


class TestLiveStoreSync:
    def test_map_absorbs_foreign_entries_and_publishes_its_own(self, tmp_path):
        ctx = _live_context(tmp_path)
        # Another process already published an entry this one never computed.
        SharedCacheStore(ctx.snapshot_path()).publish(
            {"reward": {("live", "foreign"): 7.25}}
        )
        with ctx.activate():
            results = sharded_map(_live_probe, [1, 2, 3, 4], shards=2, max_workers=2)
        assert results == [1.0, 2.0, 3.0, 4.0]
        # Absorbed before the fan-out: a lookup is a hit, not a recompute.
        assert ctx.cached_reward("live", "foreign", lambda: 0.0) == 7.25
        # Published after the merge: a fresh process sees this wave's rewards.
        entries, status = SharedCacheStore(ctx.snapshot_path()).load()
        assert status.status == "loaded"
        assert entries["reward"][("live", "foreign")] == 7.25
        for item in (1, 2, 3, 4):
            assert entries["reward"][("live", f"sig{item}")] == float(item)

    def test_serial_fallback_path_syncs_too(self, tmp_path):
        """At ``max_workers=1`` sharded_map runs serially; sync must survive."""
        ctx = _live_context(tmp_path)
        with ctx.activate():
            results = sharded_map(_live_probe, [5, 6], shards=4, max_workers=1)
        assert results == [5.0, 6.0]
        entries, status = SharedCacheStore(ctx.snapshot_path()).load()
        assert status.status == "loaded"
        assert entries["reward"] == {("live", "sig5"): 5.0, ("live", "sig6"): 6.0}

    def test_held_lock_skips_the_publish_without_failing_the_map(
        self, tmp_path, lock_holder, caplog
    ):
        ctx = _live_context(tmp_path, cache_lock_timeout=0.2)
        SharedCacheStore(ctx.snapshot_path()).publish(
            {"reward": {("live", "foreign"): 7.25}}
        )
        holder = lock_holder(ctx.snapshot_path() + ".lock")
        with ctx.activate(), caplog.at_level(logging.WARNING, logger="repro.search.parallel"):
            results = sharded_map(_live_probe, [1, 2, 3, 4], shards=2, max_workers=2)
        assert results == [1.0, 2.0, 3.0, 4.0]  # live sync never gates results
        # The refresh is lock-free and still absorbed the foreign entry...
        assert ctx.cached_reward("live", "foreign", lambda: 0.0) == 7.25
        # ...but the publish was skipped, with a warning, not an error.
        assert any("live cache publish" in message for message in caplog.messages)
        holder.release()
        entries, _ = SharedCacheStore(ctx.snapshot_path()).load()
        assert ("live", "sig1") not in entries["reward"]

    def test_publish_recovers_from_a_crashed_writer(self, tmp_path, crashed_writer):
        """A SIGKILLed writer's dead-pid lock and stray tmp file don't stop live sync."""
        ctx = _live_context(tmp_path, cache_lock_timeout=5.0)
        Path(ctx.snapshot_path()).parent.mkdir(parents=True, exist_ok=True)
        crashed_writer(ctx.snapshot_path())
        with ctx.activate():
            results = sharded_map(_live_probe, [1, 2], shards=2, max_workers=2)
        assert results == [1.0, 2.0]
        entries, status = SharedCacheStore(ctx.snapshot_path()).load()
        assert status.status == "loaded"
        assert status.error == ""
        assert entries["reward"][("live", "sig1")] == 1.0

    @pytest.mark.parametrize("max_workers", [2, 1])
    def test_memory_only_caches_never_reach_the_store(self, tmp_path, max_workers):
        ctx = _live_context(tmp_path)
        with ctx.activate():
            results = sharded_map(
                _live_probe_with_lowering, [1, 2], shards=2, max_workers=max_workers
            )
        assert results == [1.0, 2.0]
        assert len(ctx.caches.lowering) == 2  # computed (and merged back) ...
        entries, status = SharedCacheStore(ctx.snapshot_path()).load()
        assert status.status == "loaded"
        assert entries["reward"] == {("live", "sig1"): 1.0, ("live", "sig2"): 2.0}
        assert "lowering" not in entries and "plan" not in entries  # ... but not published

    def test_live_sync_is_off_by_default(self, tmp_path):
        ctx = RuntimeContext(RuntimeConfig(results_dir=str(tmp_path / "results")))
        with ctx.activate():
            assert sharded_map(_live_probe, [1, 2], shards=2, max_workers=2) == [1.0, 2.0]
        assert not Path(ctx.snapshot_path()).exists()
