"""Tests for the scoped runtime API (:mod:`repro.runtime`).

Covers: `RuntimeConfig` provenance (default/env/explicit), the once-per-
process env edge, activation scoping, concurrent contexts with isolated
caches (sequentially interleaved *and* in threads), record parity between
explicit contexts and env-parsed edge contexts, and the structured snapshot
load/save status.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import zlib

import pytest

from repro.compiler.backends import TVMBackend
from repro.compiler.targets import MOBILE_CPU
from repro.experiments.common import evaluate_model, syno_candidates
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.nn.models.common import ConvSlot
from repro.nn.tensor import compute_dtype
from repro.results.store import default_results_dir
from repro.runtime import (
    CACHE_FORMAT_VERSION,
    ENV_KNOBS,
    CacheSet,
    RuntimeConfig,
    RuntimeContext,
    current,
    default_context,
)
from repro.runtime.store import FRAME_HEADER, FRAME_MAGIC
from repro.search.parallel import sharded_map


@pytest.fixture(autouse=True)
def _fresh_default_caches():
    current().caches.clear()
    yield
    current().caches.clear()


# ---------------------------------------------------------------------------
# RuntimeConfig: parsing, provenance, derivation
# ---------------------------------------------------------------------------


class TestRuntimeConfig:
    def test_from_env_tags_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        monkeypatch.setenv("REPRO_SEARCH_SHARDS", "3")
        monkeypatch.delenv("REPRO_TRAIN_STEPS", raising=False)
        config = RuntimeConfig.from_env()
        assert config.smoke is True and config.shards == 3
        provenance = config.provenance_map()
        assert provenance["smoke"] == "env" and provenance["shards"] == "env"
        assert provenance["train_steps"] == "default"
        assert provenance["compiled_forward"] == "default"

    def test_with_overrides_tags_explicit_and_keeps_the_rest(self, monkeypatch):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        config = RuntimeConfig.from_env().with_overrides(train_steps=5)
        assert config.train_steps == 5 and config.smoke is True
        assert config.provenance_map()["train_steps"] == "explicit"
        assert config.provenance_map()["smoke"] == "env"

    def test_direct_construction_marks_non_defaults_explicit(self):
        config = RuntimeConfig(smoke=True, shards=4)
        provenance = config.provenance_map()
        assert provenance["smoke"] == "explicit" and provenance["shards"] == "explicit"
        assert provenance["dtype"] == "default"

    def test_dtype_and_train_steps_derive_from_smoke(self):
        assert RuntimeConfig(smoke=True).dtype_name() == "float32"
        assert RuntimeConfig(smoke=False).dtype_name() == "float64"
        assert RuntimeConfig(smoke=True).resolve_train_steps(40, 8) == 8
        assert RuntimeConfig(train_steps=5).resolve_train_steps(40, 8) == 5
        assert RuntimeConfig(smoke=True, dtype="float64").dtype_name() == "float64"

    def test_unknown_override_and_bad_dtype_are_rejected(self):
        with pytest.raises(TypeError, match="no_such_field"):
            RuntimeConfig().with_overrides(no_such_field=1)
        with pytest.raises(ValueError, match="dtype"):
            RuntimeConfig(dtype="float16")

    def test_malformed_env_values_fall_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_STEPS", "not-a-number")
        monkeypatch.setenv("REPRO_DTYPE", "bfloat16")
        monkeypatch.delenv("REPRO_SMOKE", raising=False)
        config = RuntimeConfig.from_env()
        assert config.train_steps is None and config.dtype is None
        assert config.provenance_map()["train_steps"] == "default"

    def test_empty_string_flag_disables_like_it_always_has(self, monkeypatch):
        """`REPRO_EVAL_CACHE= cmd` (empty value) must still mean disabled."""
        monkeypatch.setenv("REPRO_EVAL_CACHE", "")
        config = RuntimeConfig.from_env()
        assert config.eval_cache is False
        assert config.provenance_map()["eval_cache"] == "env"


_INT = "(expected an integer)"
_NUMBER = "(expected a number)"

#: (field, variable, raw value, parsed value, provenance, warning fragment).
#: Every variable gets a well-formed, a malformed and an empty value.  Flags
#: have no malformed form (anything but "", "0", "false" or "no" is on) and
#: neither do the string knobs, which keep any non-empty value verbatim.
_ENV_CASES = [
    ("smoke", "REPRO_SMOKE", "1", True, "env", None),
    ("smoke", "REPRO_SMOKE", "maybe", True, "env", None),
    ("smoke", "REPRO_SMOKE", "", False, "env", None),
    ("train_steps", "REPRO_TRAIN_STEPS", "5", 5, "env", None),
    ("train_steps", "REPRO_TRAIN_STEPS", "five", None, "default", _INT),
    ("train_steps", "REPRO_TRAIN_STEPS", "", None, "default", None),
    ("dtype", "REPRO_DTYPE", " Float64 ", "float64", "env", None),
    ("dtype", "REPRO_DTYPE", "bfloat16", None, "default", "(expected float32/float64)"),
    ("dtype", "REPRO_DTYPE", "", None, "default", None),
    ("compiled_forward", "REPRO_COMPILED_FORWARD", "0", False, "env", None),
    ("compiled_forward", "REPRO_COMPILED_FORWARD", "maybe", True, "env", None),
    ("compiled_forward", "REPRO_COMPILED_FORWARD", "", False, "env", None),
    ("eval_cache", "REPRO_EVAL_CACHE", "false", False, "env", None),
    ("eval_cache", "REPRO_EVAL_CACHE", "maybe", True, "env", None),
    ("eval_cache", "REPRO_EVAL_CACHE", "", False, "env", None),
    ("eval_processes", "REPRO_EVAL_PROCESSES", "3", 3, "env", None),
    ("eval_processes", "REPRO_EVAL_PROCESSES", "three", 1, "default", _INT),
    ("eval_processes", "REPRO_EVAL_PROCESSES", "", 1, "default", None),
    ("shards", "REPRO_SEARCH_SHARDS", "4", 4, "env", None),
    ("shards", "REPRO_SEARCH_SHARDS", "2.5", 1, "default", _INT),
    ("shards", "REPRO_SEARCH_SHARDS", "", 1, "default", None),
    ("frontier_width", "REPRO_FRONTIER_WIDTH", "4", 4, "env", None),
    ("frontier_width", "REPRO_FRONTIER_WIDTH", "wide", 8, "default", _INT),
    ("frontier_width", "REPRO_FRONTIER_WIDTH", "", 8, "default", None),
    ("cache_max_entries", "REPRO_CACHE_MAX_ENTRIES", "7", 7, "env", None),
    ("cache_max_entries", "REPRO_CACHE_MAX_ENTRIES", "lots", 4096, "default", _INT),
    ("cache_max_entries", "REPRO_CACHE_MAX_ENTRIES", "", 4096, "default", None),
    ("cache_lock_timeout", "REPRO_CACHE_LOCK_TIMEOUT", "2.5", 2.5, "env", None),
    ("cache_lock_timeout", "REPRO_CACHE_LOCK_TIMEOUT", "soon", 10.0, "default", _NUMBER),
    ("cache_lock_timeout", "REPRO_CACHE_LOCK_TIMEOUT", "", 10.0, "default", None),
    ("cache_live_sync", "REPRO_CACHE_LIVE_SYNC", "yes", True, "env", None),
    ("cache_live_sync", "REPRO_CACHE_LIVE_SYNC", "maybe", True, "env", None),
    ("cache_live_sync", "REPRO_CACHE_LIVE_SYNC", "", False, "env", None),
    ("shard_timeout", "REPRO_SHARD_TIMEOUT", "60", 60.0, "env", None),
    ("shard_timeout", "REPRO_SHARD_TIMEOUT", "1m", 300.0, "default", _NUMBER),
    ("shard_timeout", "REPRO_SHARD_TIMEOUT", "", 300.0, "default", None),
    ("shard_retries", "REPRO_SHARD_RETRIES", "5", 5, "env", None),
    ("shard_retries", "REPRO_SHARD_RETRIES", "few", 2, "default", _INT),
    ("shard_retries", "REPRO_SHARD_RETRIES", "", 2, "default", None),
    ("fault_plan", "REPRO_FAULT_PLAN", "kill:shard-entry:shard=1", "kill:shard-entry:shard=1", "env", None),
    ("fault_plan", "REPRO_FAULT_PLAN", "not a plan", "not a plan", "env", None),
    ("fault_plan", "REPRO_FAULT_PLAN", "", "", "default", None),
    ("results_dir", "REPRO_RESULTS_DIR", "/tmp/runs", "/tmp/runs", "env", None),
    ("results_dir", "REPRO_RESULTS_DIR", " odd dir ", " odd dir ", "env", None),
    ("results_dir", "REPRO_RESULTS_DIR", "", "results", "default", None),
    ("library_dir", "REPRO_LIBRARY_DIR", "/tmp/lib", "/tmp/lib", "env", None),
    ("library_dir", "REPRO_LIBRARY_DIR", " odd dir ", " odd dir ", "env", None),
    ("library_dir", "REPRO_LIBRARY_DIR", "", "", "default", None),
    ("seed", "REPRO_SEED", "7", 7, "env", None),
    ("seed", "REPRO_SEED", "0x7", 0, "default", _INT),
    ("seed", "REPRO_SEED", "", 0, "default", None),
    ("verify_plans", "REPRO_VERIFY_PLANS", "1", True, "env", None),
    ("verify_plans", "REPRO_VERIFY_PLANS", "maybe", True, "env", None),
    ("verify_plans", "REPRO_VERIFY_PLANS", "", False, "env", None),
    ("warm_start", "REPRO_WARM_START", "1", True, "env", None),
    ("warm_start", "REPRO_WARM_START", "maybe", True, "env", None),
    ("warm_start", "REPRO_WARM_START", "", False, "env", None),
    # Integer knobs with a floor clamp a well-formed value and keep `env`.
    ("eval_processes", "REPRO_EVAL_PROCESSES", "0", 1, "env", None),
    ("shards", "REPRO_SEARCH_SHARDS", "-3", 1, "env", None),
    ("frontier_width", "REPRO_FRONTIER_WIDTH", "0", 1, "env", None),
    ("shard_retries", "REPRO_SHARD_RETRIES", "-1", 0, "env", None),
    ("cache_lock_timeout", "REPRO_CACHE_LOCK_TIMEOUT", "-2", 0.0, "env", None),
    # ...the unfloored ones keep it as given.
    ("cache_max_entries", "REPRO_CACHE_MAX_ENTRIES", "-1", -1, "env", None),
    ("shard_timeout", "REPRO_SHARD_TIMEOUT", "0", 0.0, "env", None),
]


@pytest.mark.parametrize(
    "field_name, variable, raw, value, provenance, warning",
    _ENV_CASES,
    ids=[f"{case[1]}={case[2]!r}" for case in _ENV_CASES],
)
def test_from_env_parses_every_knob(field_name, variable, raw, value, provenance, warning, caplog):
    """Each variable's parsed value, provenance tag and warning, pinned."""
    with caplog.at_level("WARNING", logger="repro.runtime.config"):
        config = RuntimeConfig.from_env({variable: raw})
    parsed = getattr(config, field_name)
    assert parsed == value and type(parsed) is type(value)
    assert config.provenance_map()[field_name] == provenance
    untouched = RuntimeConfig()
    for other in ENV_KNOBS:
        if other != field_name:
            assert getattr(config, other) == getattr(untouched, other)
            assert config.provenance_map()[other] == "default"
    messages = [record.getMessage() for record in caplog.records]
    if warning is None:
        assert messages == []
    else:
        assert messages == [f"ignoring malformed {variable}={raw!r} {warning}"]


def test_env_cases_cover_every_variable():
    assert {case[1] for case in _ENV_CASES} == set(ENV_KNOBS.values())
    assert {(case[0], case[1]) for case in _ENV_CASES} == set(ENV_KNOBS.items())


# ---------------------------------------------------------------------------
# The process edge and activation scoping
# ---------------------------------------------------------------------------


class TestActivation:
    def test_activate_scopes_and_nests(self):
        outer = RuntimeContext(RuntimeConfig(shards=2))
        inner = RuntimeContext(RuntimeConfig(shards=5))
        assert current() is default_context()
        with outer.activate():
            assert current() is outer and current().config.shards == 2
            with inner.activate():
                assert current() is inner and current().config.shards == 5
            assert current() is outer
        assert current() is default_context()

    def test_shims_follow_the_active_context(self, tmp_path):
        """Module-level ambient resolvers read whichever context is active."""
        ctx = RuntimeContext(
            RuntimeConfig(smoke=True, train_steps=3, results_dir=str(tmp_path))
        )
        with ctx.activate():
            assert compute_dtype().name == "float32"
            assert default_results_dir() == tmp_path
            assert current().config.resolve_train_steps(full=40, smoke=8) == 3
            assert current().caches.reward is ctx.caches.reward
        assert compute_dtype().name == "float64"  # the pinned default context
        assert current().caches.reward is default_context().caches.reward

    def test_env_changes_after_the_edge_leave_config_unchanged(self, monkeypatch):
        """The default context parsed REPRO_* once; later changes steer nothing."""
        context = default_context()
        config, rng = context.config, context.rng
        monkeypatch.setenv("REPRO_SEED", str(config.seed + 7))
        monkeypatch.setenv("REPRO_SMOKE", "0" if config.smoke else "1")
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0" if config.verify_plans else "1")
        assert default_context() is context
        assert current().config is config
        assert current().config.dtype_name() == "float64"
        assert context.rng is rng

    def test_env_knob_changes_keep_the_default_caches(self, monkeypatch):
        """An env change mid-process neither steers nor drops cache warmth."""
        caches = default_context().caches
        caches.reward.put(("warm",), 1.0)
        shards = current().config.shards
        monkeypatch.setenv("REPRO_SEARCH_SHARDS", str(shards + 6))
        assert current().config.shards == shards
        assert default_context().caches is caches
        assert ("warm",) in default_context().caches.reward

    def test_derive_with_results_dir_reroots_the_store(self, tmp_path):
        ctx = RuntimeContext(RuntimeConfig(results_dir=str(tmp_path / "a")))
        assert str(ctx.store.root) == str(tmp_path / "a")  # materialize it
        derived = ctx.derive(results_dir=str(tmp_path / "b"))
        assert str(derived.store.root) == str(tmp_path / "b")
        assert str(derived.snapshot_path()).startswith(str(tmp_path / "b"))
        assert derived.caches is ctx.caches  # caches still shared

    def test_context_pickles_without_store_and_lock_state(self):
        ctx = RuntimeContext(RuntimeConfig(smoke=True))
        ctx.caches.reward.put("k", 0.5)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.config == ctx.config
        assert clone.caches.reward.lookup("k") == (True, 0.5)


# ---------------------------------------------------------------------------
# Concurrent contexts: isolation and parity (the acceptance scenario)
# ---------------------------------------------------------------------------


_SLOTS = (ConvSlot("c1", 16, 16, 8, 3, 1), ConvSlot("c2", 16, 32, 8, 3, 1))


def _latency_eval(runtime=None):
    return evaluate_model(
        "unit", list(_SLOTS), TVMBackend(trials=8), MOBILE_CPU,
        syno_candidates()[:2], runtime=runtime,
    )


class TestConcurrentContexts:
    def test_evaluate_model_in_two_contexts_same_process(self):
        """Explicitly threaded contexts: same results, fully isolated caches."""
        reference = _latency_eval()  # ambient default context
        ctx_a = RuntimeContext(RuntimeConfig(smoke=True))
        ctx_b = RuntimeContext(RuntimeConfig(smoke=False))
        result_a = _latency_eval(runtime=ctx_a)
        result_b = _latency_eval(runtime=ctx_b)
        assert result_a == reference and result_b == reference
        # Zero cross-talk: each context tuned in its own compile cache.
        assert len(ctx_a.caches.compile_) > 0
        assert len(ctx_b.caches.compile_) > 0
        assert ctx_a.caches.compile_.key_snapshot() == ctx_b.caches.compile_.key_snapshot()
        assert ctx_a.caches.compile_ is not ctx_b.caches.compile_
        # The other context saw no hits from this one's work.
        assert ctx_a.caches.compile_.stats.hits == ctx_b.caches.compile_.stats.hits

    def test_evaluate_model_in_two_threads(self):
        """Two activated contexts running concurrently in threads."""
        reference = _latency_eval()
        contexts = [
            RuntimeContext(RuntimeConfig(smoke=True)),
            RuntimeContext(RuntimeConfig(smoke=False)),
        ]
        results: dict[int, object] = {}
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                with contexts[index].activate():
                    results[index] = _latency_eval()
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results[0] == reference and results[1] == reference
        for ctx in contexts:
            assert len(ctx.caches.compile_) > 0

    def test_threads_resolve_their_own_dtype(self):
        """Per-thread activation isolates even the tensor allocation dtype."""
        seen: dict[str, str] = {}
        barrier = threading.Barrier(2)

        def worker(name: str, dtype: str) -> None:
            ctx = RuntimeContext(RuntimeConfig(dtype=dtype))
            with ctx.activate():
                barrier.wait(timeout=10)  # both contexts active at once
                seen[name] = compute_dtype().name

        threads = [
            threading.Thread(target=worker, args=("a", "float32")),
            threading.Thread(target=worker, args=("b", "float64")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": "float32", "b": "float64"}

    def test_concurrent_contexts_match_env_var_records(self):
        """Two coexisting contexts with different dtype/train_steps produce
        the same records as isolated env-var runs (acceptance criterion).

        An env-var run is what a CLI process does at its edge: parse
        ``REPRO_*`` into a context over the process-default caches."""
        config_fast = ExperimentConfig(smoke=True, train_steps=2, seed=0)
        config_slow = ExperimentConfig(smoke=True, train_steps=3, seed=0)
        base = RuntimeConfig.from_env()
        ctx_fast = RuntimeContext(base.with_overrides(smoke=True, dtype="float32"))
        ctx_slow = RuntimeContext(base.with_overrides(smoke=True, dtype="float64"))

        with ctx_fast.activate():
            fast = run_experiment("figure8", config_fast).record
        with ctx_slow.activate():
            slow = run_experiment("figure8", config_slow).record
        # Re-running under the first context again is all cache hits.
        with ctx_fast.activate():
            fast_again = run_experiment("figure8", config_fast).record
        assert fast_again.fingerprint() == fast.fingerprint()
        assert fast_again.cache_stats["reward"]["misses"] == 0

        # Zero cross-talk: the default caches saw none of this work, and the
        # two contexts' reward keys never alias (dtype is part of the key).
        assert len(current().caches.reward) == 0
        assert len(ctx_fast.caches.reward) > 0 and len(ctx_slow.caches.reward) > 0
        assert not (
            ctx_fast.caches.reward.key_snapshot()
            & ctx_slow.caches.reward.key_snapshot()
        )

        # The env-var path (isolated, sequential) agrees record for record.
        def edge(dtype: str) -> RuntimeContext:
            environ = {**os.environ, "REPRO_DTYPE": dtype}
            return RuntimeContext(
                RuntimeConfig.from_env(environ), caches=default_context().caches
            )

        current().caches.clear()
        with edge("float32").activate():
            env_fast = run_experiment("figure8", config_fast).record
        current().caches.clear()
        with edge("float64").activate():
            env_slow = run_experiment("figure8", config_slow).record
        assert fast.fingerprint() == env_fast.fingerprint()
        assert slow.fingerprint() == env_slow.fingerprint()
        assert fast.fingerprint() != slow.fingerprint()  # budgets genuinely differ
        # The records document their runtime config and provenance.
        assert fast.environment["runtime"]["dtype"] == "float32"
        assert fast.environment["provenance"]["dtype"] == "explicit"
        assert env_fast.environment["provenance"]["dtype"] == "env"


class TestThreadedRuntimeMatchesActivation:
    """`runtime=ctx` must behave exactly like `with ctx.activate():`."""

    def _settings(self):
        from repro.search.evaluator import EvaluationSettings

        return EvaluationSettings(train_steps=2, dataset_size=32, batch_size=8)

    def test_threaded_evaluator_trains_under_its_own_dtype(self):
        """The reward key bakes ctx's dtype, so training must run under ctx
        even when the caller never activates it (else serial evaluation would
        diverge from sharded workers, which do activate)."""
        from repro.nn.models.resnet import resnet18
        from repro.search.evaluator import AccuracyEvaluator

        # Ambient default is float64 (pinned by tests/conftest.py).
        f32 = RuntimeConfig(dtype="float32")
        threaded = AccuracyEvaluator(resnet18, self._settings(), runtime=RuntimeContext(f32))
        threaded_baseline = threaded.baseline_accuracy()

        activation_ctx = RuntimeContext(f32)
        with activation_ctx.activate():
            activated = AccuracyEvaluator(resnet18, self._settings())
            activated_baseline = activated.baseline_accuracy()

        ambient = AccuracyEvaluator(resnet18, self._settings())  # float64
        assert threaded.runtime is not None
        assert threaded._context == activated._context  # same float32 key
        assert threaded_baseline == activated_baseline  # same float32 numbers
        assert threaded._context != ambient._context  # never aliases float64


def _context_cached_value(context_tag: str, value: int) -> float:
    """Picklable shard worker that caches through the ambient context."""
    return current().cached_reward(context_tag, str(value), lambda: float(value * value))


class TestShardedContextBootstrap:
    def test_explicit_context_ships_to_workers_and_merges_back(self):
        ctx = RuntimeContext(RuntimeConfig(shards=2))
        worker = functools.partial(_context_cached_value, "ship-test")
        results = sharded_map(worker, [1, 2, 3, 4], max_workers=2, runtime=ctx)
        assert results == [1.0, 4.0, 9.0, 16.0]
        # The workers' rewards merged into the explicit context's caches —
        # not into the process-default ones.
        assert len(ctx.caches.reward) == 4
        assert len(current().caches.reward) == 0

    def test_derived_context_workers_inherit_default_caches(self):
        current().caches.reward.put(("pre",), 0.0)  # pre-existing warmth to inherit
        ctx = default_context().derive(shards=2)
        worker = functools.partial(_context_cached_value, "derive-test")
        results = sharded_map(worker, [1, 2, 3, 4], max_workers=2, runtime=ctx)
        assert results == [1.0, 4.0, 9.0, 16.0]
        # Derived contexts share the default cache set, so the merge lands there.
        assert len(current().caches.reward) == 5

    def test_contexts_sharing_default_caches_ship_config_only(self):
        """Payloads for CLI-style contexts must not pickle the warm cache set."""
        from repro.search.parallel import _InheritDefaultCaches, _ship_context

        assert _ship_context(default_context()) is None
        edge = RuntimeContext(RuntimeConfig(shards=2), caches=default_context().caches)
        shipped = _ship_context(edge)
        assert shipped is not None and shipped.caches is _InheritDefaultCaches
        isolated = RuntimeContext(RuntimeConfig(shards=2))
        assert _ship_context(isolated) is isolated


# ---------------------------------------------------------------------------
# Snapshot status (satellite: no more silent snapshot failures)
# ---------------------------------------------------------------------------


class TestSnapshotStatus:
    def test_save_and_load_round_trip(self, tmp_path):
        caches = CacheSet()
        caches.reward.put(("ctx", "sig"), 0.5)
        path = tmp_path / "snap.pkl"
        saved = caches.save_snapshot(str(path))
        assert saved.status == "saved" and saved.entries["reward"] == 1
        assert caches.last_save is saved

        fresh = CacheSet()
        loaded = fresh.load_snapshot(str(path))
        assert loaded.status == "loaded" and loaded.entries["reward"] == 1
        assert fresh.last_load is loaded
        assert ("ctx", "sig") in fresh.reward

    def test_missing_and_disabled_are_distinct_statuses(self, tmp_path):
        caches = CacheSet()
        assert caches.load_snapshot(str(tmp_path / "absent.pkl")).status == "missing"
        assert caches.save_snapshot(str(tmp_path / "s.pkl"), enabled=False).status == "disabled"

    def test_version_mismatch_logs_path_and_both_versions(self, tmp_path, caplog):
        path = tmp_path / "snap.pkl"
        payload = pickle.dumps({"version": 999, "caches": {}})
        path.write_bytes(
            FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload
        )
        caches = CacheSet()
        with caplog.at_level("WARNING"):
            status = caches.load_snapshot(str(path))
        assert status.status == "version-mismatch"
        assert status.snapshot_version == 999
        assert status.expected_version == CACHE_FORMAT_VERSION
        assert str(path) in caplog.text
        assert "999" in caplog.text and str(CACHE_FORMAT_VERSION) in caplog.text
        assert "version" in status.summary()

    def test_unpickling_error_logs_path(self, tmp_path, caplog):
        path = tmp_path / "snap.pkl"
        path.write_bytes(b"definitely not a pickle")
        caches = CacheSet()
        with caplog.at_level("WARNING"):
            status = caches.load_snapshot(str(path))
        assert status.status == "unreadable" and status.error
        assert str(path) in caplog.text
