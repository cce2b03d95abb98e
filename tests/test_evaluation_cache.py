"""Tests for the evaluation-reuse subsystem (reward/compile/baseline caches).

Covers the runtime context's caches (:class:`repro.runtime.CacheSet`), their
wiring into MCTS, the compiler backends and the search session, and the
budget plumbing bugfixes (``REPRO_TRAIN_STEPS``, ``rollout_depth=0``,
narrowed reward-suppression and lowering-skip handlers), the loop-nest
lowering memo with the cached ``PGraph.signature()`` it keys on, the slots'
standard-conv programs it also holds, and the cached
``LoopNestProgram.structural_key()`` the compile cache keys on.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.codegen.eager import LoweringError
from repro.codegen.loopnest import cached_loopnest, lower_to_loopnest
from repro.compiler.backends import CompilerBackend, TuneResult, TVMBackend, loopnest_for_slot
from repro.compiler.schedule import default_schedule
from repro.compiler.targets import MOBILE_CPU
from repro.core.enumeration import default_options_for
from repro.core.library import (
    C_IN,
    C_OUT,
    GROUPS,
    H,
    K,
    K1,
    M,
    N,
    OUT_FEATURES,
    SHRINK,
    W,
    build_operator1,
    matmul_spec,
)
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.operator import OperatorSpec, SynthesizedOperator
from repro.core.pgraph import PGraph
from repro.core.primitives import Share
from repro.experiments.common import evaluate_model, syno_candidates
from repro.nn.models.common import ConvSlot
from repro.nn.models.profiles import MODEL_PROFILES
from repro.nn.models.resnet import resnet18
from repro.ir.shape import ShapeSpec
from repro.ir.size import SizeError
from repro.runtime import KeyedCache, RuntimeConfig, RuntimeContext, current
from repro.search.session import SearchConfig, SearchSession
from repro.search.evaluator import AccuracyEvaluator, EvaluationSettings, LatencyEvaluator
from repro.search.parallel import fan_out


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts and ends with empty process-default caches."""
    current().caches.clear()
    yield
    current().caches.clear()


def _matmul_search(reward_fn, *, seed=1, iterations=40, cache_context=None, rollout_depth=None):
    spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
    options = default_options_for(spec, coefficients=[], max_depth=3)
    return MCTS(
        spec=spec,
        options=options,
        reward_fn=reward_fn,
        config=MCTSConfig(
            iterations=iterations,
            seed=seed,
            cache_context=cache_context,
            rollout_depth=rollout_depth,
        ),
    )


class TestKeyedCache:
    def test_get_or_compute_counts_hits_and_misses(self):
        cache = KeyedCache("t")
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute("k", lambda: calls.append(1) or 8) == 7
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_disable_knob_bypasses_the_cache(self):
        cache = KeyedCache("t")
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or 1, enabled=False)
        cache.get_or_compute("k", lambda: calls.append(1) or 1, enabled=False)
        assert len(calls) == 2
        with current().derive(eval_cache=False).activate():
            assert not current().config.eval_cache
            current().cached_reward("ctx", "k", lambda: calls.append(1) or 1)
            current().cached_reward("ctx", "k", lambda: calls.append(1) or 1)
        assert len(calls) == 4
        assert current().config.eval_cache

    def test_clear_resets_contents_and_stats(self):
        cache = KeyedCache("t")
        cache.put("k", 1)
        cache.lookup("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_a_hit_moves_its_key_to_the_most_recent_end(self):
        cache = KeyedCache("t")
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.lookup("a") == (True, "A")
        assert cache.export_entries(max_entries=1) == {"a": "A"}
        assert list(cache.export_entries()) == ["b", "c", "a"]
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_a_miss_does_not_reorder(self):
        cache = KeyedCache("t")
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.lookup("z") == (False, None)
        assert "z" not in cache
        assert cache.export_entries(max_entries=1) == {"c": "C"}
        assert list(cache.export_entries()) == ["a", "b", "c"]
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)


class TestSnapshotEviction:
    """The persisted snapshot is size-capped with LRU-style eviction."""

    def test_export_keeps_the_most_recently_used_entries(self):
        cache = KeyedCache("t")
        for index in range(5):
            cache.put(index, index)
        cache.lookup(0)  # refresh: 0 is now the most recently used
        exported = cache.export_entries(max_entries=3)
        assert set(exported) == {3, 4, 0}
        # The in-memory cache itself is never evicted.
        assert len(cache) == 5

    def test_export_without_cap_returns_everything(self):
        cache = KeyedCache("t")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.export_entries() == {"a": 1, "b": 2}
        assert cache.export_entries(max_entries=0) == {"a": 1, "b": 2}

    def test_save_caches_applies_the_cap_and_load_restores_survivors(self, tmp_path):
        runtime = current().derive(cache_max_entries=3)
        for index in range(6):
            runtime.cached_reward("evict-ctx", f"sig{index}", lambda index=index: float(index))
        runtime.cached_reward("evict-ctx", "sig1", lambda: -1.0)  # hit: refreshes sig1
        path = tmp_path / "snapshot.pkl"
        saved = runtime.save_caches(str(path))
        assert saved.entries["reward"] == 3

        runtime.caches.clear()
        loaded = runtime.load_caches(str(path))
        assert loaded.entries["reward"] == 3
        survivors = {
            signature
            for signature in (f"sig{index}" for index in range(6))
            if ("evict-ctx", signature) in runtime.caches.reward
        }
        assert survivors == {"sig1", "sig4", "sig5"}

    def test_cap_knob_reads_environment(self):
        assert current().config.cache_max_entries == 4096
        edge = RuntimeConfig.from_env({"REPRO_CACHE_MAX_ENTRIES": "7"})
        assert edge.cache_max_entries == 7
        edge = RuntimeConfig.from_env({"REPRO_CACHE_MAX_ENTRIES": "0"})
        assert edge.cache_max_entries == 0  # <= 0 disables the cap


class TestRewardCacheAcrossRuns:
    def test_second_mcts_run_reuses_rewards(self):
        calls = []

        def reward(operator):
            calls.append(operator.graph.signature())
            return 0.5

        first = _matmul_search(reward, cache_context="shared-spec")
        first_samples = first.run()
        first_calls = len(calls)
        assert first_samples and first_calls > 0

        second = _matmul_search(reward, cache_context="shared-spec")
        second_samples = second.run()
        # Identical seed and spec: every rollout's reward is already cached,
        # so the reward function is never invoked again...
        assert len(calls) == first_calls
        assert current().caches.reward.stats.hits > 0
        # ...but the second run still records its own samples.
        assert [s.operator.graph.signature() for s in second_samples] == [
            s.operator.graph.signature() for s in first_samples
        ]

    def test_within_run_memoization_survives_cache_disable(self):
        """MCTS never re-evaluates a signature in one run, even with caches off."""
        calls = []

        def reward(operator):
            calls.append(operator.graph.signature())
            return 0.5

        with current().derive(eval_cache=False).activate():
            _matmul_search(reward, iterations=50).run()
        assert len(calls) == len(set(calls))

    def test_private_contexts_do_not_share_rewards(self):
        calls = []

        def reward(operator):
            calls.append(operator.graph.signature())
            return 0.5

        _matmul_search(reward).run()  # cache_context=None: instance-private
        first_calls = len(calls)
        _matmul_search(reward).run()
        assert len(calls) == 2 * first_calls


class TestRolloutDepthZero:
    def test_rollout_depth_zero_is_respected(self):
        """``rollout_depth=0`` must not silently fall back to max_depth."""

        def reward(operator):  # pragma: no cover - must never run
            raise AssertionError("rollout_depth=0 should prevent any completion")

        search = _matmul_search(reward, iterations=10, rollout_depth=0)
        samples = search.run()
        assert samples == []

    def test_rollout_depth_none_still_defaults_to_max_depth(self):
        search = _matmul_search(lambda operator: 0.5, iterations=40, rollout_depth=None)
        assert search.run(), "default rollout depth should still find operators"


class TestCompileCache:
    def test_compile_cache_hit_counts(self):
        backend = TVMBackend(trials=8)
        program = loopnest_for_slot(ConvSlot("c", 16, 16, 8, 3, 1))
        first = backend.compile(program, MOBILE_CPU)
        second = backend.compile(program, MOBILE_CPU)
        assert second is first
        stats = current().caches.stats()["compile"]
        assert stats.hits == 1 and stats.misses == 1

    def test_different_backend_config_is_a_different_key(self):
        program = loopnest_for_slot(ConvSlot("c", 16, 16, 8, 3, 1))
        TVMBackend(trials=8).compile(program, MOBILE_CPU)
        TVMBackend(trials=16).compile(program, MOBILE_CPU)
        assert current().caches.stats()["compile"].misses == 2

    def test_second_suite_run_has_positive_hit_rate(self):
        """Re-running an evaluation hits the caches instead of re-tuning."""
        backend = TVMBackend(trials=8)
        slots = [ConvSlot(f"c{i}", 16, 16, 8, 3, 1) for i in range(3)]
        for _ in range(2):
            for slot in slots:
                backend.compile(loopnest_for_slot(slot), MOBILE_CPU)
        stats = current().caches.stats()["compile"]
        assert stats.hit_rate > 0.0
        # The three slots share one shape, so even the first sweep reuses it.
        assert stats.misses == 1


class _CountingBackend(CompilerBackend):
    """A backend that counts how many programs it actually tunes."""

    name = "counting"

    def __init__(self):
        self.compiled = 0

    def config_key(self):
        return (self.name, id(self))  # never shares cache entries across tests

    def _compile_uncached(self, program, target):
        self.compiled += 1
        return TuneResult(
            latency_seconds=1e-3, schedule=default_schedule(), backend=self.name, trials=1
        )


class TestSessionBaselineHoisting:
    def test_baseline_compiled_exactly_once_per_session(self):
        backend = _CountingBackend()
        session = SearchSession(
            resnet18,
            config=SearchConfig(evaluation=EvaluationSettings(train_steps=1)),
            backends=[backend],
            targets=[MOBILE_CPU],
        )
        from repro.core.library import build_operator2

        operator = build_operator2()
        session.evaluate_operator(operator, accuracy=1.0)
        after_first = backend.compiled
        session.evaluate_operator(operator, accuracy=1.0)
        # The second candidate triggers no further baseline compilation: every
        # unique program was compiled during the first evaluation (identical
        # slot programs also dedupe through the compile cache).
        assert backend.compiled == after_first

    def test_accuracy_baseline_trained_once_per_session(self):
        settings = EvaluationSettings(train_steps=1, dataset_size=32, batch_size=8)
        evaluator = AccuracyEvaluator(resnet18, settings)
        calls = []
        original = evaluator._train

        def counting_train(factory):
            calls.append(factory)
            return original(factory)

        evaluator._train = counting_train
        first = evaluator.baseline_accuracy()
        second = evaluator.baseline_accuracy()
        assert first == second
        assert len(calls) == 1


def _edge(**environ) -> RuntimeContext:
    """A context parsed from ``environ`` the way a process edge parses REPRO_*."""
    return RuntimeContext(RuntimeConfig.from_env(environ))


class TestBudgetPlumbing:
    def test_train_steps_reads_environment(self):
        with _edge(REPRO_TRAIN_STEPS="7").activate():
            assert EvaluationSettings().train_steps == 7

    def test_explicit_train_steps_beats_environment(self):
        with _edge(REPRO_TRAIN_STEPS="7").activate():
            assert EvaluationSettings(train_steps=3).train_steps == 3

    def test_malformed_env_falls_back_to_default(self):
        with _edge(REPRO_TRAIN_STEPS="not-a-number").activate():
            assert EvaluationSettings().train_steps == 40

    def test_smoke_mode_shrinks_default(self):
        with current().derive(smoke=True, train_steps=None).activate():
            assert current().config.smoke
            assert current().config.resolve_train_steps(full=40, smoke=8) == 8
        with current().derive(smoke=False, train_steps=None).activate():
            assert not current().config.smoke
            assert current().config.resolve_train_steps(full=40, smoke=8) == 40


class TestRewardSuppressionNarrowing:
    def _evaluator(self):
        return AccuracyEvaluator(
            resnet18, EvaluationSettings(train_steps=1, dataset_size=32, batch_size=8)
        )

    def test_expected_instantiation_failures_get_zero_reward(self):
        from repro.core.library import build_operator2

        evaluator = self._evaluator()
        evaluator._train = lambda factory: (_ for _ in ()).throw(LoweringError("bad binding"))
        assert evaluator.evaluate(build_operator2()) == 0.0

    def test_unexpected_exceptions_propagate(self):
        from repro.core.library import build_operator2

        evaluator = self._evaluator()
        evaluator._train = lambda factory: (_ for _ in ()).throw(RuntimeError("genuine bug"))
        with pytest.raises(RuntimeError, match="genuine bug"):
            evaluator.evaluate(build_operator2())


class TestLatencyLoweringNarrowing:
    """Only SizeError keeps a slot's standard conv; other lowering errors surface."""

    SLOTS = (ConvSlot("c1", 16, 16, 8, 3, 1), ConvSlot("c2", 16, 32, 8, 3, 1))

    @pytest.fixture
    def isolated(self):
        # An isolated context: a lowering memoized earlier would be served
        # without ever reaching the patched function.
        context = current().isolated()
        with context.activate():
            yield context

    def _evaluator(self):
        return LatencyEvaluator(slots=self.SLOTS, backend=TVMBackend(trials=8), target=MOBILE_CPU)

    def _lowering_raises(self, monkeypatch, exc):
        def lower(operator, binding):
            raise exc

        # The lowering behind the evaluators' entry point, cached_loopnest.
        monkeypatch.setattr("repro.codegen.loopnest.lower_to_loopnest", lower)

    def test_size_error_keeps_the_standard_convolution(self, isolated, monkeypatch, caplog):
        from repro.core.library import build_operator1

        evaluator = self._evaluator()
        baseline = evaluator.baseline_latency()
        standard_macs = evaluator.macs()
        self._lowering_raises(monkeypatch, SizeError("size evaluates to non-integer 1/2"))
        with caplog.at_level("DEBUG", logger="repro.search.evaluator"):
            assert evaluator.substituted_latency(build_operator1()) == baseline
        assert "operator not lowerable at slot" in caplog.text
        assert evaluator.macs(build_operator1()) == standard_macs
        # Failures are not memoized: the cache holds only the slots' standard
        # programs, and no entry is keyed by the operator's signature.
        signature = build_operator1().graph.signature()
        entries = isolated.caches.lowering.export_entries()
        assert not any(signature in key for key in entries)
        assert sorted(entries.values(), key=lambda program: program.operator_name) == [
            loopnest_for_slot(slot) for slot in self.SLOTS
        ]

    def test_other_lowering_errors_propagate(self, isolated, monkeypatch):
        from repro.core.library import build_operator1

        evaluator = self._evaluator()
        self._lowering_raises(monkeypatch, RuntimeError("lowering bug"))
        with pytest.raises(RuntimeError, match="lowering bug"):
            evaluator.substituted_latency(build_operator1())
        with pytest.raises(RuntimeError, match="lowering bug"):
            evaluator.macs(build_operator1())


class TestFigure9LoweringNarrowing:
    """figure9 drops a candidate from a layer only on SizeError."""

    def _run(self, monkeypatch, exc):
        from repro.experiments import figure9

        victim, *others = syno_candidates()[:3]

        def lower(operator, binding):
            if operator is victim.operator:
                raise exc
            return cached_loopnest(operator, binding)

        monkeypatch.setattr(figure9, "cached_loopnest", lower)
        result = figure9.run(
            layers=["L7"],
            targets=[MOBILE_CPU],
            backends=[TVMBackend(trials=8)],
            syno=[victim, *others],
            nas_pte=[],
        )
        return victim, others, result

    def test_size_error_skips_the_candidate_at_that_layer(self, monkeypatch, caplog):
        with caplog.at_level("DEBUG", logger="repro.experiments.figure9"):
            victim, others, result = self._run(
                monkeypatch, SizeError("size evaluates to non-integer 1/2")
            )
        (comparison,) = result.comparisons
        assert set(comparison.candidate_ms) == {candidate.name for candidate in others}
        assert f"{victim.name} not lowerable at layer L7" in caplog.text

    def test_other_lowering_errors_propagate(self, monkeypatch):
        with pytest.raises(RuntimeError, match="lowering bug"):
            self._run(monkeypatch, RuntimeError("lowering bug"))


class TestSearchLoweringNarrowing:
    """The search experiment drops a qualified candidate only on SizeError."""

    def _run(self, monkeypatch, victim=None, exc=None):
        from repro.experiments import search

        def lower(operator, binding):
            if operator.graph.signature() == victim:
                raise exc
            return cached_loopnest(operator, binding)

        monkeypatch.setattr(search, "cached_loopnest", lower)
        with current().isolated().activate():
            return search.run(iterations=16, max_depth=3, seed=0)

    def test_size_error_drops_that_candidate_and_logs_it(self, monkeypatch, caplog):
        clean = self._run(monkeypatch)
        victim, *others = clean.candidates
        with caplog.at_level("WARNING", logger="repro.experiments.search"):
            result = self._run(
                monkeypatch, victim.signature, SizeError("size evaluates to non-integer 1/2")
            )
        assert result.candidates == others
        assert result.evaluations == clean.evaluations
        assert f"qualified candidate {victim.signature} does not lower" in caplog.text

    def test_other_lowering_errors_propagate(self, monkeypatch):
        victim = self._run(monkeypatch).candidates[0]
        with pytest.raises(RuntimeError, match="lowering bug"):
            self._run(monkeypatch, victim.signature, RuntimeError("lowering bug"))


class TestFanOut:
    def test_sharding_wins_over_processes_and_says_so(self, caplog):
        ctx = RuntimeContext(RuntimeConfig(shards=2, eval_processes=3))
        with ctx.activate(), caplog.at_level("WARNING", logger="repro.search.parallel"):
            assert fan_out(_square, [1, 2, 3]) == [1, 4, 9]
        assert "shards=2" in caplog.text and "ignoring processes=3" in caplog.text

    def test_unsharded_uses_the_process_fan_out_quietly(self, caplog):
        ctx = RuntimeContext(RuntimeConfig(eval_processes=2))
        with ctx.activate(), caplog.at_level("WARNING", logger="repro.search.parallel"):
            assert fan_out(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert caplog.text == ""

    def test_closures_run_in_the_process_workers(self):
        """Unpicklable work still forks: workers inherit it instead of unpickling it."""
        offset = 10
        ctx = RuntimeContext(RuntimeConfig(eval_processes=2))
        with ctx.activate():
            results = fan_out(lambda x: (os.getpid(), x + offset), [1, 2, 3, 4])
        assert [value for _, value in results] == [11, 12, 13, 14]
        assert all(pid != os.getpid() for pid, _ in results)
        assert ctx.shard_failures == []

    def test_process_fan_out_of_evaluate_model_leaves_the_serial_warmth(self):
        """``eval_processes`` maps through the sharded executor: workers' caches merge back."""
        slots = MODEL_PROFILES["resnet18"][:4]
        results, contexts = {}, {}
        for processes in (1, 2):
            contexts[processes] = RuntimeContext(RuntimeConfig(eval_processes=processes))
            results[processes] = evaluate_model(
                "resnet18", slots, TVMBackend(trials=8), MOBILE_CPU,
                syno_candidates(), runtime=contexts[processes],
            )
        assert results[2] == results[1]
        assert contexts[2].shard_failures == []
        for name in ("compile", "lowering"):
            serial = contexts[1].caches.mergeable()[name]
            forked = contexts[2].caches.mergeable()[name]
            assert len(serial) > 1
            assert forked.key_snapshot() == serial.key_snapshot()


def _square(x):
    return x * x


class TestCachedRewardHelper:
    def test_same_signature_same_context_computed_once(self):
        calls = []

        def compute():
            calls.append(1)
            return 0.25

        assert current().cached_reward("ctx", "sig", compute) == 0.25
        assert current().cached_reward("ctx", "sig", compute) == 0.25
        assert len(calls) == 1

    def test_contexts_are_isolated(self):
        current().cached_reward("ctx-a", "sig", lambda: 0.1)
        assert current().cached_reward("ctx-b", "sig", lambda: 0.9) == 0.9


LOWERING_BINDING = {N: 1, C_IN: 64, C_OUT: 64, H: 14, W: 14, K1: 3, GROUPS: 4, SHRINK: 2}


class TestLoweringMemo:
    def test_repeated_lowering_is_a_hit_returning_the_same_object(self):
        ctx = RuntimeContext(RuntimeConfig())
        operator = build_operator1()
        with ctx.activate():
            first = cached_loopnest(operator, LOWERING_BINDING)
            # A rebuilt operator (fresh dim uids, same structure) hits too.
            assert cached_loopnest(build_operator1(), dict(LOWERING_BINDING)) is first
        assert first == lower_to_loopnest(operator, LOWERING_BINDING)
        stats = ctx.caches.stats()["lowering"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_nothing_aliases(self):
        ctx = RuntimeContext(RuntimeConfig())
        operator = build_operator1()
        renamed = dataclasses.replace(
            operator, spec=dataclasses.replace(operator.spec, name="renamed")
        )
        reshaped = dataclasses.replace(
            operator,
            spec=dataclasses.replace(operator.spec, input_shape=ShapeSpec.of([N, C_IN, W, H])),
        )
        variants = [
            (operator, LOWERING_BINDING),
            (renamed, LOWERING_BINDING),
            (reshaped, LOWERING_BINDING),
            (operator, {**LOWERING_BINDING, H: 7, W: 7}),
        ]
        with ctx.activate():
            programs = [cached_loopnest(op, binding) for op, binding in variants]
        assert len(ctx.caches.lowering) == len(variants)
        assert ctx.caches.stats()["lowering"].hits == 0
        for program, (op, binding) in zip(programs, variants):
            assert program == lower_to_loopnest(op, binding)
        assert programs[1].operator_name == "renamed"
        assert programs[1].structural_key() == programs[0].structural_key()

    def test_weights_indexed_by_different_dims_do_not_alias(self):
        # Share's shared dim is not in the signature: a weight over C and one
        # over H leave the same signature behind.
        spec = OperatorSpec("scale", ShapeSpec.of([C_IN, H]), ShapeSpec.of([C_IN, H]))
        operators = []
        for shared in range(2):
            root = PGraph.root(spec.output_shape, spec.input_shape)
            graph = Share(new_weight=True).apply(root, (root.frontier[shared],))
            operators.append(SynthesizedOperator.from_graph(graph, spec))
        assert operators[0].graph.signature() == operators[1].graph.signature()
        ctx = RuntimeContext(RuntimeConfig())
        binding = {C_IN: 8, H: 5}
        with ctx.activate():
            programs = [cached_loopnest(op, binding) for op in operators]
        assert [program.parameter_count for program in programs] == [8, 5]
        for program, op in zip(programs, operators):
            assert program == lower_to_loopnest(op, binding)
        assert ctx.caches.stats()["lowering"].hits == 0

    def test_eval_cache_off_bypasses_the_memo(self):
        ctx = RuntimeContext(RuntimeConfig(eval_cache=False))
        operator = build_operator1()
        with ctx.activate():
            first = cached_loopnest(operator, LOWERING_BINDING)
            second = cached_loopnest(operator, LOWERING_BINDING)
        assert first == second and first is not second
        assert len(ctx.caches.lowering) == 0
        assert ctx.caches.stats()["lowering"].lookups == 0

    def test_isolated_contexts_share_nothing(self):
        ctx = RuntimeContext(RuntimeConfig())
        operator = build_operator1()
        with ctx.activate():
            warm = cached_loopnest(operator, LOWERING_BINDING)
        isolated = ctx.isolated()
        with isolated.activate():
            assert cached_loopnest(operator, LOWERING_BINDING) is not warm
        assert isolated.caches.stats()["lowering"].misses == 1
        # A derived context shares the caches, so it hits.
        with ctx.derive().activate():
            assert cached_loopnest(operator, LOWERING_BINDING) is warm

    def test_size_errors_propagate_uncached(self):
        ctx = RuntimeContext(RuntimeConfig())
        indivisible = {**LOWERING_BINDING, C_IN: 6}
        for _ in range(2):
            with ctx.activate(), pytest.raises(SizeError):
                cached_loopnest(build_operator1(), indivisible)
        assert len(ctx.caches.lowering) == 0
        assert ctx.caches.stats()["lowering"].misses == 2

    def test_two_shard_evaluate_model_merges_lowerings_into_the_parent(self):
        slots = [ConvSlot("c1", 16, 16, 8, 3, 1), ConvSlot("c2", 16, 32, 8, 3, 1)]
        results = {}
        contexts = {}
        for shards in (1, 2):
            contexts[shards] = RuntimeContext(RuntimeConfig(shards=shards))
            results[shards] = evaluate_model(
                "unit", slots, TVMBackend(trials=8), MOBILE_CPU,
                syno_candidates()[:2], runtime=contexts[shards],
            )
        assert results[2] == results[1]
        serial, sharded = contexts[1].caches.lowering, contexts[2].caches.lowering
        assert len(serial) > 0
        assert sharded.key_snapshot() == serial.key_snapshot()
        for key in serial.key_snapshot():
            assert sharded.lookup(key) == serial.lookup(key)


RESNET18 = MODEL_PROFILES["resnet18"]


class TestStandardProgramMemo:
    """Each slot's standard-conv program is built once per context and batch."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every (slot, batch) for which a standard program gets built."""
        calls = []

        def spy(slot, batch=1):
            calls.append((slot, batch))
            return loopnest_for_slot(slot, batch)

        monkeypatch.setattr("repro.compiler.backends.loopnest_for_slot", spy)
        return calls

    @staticmethod
    def _evaluate(context, batch=1):
        return evaluate_model(
            "resnet18", RESNET18, TVMBackend(trials=8), MOBILE_CPU, syno_candidates(),
            batch=batch, runtime=context,
        )

    def test_a_second_evaluation_builds_no_standard_program(self, built):
        context = RuntimeContext(RuntimeConfig())
        first = self._evaluate(context)
        assert sorted(built, key=str) == sorted(((slot, 1) for slot in RESNET18), key=str)
        built.clear()
        second = self._evaluate(context)
        assert built == []
        assert second == first
        assert second == self._evaluate(RuntimeContext(RuntimeConfig(eval_cache=False)))

    def test_a_batch2_evaluation_does_not_reuse_the_batch1_programs(self, built):
        context = RuntimeContext(RuntimeConfig())
        self._evaluate(context)
        built.clear()
        batched = self._evaluate(context, batch=2)
        assert sorted(built, key=str) == sorted(((slot, 2) for slot in RESNET18), key=str)
        assert batched == self._evaluate(RuntimeContext(RuntimeConfig(eval_cache=False)), batch=2)


def _reference_structural_key(program) -> tuple:
    stages = tuple(
        (
            stage.extents,
            stage.macs,
            stage.input_elements,
            stage.weight_elements,
            stage.output_elements,
        )
        for stage in program.stages
    )
    return (
        stages,
        program.naive_macs,
        program.parameter_count,
        program.input_elements,
        program.output_elements,
    )


class TestCachedStructuralKey:
    @staticmethod
    def _program():
        return lower_to_loopnest(build_operator1(), LOWERING_BINDING)

    def test_cached_key_equals_a_fresh_computation(self):
        program = self._program()
        key = program.structural_key()
        assert program.structural_key() is key
        assert key == _reference_structural_key(program)
        assert len(program.stages) > 1  # so the key must hold more than one stage

    def test_key_survives_pickle(self):
        program = self._program()
        key = program.structural_key()
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.structural_key() == key == _reference_structural_key(clone)

    def test_replace_recomputes_the_key(self):
        program = self._program()
        key = program.structural_key()
        trimmed = dataclasses.replace(program, stages=program.stages[:-1])
        assert trimmed.structural_key() == _reference_structural_key(trimmed)
        assert trimmed.structural_key() != key
        assert dataclasses.replace(program).structural_key() == key


class TestCachedSignature:
    def test_cached_signature_equals_a_fresh_computation(self):
        graph = build_operator1().graph
        signature = graph.signature()
        assert graph.signature() is signature
        # A structurally identical graph (fresh uids) computes it from scratch.
        assert build_operator1().graph.signature() == signature
        assert build_operator1().graph.weight_signature() == graph.weight_signature()

    def test_signature_survives_pickle(self):
        graph = build_operator1().graph
        signature, weights = graph.signature(), graph.weight_signature()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert (clone.signature(), clone.weight_signature()) == (signature, weights)

    def test_replace_recomputes_the_signature(self):
        graph = build_operator1().graph
        signature = graph.signature()
        trimmed = dataclasses.replace(graph, applications=graph.applications[:-1])
        assert trimmed.signature() == ";".join(signature.split(";")[:-1])
        assert dataclasses.replace(graph).signature() == signature
