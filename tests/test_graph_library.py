"""Tests for the ahead-of-time graph library (:mod:`repro.library`).

Covers the determinism contract (serial == sharded == crash-resumed builds,
bit for bit), the on-disk artifact/sidecar format, the structural embeddings,
signature invariances the dedup relies on, warm-started search, the runtime
knobs, and the `repro library` / `repro list --json` CLI surface.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.cli.main import main
from repro.core.canonicalize import canonical_commuting_order
from repro.core.enumeration import SynthesisStats, enumerate_children
from repro.core.library import K, M, OUT_FEATURES, matmul_spec
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.pgraph import PGraph, reserve_dim_uids
from repro.core.primitives import Reduce, Shift
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.ir.variables import primary
from repro.library.builder import build_library
from repro.library.embeddings import (
    FEATURE_NAMES,
    distance,
    feature_vector,
    nearest_neighbours,
)
from repro.library.specs import design_spaces, space_for
from repro.library.store import (
    GraphLibrary,
    RewardSidecar,
    checkpoint_filename,
    context_digest,
    library_filename,
    options_fingerprint,
    spec_key,
)
from repro.library.warmstart import (
    export_rewards,
    find_library_name,
    plan_warm_start,
)
from repro.nn.models.resnet import resnet18
from repro.runtime import RuntimeConfig, RuntimeContext, current
from repro.search.evaluator import EvaluationSettings
from repro.search.session import SearchConfig, SearchSession

A = primary("A", default=8)
B = primary("B", default=12)


def _runtime(tmp_path, **overrides) -> RuntimeContext:
    """An isolated context (own caches) rooted inside the test's tmp dir."""
    config = RuntimeConfig(
        results_dir=str(tmp_path / "results"),
        library_dir=str(tmp_path / "library"),
        **overrides,
    )
    return RuntimeContext(config)


def _gpt2_space(max_depth: int = 3):
    return space_for("gpt2", max_depth=max_depth)


def _build_gpt2(runtime: RuntimeContext, **kwargs):
    space = _gpt2_space()
    return build_library(
        space.spec, space.options, name=space.name, runtime=runtime, **kwargs
    )


# ---------------------------------------------------------------------------
# Build determinism: serial == sharded == resumed
# ---------------------------------------------------------------------------


class TestBuildDeterminism:
    def test_serial_and_sharded_builds_are_bit_identical(self, tmp_path):
        serial_rt = _runtime(tmp_path / "serial")
        sharded_rt = _runtime(tmp_path / "sharded")
        serial = _build_gpt2(serial_rt, shards=1)
        sharded = _build_gpt2(sharded_rt, shards=3)
        assert serial.entries == sharded.entries > 0
        assert serial.content_hash == sharded.content_hash
        with open(serial.path, "rb") as handle:
            serial_bytes = handle.read()
        with open(sharded.path, "rb") as handle:
            sharded_bytes = handle.read()
        assert serial_bytes == sharded_bytes

    def test_matching_artifact_is_reused_and_force_rebuilds(self, tmp_path):
        runtime = _runtime(tmp_path)
        first = _build_gpt2(runtime)
        assert not first.reused
        second = _build_gpt2(runtime)
        assert second.reused
        assert second.content_hash == first.content_hash
        third = _build_gpt2(runtime, force=True)
        assert not third.reused
        assert third.content_hash == first.content_hash

    def test_sigkill_mid_build_resumes_to_the_same_hash(self, tmp_path):
        """A build SIGKILLed after its level-2 checkpoint converges on resume.

        The child builds serially and kills itself (hard, no cleanup) once
        the level-2 checkpoint is durable; the parent then resumes the build
        at a different shard count and must reproduce the uninterrupted
        artifact bit for bit.
        """
        fresh = _build_gpt2(_runtime(tmp_path / "fresh"))
        runtime = _runtime(tmp_path / "crashed")

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os.close(read_fd)

            def kill_at_level_two(level: int) -> None:
                if level == 2:
                    os.write(write_fd, b"k")
                    os.kill(os.getpid(), signal.SIGKILL)

            _build_gpt2(runtime, shards=1, on_level=kill_at_level_two)
            os._exit(1)  # unreachable when the kill fires

        os.close(write_fd)
        assert os.read(read_fd, 1) == b"k"
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

        checkpoint = os.path.join(runtime.library_path(), checkpoint_filename("gpt2"))
        assert os.path.exists(checkpoint)

        resumed = _build_gpt2(runtime, shards=2)
        assert resumed.resumed_from_level == 2
        assert resumed.content_hash == fresh.content_hash
        assert not os.path.exists(checkpoint), "a finished build removes its checkpoint"

    def test_torn_checkpoint_falls_back_to_a_fresh_build(self, tmp_path):
        fresh = _build_gpt2(_runtime(tmp_path / "fresh"))
        runtime = _runtime(tmp_path / "torn")

        class _Stop(Exception):
            pass

        def stop_at_level_one(level: int) -> None:
            if level == 1:
                raise _Stop()

        with pytest.raises(_Stop):
            _build_gpt2(runtime, on_level=stop_at_level_one)
        checkpoint = os.path.join(runtime.library_path(), checkpoint_filename("gpt2"))
        size = os.path.getsize(checkpoint)
        with open(checkpoint, "r+b") as handle:
            handle.truncate(size - 7)  # tear the pickle frame's tail

        resumed = _build_gpt2(runtime)
        assert resumed.resumed_from_level == 0
        assert resumed.content_hash == fresh.content_hash

    def test_garbage_checkpoint_is_ignored(self, tmp_path):
        runtime = _runtime(tmp_path)
        os.makedirs(runtime.library_path(), exist_ok=True)
        checkpoint = os.path.join(runtime.library_path(), checkpoint_filename("gpt2"))
        with open(checkpoint, "wb") as handle:
            handle.write(b"not a checkpoint at all")
        result = _build_gpt2(runtime)
        assert result.resumed_from_level == 0
        assert result.entries > 0


# ---------------------------------------------------------------------------
# Artifact and sidecar format
# ---------------------------------------------------------------------------


class TestStoreFormat:
    def test_artifact_round_trips_through_disk(self, tmp_path):
        runtime = _runtime(tmp_path)
        built = _build_gpt2(runtime)
        loaded = GraphLibrary.load(built.path)
        assert loaded is not None
        assert len(loaded) == built.entries
        assert loaded.content_hash() == built.content_hash
        assert loaded.meta["spec_key"] == spec_key(_gpt2_space().spec)
        by_signature = {entry.signature: entry for entry in loaded}
        for entry in built.library:
            twin = by_signature[entry.signature]
            assert twin.to_payload() == entry.to_payload()

    def test_prefix_signature_walks_to_a_depth_one_ancestor(self, tmp_path):
        runtime = _runtime(tmp_path)
        library = _build_gpt2(runtime).library
        depth_one = {e.signature for e in library if e.depth == 1}
        assert depth_one
        for entry in library.complete_entries():
            prefix = library.prefix_signature(entry, depth=1)
            assert prefix in depth_one
            assert entry.signature.startswith(prefix)

    def test_complete_entries_carry_neighbours(self, tmp_path):
        runtime = _runtime(tmp_path)
        library = _build_gpt2(runtime).library
        complete = library.complete_entries()
        assert complete
        signatures = {entry.signature for entry in complete}
        for entry in complete:
            assert entry.neighbours, "every complete entry gets a kNN list"
            assert entry.signature not in entry.neighbours
            assert set(entry.neighbours) <= signatures

    def test_spec_key_and_options_fingerprint_sensitivity(self):
        deep = _gpt2_space(max_depth=3)
        deeper = space_for("gpt2", max_depth=4)
        assert spec_key(deep.spec) == spec_key(deeper.spec)
        assert options_fingerprint(deep.options) != options_fingerprint(deeper.options)
        other = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        assert spec_key(other) != spec_key(deep.spec)

    def test_sidecar_round_trip_is_idempotent_and_context_scoped(self, tmp_path):
        sidecar = RewardSidecar(str(tmp_path / "rewards-test-v1.rplb"))
        digest = context_digest(("ctx", 1))
        assert sidecar.load(digest) == {}
        assert sidecar.publish(digest, {"sig-a": 0.25, "sig-b": 0.75}) == 2
        assert sidecar.publish(digest, {"sig-a": 0.25, "sig-b": 0.75}) == 0
        assert sidecar.publish(digest, {"sig-b": 0.75, "sig-c": 0.5}) == 1
        assert sidecar.load(digest) == {"sig-a": 0.25, "sig-b": 0.75, "sig-c": 0.5}
        assert sidecar.load(context_digest(("ctx", 2))) == {}


# ---------------------------------------------------------------------------
# Structural embeddings
# ---------------------------------------------------------------------------


class TestEmbeddings:
    def test_feature_vector_matches_the_declared_names(self):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        features = feature_vector(root, space.binding)
        assert len(features) == len(FEATURE_NAMES)
        assert all(isinstance(value, float) for value in features)

    def test_distance_is_a_metric_on_identical_vectors(self):
        assert distance((1.0, 2.0), (1.0, 2.0)) == 0.0
        assert distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_nearest_neighbours_excludes_self_and_sorts_by_distance(self):
        pool = [
            ("far", (10.0, 0.0)),
            ("near", (1.0, 0.0)),
            ("self", (0.0, 0.0)),
            ("mid", (5.0, 0.0)),
        ]
        ranked = nearest_neighbours("self", (0.0, 0.0), pool, k=3)
        assert list(ranked) == ["near", "mid", "far"]


# ---------------------------------------------------------------------------
# Signature invariances the dedup rests on
# ---------------------------------------------------------------------------


class TestSignatureInvariance:
    def test_relabeling_invariance_across_independent_roots(self):
        """The same action sequence on fresh roots (fresh uids) collapses."""

        def build_once() -> str:
            root = PGraph.root(ShapeSpec.of([A, B]), ShapeSpec.of([A, B]))
            graph = Reduce(size=Size.of(K)).apply(root, ())
            graph = Shift(1).apply(graph, (graph.frontier[0],))
            return graph.signature()

        assert build_once() == build_once()

    def test_uid_reservation_keeps_worker_minted_dims_fresh(self):
        root = PGraph.root(ShapeSpec.of([A, B]), ShapeSpec.of([A, B]))
        highest = max(dim.uid for dim in root.frontier)
        reserve_dim_uids(highest + 64)
        fresh = PGraph.root(ShapeSpec.of([A, B]), ShapeSpec.of([A, B]))
        assert min(dim.uid for dim in fresh.frontier) > highest + 64

    def test_commuting_orders_have_one_canonical_representative(self):
        """Independent applications survive canonicalization in one order only."""
        root = PGraph.root(ShapeSpec.of([A, B]), ShapeSpec.of([A, B]))
        first, second = root.frontier
        after_first = Shift(1).apply(root, (first,))
        after_second = Shift(1).apply(root, (second,))
        order_one = canonical_commuting_order(after_first, Shift(1), (second,))
        order_two = canonical_commuting_order(after_second, Shift(1), (first,))
        assert order_one != order_two, "exactly one commuting order is canonical"

    def test_distinct_root_children_do_not_collide(self):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        children = enumerate_children(root, space.options)
        signatures = [graph.signature() for _, graph in children]
        assert len(signatures) == len(set(signatures))
        assert len(signatures) > 1

    def test_library_signatures_are_globally_unique(self, tmp_path):
        library = _build_gpt2(_runtime(tmp_path)).library
        signatures = [entry.signature for entry in library]
        assert len(signatures) == len(set(signatures))


# ---------------------------------------------------------------------------
# Synthesis statistics (per-rule rejections, shape-distance dead ends)
# ---------------------------------------------------------------------------


class TestSynthesisStats:
    def test_enumerate_children_attributes_rejections_to_rules(self):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        stats = SynthesisStats()
        enumerate_children(root, space.options, stats=stats)
        assert sum(stats.canonicalization_rejections.values()) >= 0
        # Two levels in, the commuting-order rule must have fired.
        for _, child in enumerate_children(root, space.options):
            enumerate_children(child, space.options, stats=stats)
        assert "canonical_commuting_order" in stats.canonicalization_rejections

    def test_build_persists_stats_into_the_artifact(self, tmp_path):
        library = _build_gpt2(_runtime(tmp_path)).library
        stats = library.meta["stats"]
        assert stats["nodes_visited"] > 0
        assert stats["children_generated"] > 0
        assert stats["dead_ends_by_distance"] >= 0
        assert stats["canonicalization_rejections"], "gpt2 space rejects some orders"
        assert stats["feature_names"] == list(FEATURE_NAMES)

    #: ``SynthesisStats.to_dict()`` of the resnet space at depth 2, pinned
    #: from the build before the shape-distance memo and the cached size
    #: arithmetic: the entry hash alone would not notice a change in how
    #: candidates are generated or pruned.
    RESNET_DEPTH2_STATS = {
        "nodes_visited": 39,
        "children_generated": 915,
        "pruned_by_distance": 875,
        "completed": 2,
        "rejected_by_budget": 0,
        "canonicalization_rejections": {
            "canonical_commuting_order": 1022,
            "no_expand_of_reduction": 7,
            "no_merge_above_split": 18,
            "no_shift_chains": 4,
        },
        "dead_ends_by_distance": 35,
    }

    @pytest.mark.parametrize("shards", [1, 2])
    def test_build_pruning_statistics_are_pinned(self, tmp_path, shards):
        space = space_for("resnet", max_depth=2)
        result = build_library(
            space.spec, space.options, name=space.name,
            runtime=_runtime(tmp_path), shards=shards,
        )
        assert result.entries == 41
        assert result.stats.to_dict() == self.RESNET_DEPTH2_STATS

    def test_stats_merge_folds_rule_counts(self):
        left = SynthesisStats(nodes_visited=2)
        left.note_canonicalization_rejection("rule_a")
        right = SynthesisStats(nodes_visited=3, dead_ends_by_distance=1)
        right.note_canonicalization_rejection("rule_a")
        right.note_canonicalization_rejection("rule_b")
        left.merge(right)
        assert left.nodes_visited == 5
        assert left.dead_ends_by_distance == 1
        assert left.canonicalization_rejections == {"rule_a": 2, "rule_b": 1}


# ---------------------------------------------------------------------------
# Warm-started search
# ---------------------------------------------------------------------------


def _toy_search(reward_fn, *, seed=1, iterations=25, root_priority=()):
    space = _gpt2_space()
    return MCTS(
        spec=space.spec,
        options=space.options,
        reward_fn=reward_fn,
        config=MCTSConfig(
            iterations=iterations, seed=seed, root_priority=tuple(root_priority)
        ),
    )


def _sample_keys(samples):
    return [(s.operator.graph.signature(), s.reward, s.iteration) for s in samples]


class TestWarmStart:
    def test_plan_is_none_without_a_library(self, tmp_path):
        runtime = _runtime(tmp_path)
        space = _gpt2_space()
        assert find_library_name(space.spec, runtime) is None
        assert plan_warm_start(space.spec, cache_context="c", runtime=runtime) is None

    def test_find_library_name_discovers_by_spec_key(self, tmp_path):
        runtime = _runtime(tmp_path)
        _build_gpt2(runtime)
        space = _gpt2_space()
        assert find_library_name(space.spec, runtime) == "gpt2"
        other = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        assert find_library_name(other, runtime) is None

    def test_plan_ranks_rewarded_entries_first_and_seeds_the_cache(self, tmp_path):
        runtime = _runtime(tmp_path)
        built = _build_gpt2(runtime)
        complete = sorted(e.signature for e in built.library.complete_entries())
        rewarded = complete[-1]  # last alphabetically: rank must beat the order
        context = ("proxy", 3)
        assert export_rewards(
            {rewarded: 0.9}, name="gpt2", cache_context=context, runtime=runtime
        ) == 1

        plan = plan_warm_start(
            _gpt2_space().spec, cache_context=context, runtime=runtime
        )
        assert plan is not None
        assert plan.name == "gpt2"
        assert plan.content_hash == built.content_hash
        assert plan.seeded_rewards == 1
        assert (context, rewarded) in runtime.caches.reward
        depth_one = {e.signature for e in built.library if e.depth == 1}
        assert plan.root_priority
        assert set(plan.root_priority) <= depth_one
        # The rewarded entry's depth-1 ancestor leads the priority list.
        rewarded_entry = built.library.get(rewarded)
        assert plan.root_priority[0] == built.library.prefix_signature(
            rewarded_entry, depth=1
        )

        # Re-planning seeds nothing new: the cache already holds the reward.
        again = plan_warm_start(
            _gpt2_space().spec, cache_context=context, runtime=runtime
        )
        assert again is not None and again.seeded_rewards == 0

    def test_root_priority_expands_the_preferred_child_first(self, tmp_path):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        children = enumerate_children(root, space.options)
        preferred = sorted(graph.signature() for _, graph in children)[0]

        search = _toy_search(lambda op: 0.5, root_priority=(preferred,))
        search.run()
        expanded = [child.graph.signature() for child in search._root.children]
        assert expanded, "the toy search must expand the root"
        assert expanded[0] == preferred

    def test_unmatched_priority_reproduces_the_cold_search_exactly(self):
        cold = _toy_search(lambda op: 0.5).run()
        noop = _toy_search(lambda op: 0.5, root_priority=("no-such-sig",)).run()
        assert _sample_keys(noop) == _sample_keys(cold)

    def test_prioritized_search_is_deterministic(self):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        sig = enumerate_children(root, space.options)[0][1].signature()
        one = _toy_search(lambda op: 0.5, root_priority=(sig,)).run()
        two = _toy_search(lambda op: 0.5, root_priority=(sig,)).run()
        assert _sample_keys(one) == _sample_keys(two)

    def test_warm_started_experiment_saves_proxy_trainings(self, tmp_path):
        """End to end: cold run -> export rewards -> warm run trains less."""
        config = ExperimentConfig(smoke=True)

        cold_rt = _runtime(tmp_path, warm_start=False)
        with cold_rt.activate():
            cold = run_experiment("search", config, store=None)
        cold_entries = cold_rt.caches.reward.export_entries()
        assert cold_entries, "the cold search must proxy-train candidates"
        context = next(iter(cold_entries))[0]
        exported = export_rewards(
            {sig: reward for (_, sig), reward in cold_entries.items()},
            name="gpt2",
            cache_context=context,
            runtime=cold_rt,
        )
        assert exported == len(cold_entries)
        _build_gpt2(cold_rt)  # the artifact the warm run auto-discovers

        warm_rt = _runtime(tmp_path, warm_start=True)
        with warm_rt.activate():
            plan = plan_warm_start(
                _gpt2_space().spec, cache_context=context, runtime=warm_rt
            )
            assert plan is not None and plan.seeded_rewards == len(cold_entries)
            warm = run_experiment("search", config, store=None)
        warm_entries = warm_rt.caches.reward.export_entries()
        warm_trainings = len(warm_entries) - plan.seeded_rewards
        assert warm_trainings < len(cold_entries)
        # Seeded rewards keep the warm run's best at least as good as cold.
        assert max(warm_entries.values()) >= max(cold_entries.values())
        assert warm.record.status == "completed"

    def test_search_session_takes_its_runtime_knobs_from_the_context(
        self, tmp_path, monkeypatch
    ):
        """Shards, frontier width and warm start come from the session's context."""
        import repro.library.warmstart as warmstart
        import repro.search.parallel as parallel

        seen: dict[str, list] = {"plans": [], "waves": [], "shards": []}

        def plan(spec, cache_context, runtime=None):
            seen["plans"].append(runtime)
            return None  # no library on disk: a cold search

        propose = MCTS.propose_batch

        def spy_propose(search, n):
            seen["waves"].append(n)
            return propose(search, n)

        real_map = parallel.sharded_map

        def spy_map(fn, items, shards=None, max_workers=None, runtime=None):
            seen["shards"].append(shards or (runtime or current()).config.shards)
            return real_map(fn, items, runtime=runtime, max_workers=1)

        monkeypatch.setattr(warmstart, "plan_warm_start", plan)
        monkeypatch.setattr(MCTS, "propose_batch", spy_propose)
        monkeypatch.setattr(parallel, "sharded_map", spy_map)
        runtime = _runtime(tmp_path, shards=3, frontier_width=3, warm_start=True)
        session = SearchSession(
            resnet18,
            config=SearchConfig(
                mcts_iterations=4,
                evaluation=EvaluationSettings(train_steps=1, dataset_size=16, batch_size=8),
            ),
            runtime=runtime,
        )
        session.run()
        assert seen["plans"] == [runtime]
        assert seen["waves"] == [3, 1]
        # Candidate evaluation (and every non-empty reward wave) fanned out
        # at the context's shard count.
        assert seen["shards"] and set(seen["shards"]) == {3}


# ---------------------------------------------------------------------------
# Runtime knobs
# ---------------------------------------------------------------------------


class TestRuntimeKnobs:
    def test_env_parsing_and_provenance(self):
        config = RuntimeConfig.from_env(
            {"REPRO_LIBRARY_DIR": "/elsewhere/lib", "REPRO_WARM_START": "1"}
        )
        assert config.library_dir == "/elsewhere/lib"
        assert config.warm_start is True
        assert config.provenance_map()["library_dir"] == "env"
        assert config.provenance_map()["warm_start"] == "env"

    def test_library_root_defaults_under_results_dir(self):
        config = RuntimeConfig.from_env({"REPRO_RESULTS_DIR": "/tmp/r"})
        assert config.library_root() == os.path.join("/tmp/r", "library")
        assert config.describe()["library_dir"] == os.path.join("/tmp/r", "library")
        assert config.describe()["warm_start"] is False

    def test_context_library_path_follows_the_config(self, tmp_path):
        runtime = _runtime(tmp_path)
        assert runtime.library_path() == str(tmp_path / "library")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def _cli_dirs(tmp_path) -> list[str]:
    return [
        "--library-dir", str(tmp_path / "library"),
        "--results-dir", str(tmp_path / "results"),
    ]


class TestLibraryCli:
    def test_build_stats_query_round_trip(self, tmp_path, capsys):
        assert main(
            ["library", "build", "gpt2", "--max-depth", "2", *_cli_dirs(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "gpt2" in out and "built" in out

        assert main(["library", "stats", "--json", *_cli_dirs(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["libraries"]
        assert entry["name"] == "gpt2"
        assert entry["entries"] > 0
        assert "canonicalization_rejections" in entry["stats"]
        assert "dead_ends_by_distance" in entry["stats"]

        assert main(
            ["library", "stats", "gpt2", *_cli_dirs(tmp_path)]
        ) == 0
        human = capsys.readouterr().out
        assert "canonicalization rejections" in human
        assert "shape distance" in human

        assert main(
            ["library", "query", "gpt2", "--top", "2", "--json", *_cli_dirs(tmp_path)]
        ) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["complete"] >= len(listing["entries"]) > 0
        signature = listing["entries"][0]["signature"]

        assert main(
            [
                "library", "query", "gpt2",
                "--signature", signature,
                "--json",
                *_cli_dirs(tmp_path),
            ]
        ) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["signature"] == signature
        assert entry["complete"] is True

    def test_build_rejects_an_unknown_family(self, tmp_path, capsys):
        assert main(["library", "build", "nope", *_cli_dirs(tmp_path)]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_stats_fails_cleanly_on_an_empty_root(self, tmp_path, capsys):
        assert main(["library", "stats", *_cli_dirs(tmp_path)]) == 1
        assert "no library artifacts" in capsys.readouterr().err

    def test_query_fails_cleanly_without_an_artifact(self, tmp_path, capsys):
        assert main(["library", "query", "gpt2", *_cli_dirs(tmp_path)]) == 1
        assert "no artifact" in capsys.readouterr().err

    def test_every_family_is_buildable(self):
        # The registry itself: every family resolves to a bound space whose
        # budgets are positive (a build would run; building all five here
        # would be slow for a unit test).
        spaces = design_spaces()
        assert set(spaces) == {"gpt2", "resnet", "resnext", "densenet", "efficientnet"}
        for space in spaces.values():
            assert space.options.max_depth >= 2
            assert space.binding, "every space is fully bound"

    def test_list_json_renders_experiments_and_runs(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        assert main(["list", "--json", "--results-dir", results]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "search" in payload["experiments"]
        assert payload["runs"] == []
        assert payload["results_dir"] == results
