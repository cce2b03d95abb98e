"""Tests for guided enumeration (Algorithm 1) and the MCTS search."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.core.enumeration import (
    EnumerationOptions,
    SynthesisStats,
    default_options_for,
    enumerate_children,
    legal_children,
    space_key,
    synthesize,
)
from repro.core.library import (
    C_IN, C_OUT, GROUPS, H, K, K1, M, N, OUT_FEATURES, W, conv2d_spec, matmul_spec,
)
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.pgraph import PGraph
from repro.core.primitives import Reduce, Share
from repro.core.shape_distance import _uncached_distance
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.library.specs import gpt2_projection_space, space_for
from repro.runtime import current


def _matmul_options(max_depth: int = 3) -> EnumerationOptions:
    spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
    return default_options_for(spec, coefficients=[], max_depth=max_depth)


class TestEnumerateChildren:
    def test_root_children_nonempty_and_canonical(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options()
        root = PGraph.root(spec.output_shape, spec.input_shape)
        children = enumerate_children(root, options)
        assert children
        signatures = [child.signature() for child in children]
        assert len(signatures) == len(set(signatures))

    def test_children_respect_occurrence_limits(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options()
        options.max_reductions = 0
        root = PGraph.root(spec.output_shape, spec.input_shape)
        children = enumerate_children(root, options)
        assert not any(isinstance(child.last_application.primitive, Reduce) for child in children)

    def test_disabling_canonicalization_yields_more_children(self):
        spec = conv2d_spec(bindings=({N: 1, C_IN: 4, C_OUT: 4, H: 4, W: 4, K1: 3},))
        options = default_options_for(spec, coefficients=[K1], max_depth=4)
        root = PGraph.root(spec.output_shape, spec.input_shape)
        graph = Reduce(size=Size.of(K1)).apply(root, ())
        with_canon = len(enumerate_children(graph, options))
        options.canonicalizer = None
        without_canon = len(enumerate_children(graph, options))
        assert without_canon >= with_canon


class TestSynthesize:
    def test_matmul_is_discoverable(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options(max_depth=3)
        results, stats = synthesize(spec, options, max_results=16, max_nodes=4000)
        assert results, "guided synthesis should find at least one valid operator"
        assert stats.completed == len(results)
        # At least one discovered operator is the plain matmul: Reduce + Share.
        assert any(
            result.graph.count_primitive(Reduce) == 1 and result.graph.count_primitive(Share) == 1
            for result in results
        )

    def test_all_results_are_complete_and_within_budget(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options(max_depth=3)
        options.max_macs = 4 * 6 * 5 * 10
        results, _ = synthesize(spec, options, max_results=8, max_nodes=4000)
        for result in results:
            assert result.graph.is_complete
            assert result.graph.macs({M: 4, K: 6, OUT_FEATURES: 5}) <= options.max_macs

    def test_shape_distance_prunes_nodes(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        guided = _matmul_options(max_depth=3)
        unguided = _matmul_options(max_depth=3)
        unguided.use_shape_distance = False
        _, stats_guided = synthesize(spec, guided, max_results=4, max_nodes=800,
                                     rng=random.Random(0))
        _, stats_unguided = synthesize(spec, unguided, max_results=4, max_nodes=800,
                                       rng=random.Random(0))
        assert stats_guided.pruned_by_distance > 0
        # Guidance should not reduce the yield under the same node budget.
        assert stats_guided.completed >= stats_unguided.completed

    def test_results_deduplicated_by_signature(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options(max_depth=3)
        results, _ = synthesize(spec, options, max_results=32, max_nodes=4000)
        signatures = [result.graph.signature() for result in results]
        assert len(signatures) == len(set(signatures))


class TestMCTS:
    def _reward(self, operator) -> float:
        """A cheap synthetic reward: prefer operators with parameters."""
        binding = {M: 4, K: 6, OUT_FEATURES: 5}
        params = operator.parameter_count(binding)
        return min(params / 100.0, 1.0)

    def test_mcts_finds_rewarding_operators(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options(max_depth=3)
        search = MCTS(spec=spec, options=options, reward_fn=self._reward,
                      config=MCTSConfig(iterations=60, seed=1))
        samples = search.run()
        assert samples, "MCTS should evaluate at least one complete operator"
        assert search.best_operator() is not None
        assert samples[0].reward >= samples[-1].reward

    def test_mcts_respects_flops_budget(self):
        binding = {M: 4, K: 6, OUT_FEATURES: 5}
        spec = matmul_spec(bindings=(binding,))
        options = _matmul_options(max_depth=3)
        options.max_macs = 4 * 6 * 5  # exactly one contraction worth of MACs
        search = MCTS(spec=spec, options=options, reward_fn=self._reward,
                      config=MCTSConfig(iterations=40, seed=2))
        for record in search.run():
            assert record.operator.macs(binding) <= options.max_macs

    def test_mcts_deduplicates_evaluations(self):
        spec = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        options = _matmul_options(max_depth=2)
        calls = []

        def reward(operator):
            calls.append(operator.graph.signature())
            return 0.5

        search = MCTS(spec=spec, options=options, reward_fn=reward,
                      config=MCTSConfig(iterations=50, seed=3))
        search.run()
        assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# Signatures extended from the parent
# ---------------------------------------------------------------------------


def _unpruned_bfs(family: str, depth: int) -> tuple[list[PGraph], EnumerationOptions]:
    """Every node of ``family``'s space to ``depth``, nothing pruned by distance."""
    space = space_for(family, max_depth=3)
    level = [PGraph.root(space.spec.output_shape, space.spec.input_shape)]
    nodes = list(level)
    for _ in range(depth):
        level = [child for graph in level for child in enumerate_children(graph, space.options)]
        nodes.extend(level)
    return nodes, space.options


def _assert_signatures_match_a_recomputation(graphs: list[PGraph]) -> None:
    for graph in graphs:
        scratch = dataclasses.replace(graph)  # an equal graph with no cached state
        assert (graph.signature(), graph.weight_signature()) == (
            scratch.signature(), scratch.weight_signature()
        )


class TestExtendedSignatures:
    """A child's signatures, extended from its parent's, equal a from-root computation."""

    @pytest.mark.parametrize("family", ["resnet", "gpt2"])
    def test_every_node_of_a_depth_two_bfs(self, family):
        nodes, _ = _unpruned_bfs(family, depth=2)
        assert any(graph.weights and len(graph.weights[0].dims) > 1 for graph in nodes)
        _assert_signatures_match_a_recomputation(nodes)

    @pytest.mark.parametrize("family, every", [("resnet", 10), ("gpt2", 1)])
    def test_children_of_unpickled_graphs(self, family, every):
        # Shard workers extend graphs that arrive pickled, cached state and
        # all.  Every ``every``-th node of the BFS is extended, so depth-3
        # children extend a state that was itself extended.
        nodes, options = _unpruned_bfs(family, depth=2)
        for graph in nodes[::every]:
            loaded = pickle.loads(pickle.dumps(graph))
            _assert_signatures_match_a_recomputation(
                enumerate_children(loaded, options)
            )


class _Untouchable:
    """A budget value that fails the test on any use: compared, read or rendered."""

    def _used(self, *args, **kwargs):
        raise AssertionError("enumeration read a budget field")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = _used
    __bool__ = __len__ = __iter__ = __contains__ = __getitem__ = _used
    __int__ = __index__ = __float__ = __repr__ = __str__ = __format__ = _used


class TestBudgetsStayOutOfEnumeration:
    """The memo key drops the budgets because enumeration never reads them."""

    def test_untouchable_budgets_enumerate_the_same_children(self):
        nodes, options = _unpruned_bfs("resnet", depth=2)
        untouchable = dataclasses.replace(
            options,
            max_macs=_Untouchable(),
            max_params=_Untouchable(),
            budget_binding=_Untouchable(),
        )
        spec = space_for("resnet", max_depth=3).spec
        assert space_key(spec, untouchable) == space_key(spec, options)
        for graph in nodes:
            steps = options.max_depth - graph.depth - 1
            counted, counted_untouchable = SynthesisStats(), SynthesisStats()
            children = enumerate_children(graph, options, counted, steps=steps)
            assert _identity(
                enumerate_children(graph, untouchable, counted_untouchable, steps=steps)
            ) == _identity(children)
            assert counted_untouchable == counted


# ---------------------------------------------------------------------------
# The legal-children memo (MCTS and the library builder)
# ---------------------------------------------------------------------------


def _uncached_legal_children(graph: PGraph, options: EnumerationOptions) -> list[PGraph]:
    """``enumerate_children`` plus the shape-distance prune, with no memo."""
    remaining = options.max_depth - graph.depth - 1
    return [
        child
        for child in enumerate_children(graph, options)
        if not options.use_shape_distance
        or _uncached_distance(child.frontier_shape, child.input_shape) <= remaining
    ]


def _identity(children) -> list[tuple[str, str, str]]:
    """Each child's signature, weight signature and frontier sizes, in order."""
    return [
        (child.signature(), child.weight_signature(), repr(child.frontier_shape))
        for child in children
    ]


def _rebuilt_graphs(spec, options: EnumerationOptions) -> dict[tuple[str, str], PGraph]:
    """Every graph an MCTS over the space enumerates from, grown from a fresh root."""
    graphs: dict[tuple[str, str], PGraph] = {}
    stack = [PGraph.root(spec.output_shape, spec.input_shape)]
    while stack:
        graph = stack.pop()
        key = (graph.signature(), graph.weight_signature())
        if key in graphs:
            continue
        graphs[key] = graph
        if graph.depth < options.max_depth and not (graph.is_complete and graph.depth > 0):
            stack.extend(_uncached_legal_children(graph, options))
    return graphs


def _signature_reward(operator) -> float:
    """A deterministic synthetic reward that spreads candidates apart."""
    return sum(map(ord, operator.graph.signature())) % 97 / 97.0


def _gpt2_search(seed: int, spec=None, options=None) -> MCTS:
    space = gpt2_projection_space(max_depth=3)
    return MCTS(
        spec=spec if spec is not None else space.spec,
        options=options if options is not None else space.options,
        reward_fn=_signature_reward,
        config=MCTSConfig(iterations=40, seed=seed, batch_size=8),
    )


def _samples(search: MCTS, runtime) -> list[tuple[str, float, int]]:
    with runtime.activate():
        search.run()
    return [
        (sample.operator.graph.signature(), sample.reward, sample.iteration)
        for sample in search.samples
    ]


class TestChildrenMemo:
    def test_entries_equal_a_fresh_enumeration_after_a_smoke_search(self):
        context = current().isolated()
        with context.activate():
            run_experiment("search", ExperimentConfig(seed=3))
        entries = context.caches.children.export_entries()
        assert len(entries) > 10
        space = gpt2_projection_space(max_depth=3)
        rebuilt = _rebuilt_graphs(space.spec, space.options)
        for (signature, weight_signature, _), (children, _stats) in entries.items():
            graph = rebuilt[(signature, weight_signature)]
            assert _identity(children) == _identity(
                _uncached_legal_children(graph, space.options)
            ), signature

    def test_a_warm_context_replays_the_cold_samples(self):
        warm = current().isolated()
        _samples(_gpt2_search(1), warm)
        warm_b = _samples(_gpt2_search(2), warm)
        assert warm_b
        assert warm_b == _samples(_gpt2_search(2), current().isolated())

        disabled = current().isolated(eval_cache=False)
        assert warm_b == _samples(_gpt2_search(2), disabled)
        assert len(disabled.caches.children) == 0

        before = warm.caches.stats()["children"]
        assert warm_b == _samples(_gpt2_search(2), warm)
        after = warm.caches.stats()["children"]
        assert after.hits > before.hits
        assert after.misses == before.misses

    @pytest.mark.parametrize(
        "variant", ["reduce-size-order", "max-depth", "output-sizes", "budgets"]
    )
    def test_searches_over_different_spaces_never_alias(self, variant):
        """Two searches share a context; each one's memo lookups are its own.

        Searches that differ only in their budgets search one space, so they
        share its entries.
        """
        space = gpt2_projection_space(max_depth=3)
        spec, options = space.spec, dataclasses.replace(space.options)
        if variant == "reduce-size-order":
            options.reduce_sizes = list(reversed(options.reduce_sizes))
            assert options.reduce_sizes != space.options.reduce_sizes
        elif variant == "max-depth":
            options.max_depth = 4
        elif variant == "output-sizes":
            spec = dataclasses.replace(spec, output_shape=ShapeSpec.of([M, GROUPS]))
        else:
            options.max_macs, options.max_params = 1, 1
            options.budget_binding = {M: 2, K: 3, OUT_FEATURES: 5, GROUPS: 2}
        context = current().isolated()
        searches = [_gpt2_search(4), _gpt2_search(4, spec, options)]
        with context.activate():
            for search in searches:
                search.run()
            for search in searches:
                key = space_key(search.spec, search.options)
                for graph in _rebuilt_graphs(search.spec, search.options).values():
                    assert _identity(
                        legal_children(graph, search.options, key)[0]
                    ) == _identity(_uncached_legal_children(graph, search.options))
        stats = context.caches.stats()["children"]
        assert stats.hits > 0
        spaces = {key[2] for key in context.caches.children.export_entries()}
        assert len(spaces) == (1 if variant == "budgets" else 2)
