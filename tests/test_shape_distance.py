"""Tests for the shape-distance metric (Section 7.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import enumeration
from repro.core.enumeration import enumerate_children
from repro.core.pgraph import PGraph
from repro.core.shape_distance import _uncached_distance, shape_distance, within_reach
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size
from repro.ir.variables import coefficient, primary
from repro.library import builder
from repro.library.specs import space_for
from repro.runtime import RuntimeConfig, RuntimeContext
from repro.search.parallel import sharded_map

C_IN = primary("C_in", default=8)
H = primary("H", default=8)
W = primary("W", default=8)
N = primary("N", default=2)
S = coefficient("s", default=2)
K = coefficient("k", default=3)


class TestBasics:
    def test_zero_for_identical_shapes(self):
        shape = ShapeSpec.of([N, C_IN, H, W])
        assert shape_distance(shape, shape) == 0

    def test_zero_for_permutation(self):
        assert shape_distance(ShapeSpec.of([H, W]), ShapeSpec.of([W, H])) == 0

    def test_positive_when_different(self):
        assert shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W])) >= 1

    def test_single_reshape_group(self):
        # [H*W] vs [H, W]: one Merge-like step suffices.
        assert shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W])) == 1

    def test_paper_example_distance_three(self):
        """The running example of Section 7.1: [C_in, s^-1*H, s*W, k] -> [C_in, H, W]."""
        current = ShapeSpec.of([C_IN, Size.of(H) / S, Size.of(W) * S, K])
        desired = ShapeSpec.of([C_IN, H, W])
        assert shape_distance(current, desired) == 3

    def test_extra_coefficient_dim_needs_one_to_many(self):
        current = ShapeSpec.of([H, K])
        desired = ShapeSpec.of([H])
        assert shape_distance(current, desired) >= 1

    def test_domain_mismatch_adds_step(self):
        same_domain = shape_distance(
            ShapeSpec.of([Size.of(H) / S, Size.of(W) * S]), ShapeSpec.of([H, W])
        )
        different_domain = shape_distance(
            ShapeSpec.of([Size.of(H) / S, Size.of(W) * S, K]), ShapeSpec.of([H, W])
        )
        assert different_domain == same_domain + 1


@given(
    sizes=st.lists(st.sampled_from([2, 3, 4, 8]), min_size=1, max_size=4),
)
def test_property_distance_zero_iff_multiset_equal_for_constants(sizes):
    lhs = ShapeSpec.of(sizes)
    rhs = ShapeSpec.of(list(reversed(sizes)))
    assert shape_distance(lhs, rhs) == 0


@given(
    extra=st.sampled_from([2, 3, 5]),
    base=st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3),
)
def test_property_adding_a_dim_gives_positive_distance(extra, base):
    lhs = ShapeSpec.of(base + [extra * 7])
    rhs = ShapeSpec.of(base)
    assert shape_distance(lhs, rhs) >= 1


# ---------------------------------------------------------------------------
# The per-context memo
# ---------------------------------------------------------------------------


def _depth_two_children(family: str) -> list[PGraph]:
    """Every child generated by a depth-2 enumeration of ``family``'s space."""
    space = space_for(family, max_depth=3)
    root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
    first = enumerate_children(root, space.options)
    second = [
        grandchild
        for child in first
        for grandchild in enumerate_children(child, space.options)
    ]
    return first + second


def _fresh(shape: ShapeSpec) -> ShapeSpec:
    """An equal shape built from new sizes: nothing cached on any of them."""
    return ShapeSpec(tuple(Size(size.factor, size.powers) for size in shape))


def _distance_probe(shapes: tuple[ShapeSpec, ShapeSpec]) -> int:
    """Picklable shard worker: one memoized distance."""
    return shape_distance(*shapes)


class TestMemo:
    @pytest.mark.parametrize("family", ["resnet", "gpt2"])
    def test_memoized_distance_equals_the_uncached_computation(self, family):
        children = _depth_two_children(family)
        assert len(children) > 50
        context = RuntimeContext()
        with context.activate():
            for child in children:
                expected = _uncached_distance(
                    _fresh(child.frontier_shape), _fresh(child.input_shape)
                )
                # Asked twice: the miss computes, the hit replays.
                assert shape_distance(child.frontier_shape, child.input_shape) == expected
                assert shape_distance(child.frontier_shape, child.input_shape) == expected
        stats = context.caches.stats()["shape_distance"]
        assert stats.hits >= len(children)
        assert stats.misses == len(context.caches.shape_distance) < len(children)

    def test_a_repeat_is_a_hit(self):
        context = RuntimeContext()
        current_shape = ShapeSpec.of([C_IN, Size.of(H) / S, Size.of(W) * S, K])
        desired = ShapeSpec.of([C_IN, H, W])
        with context.activate():
            assert shape_distance(current_shape, desired) == 3
            assert shape_distance(_fresh(current_shape), _fresh(desired)) == 3
        stats = context.caches.stats()["shape_distance"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_eval_cache_off_bypasses_the_memo(self):
        context = RuntimeContext(RuntimeConfig(eval_cache=False))
        with context.activate():
            shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W]))
            shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W]))
        assert len(context.caches.shape_distance) == 0
        assert context.caches.stats()["shape_distance"].lookups == 0

    def test_isolated_contexts_share_nothing_and_clear_empties(self):
        context = RuntimeContext()
        with context.activate():
            shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W]))
        assert len(context.caches.shape_distance) == 1
        isolated = context.isolated()
        assert len(isolated.caches.shape_distance) == 0
        with isolated.activate():
            shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W]))
        assert isolated.caches.stats()["shape_distance"].misses == 1
        context.caches.clear()
        assert len(context.caches.shape_distance) == 0
        assert len(isolated.caches.shape_distance) == 1

    def test_memo_is_process_local(self, tmp_path):
        """Out of every shard delta and every snapshot.

        The legal-children memo is never persisted either, but it is
        mergeable: shard workers' expansions come back to the parent.
        """
        context = RuntimeContext()
        caches = context.caches
        assert "shape_distance" not in caches.mergeable()
        assert caches.mergeable()["children"] is caches.children
        for memo in (caches.shape_distance, caches.children):
            assert memo not in caches.persisted()
            assert memo in caches.all()
        with context.activate():
            shape_distance(ShapeSpec.of([Size.of(H) * W]), ShapeSpec.of([H, W]))
        context.cached_children(("signature", "", "space"), lambda: ())
        caches.plan.put("plan-key", "plan")
        caches.reward.put("reward-key", 0.5)
        assert len(caches.shape_distance) == len(caches.children) == 1
        delta = caches.export_delta({})
        assert "shape_distance" not in delta
        assert delta["children"] == {("signature", "", "space"): ()}
        assert delta["plan"] == {"plan-key": "plan"}

        path = str(tmp_path / "store.rpcs")
        assert context.save_caches(path).ok
        reloaded = RuntimeContext()
        assert reloaded.load_caches(path).entries["reward"] == 1
        assert reloaded.caches.sizes()["children"] == 0
        assert reloaded.caches.sizes()["shape_distance"] == 0

    def test_two_shard_map_exports_no_shape_distance_delta(self):
        context = RuntimeContext()
        desired = ShapeSpec.of([H, W])
        items = [
            (ShapeSpec.of([Size.of(H) * W]), desired),
            (ShapeSpec.of([H, W, K]), desired),
            (ShapeSpec.of([Size.of(H) / S, Size.of(W) * S]), desired),
            (ShapeSpec.of([H, Size.of(W) * K]), desired),
        ]
        expected = [_uncached_distance(*item) for item in items]
        with context.activate():
            assert sharded_map(_distance_probe, items, shards=2, max_workers=2) == expected
        assert context.shard_failures == []
        assert len(context.caches.shape_distance) == 0


# ---------------------------------------------------------------------------
# The prune predicate
# ---------------------------------------------------------------------------


def _assert_within_reach_is_the_distance_test(graphs: list[PGraph]) -> None:
    for graph in graphs:
        distance = shape_distance(graph.frontier_shape, graph.input_shape)
        for steps in range(-1, 4):
            assert within_reach(graph, steps) == (distance <= steps), (
                graph.signature(), distance, steps
            )


class TestWithinReach:
    """``within_reach(g, s)`` is exactly ``shape_distance(...) <= s``."""

    @pytest.mark.parametrize("family", ["resnet", "gpt2"])
    def test_over_an_unpruned_depth_two_bfs(self, family):
        # The nodes a BFS reaches with ``use_shape_distance=False``: nothing
        # is pruned, so complete graphs and every shape on the way appear.
        space = space_for(family, max_depth=3)
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        graphs = [root] + _depth_two_children(family)
        assert any(graph.is_complete for graph in graphs)
        _assert_within_reach_is_the_distance_test(graphs)

    def test_over_every_child_of_the_resnet_depth3_build(self, tmp_path, monkeypatch):
        generated: list[PGraph] = []

        def recording(graph, options, stats=None, *, steps=None):
            # The build prunes before it builds, so record every child it
            # generates from an unpruned enumeration of the same graph.
            generated.extend(enumerate_children(graph, options))
            return enumerate_children(graph, options, stats=stats, steps=steps)

        monkeypatch.setattr(enumeration, "enumerate_children", recording)
        space = space_for("resnet", max_depth=3)
        context = RuntimeContext(
            RuntimeConfig(results_dir=str(tmp_path / "r"), library_dir=str(tmp_path / "l"))
        )
        result = builder.build_library(
            space.spec, space.options, name=space.name, runtime=context, shards=1
        )
        assert len(generated) == result.stats.children_generated == 18_306
        with context.activate():
            _assert_within_reach_is_the_distance_test(generated)
