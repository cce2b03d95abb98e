"""Exactness of enumeration's per-graph rule state, rule dispatch, child building and prune.

``enumerate_children`` checks every candidate application against state it
derives once per graph (:meth:`PGraph.rule_state`), generates no candidate an
occurrence limit blocks, runs only the rules that can reject the candidate's
primitive type, and builds a child only when its sibling key is new and,
given the steps left, when the child can still complete.  Each shortcut is
compared here against a from-scratch reference kept in this file, over the
graphs of unpruned depth-2 BFSs of the resnet and gpt2 slots and over every
graph a resnet depth-3 library build expands.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import pytest

from repro.core import enumeration as enumeration_module
from repro.core import pgraph as pgraph_module
from repro.core.canonicalize import CanonicalizationEngine, rejects
from repro.core.enumeration import (
    SynthesisStats,
    _candidate_applications,
    enumerate_children,
)
from repro.core.pgraph import Application, Dim, DimRole, PGraph, WeightTensor, sibling_key
from repro.core.primitives import (
    Expand,
    Merge,
    Primitive,
    PrimitiveError,
    Reduce,
    Share,
    Shift,
    Split,
    Stride,
    Unfold,
)
from repro.core.shape_distance import within_reach
from repro.library import builder
from repro.library.specs import space_for
from repro.runtime import RuntimeConfig, RuntimeContext

PRIMITIVE_TYPES = (Primitive, Split, Merge, Shift, Expand, Unfold, Stride, Reduce, Share)
UNLIMITED = 10**6


# ---------------------------------------------------------------------------
# Graph sets
# ---------------------------------------------------------------------------


def _bfs(family: str, depth: int = 2) -> list[PGraph]:
    """Every node of the unpruned BFS of ``family``'s slot to ``depth``."""
    space = space_for(family)
    level = [PGraph.root(space.spec.output_shape, space.spec.input_shape)]
    nodes = list(level)
    for _ in range(depth):
        level = [child for graph in level for child in enumerate_children(graph, space.options)]
        nodes.extend(level)
    return nodes


@pytest.fixture(scope="module")
def bfs_graphs() -> dict[str, list[PGraph]]:
    return {family: _bfs(family) for family in ("resnet", "gpt2")}


@pytest.fixture(scope="module")
def build_graphs(tmp_path_factory) -> list[PGraph]:
    """The graphs a serial resnet depth-3 library build expands, in order."""
    expanded: list[PGraph] = []

    def recording(graph, options, stats=None, *, steps=None):
        expanded.append(graph)
        return enumerate_children(graph, options, stats=stats, steps=steps)

    space = space_for("resnet", max_depth=3)
    runtime = RuntimeContext(
        RuntimeConfig(library_dir=str(tmp_path_factory.mktemp("library")))
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_module, "enumerate_children", recording)
        builder.build_library(
            space.spec, space.options, name="resnet", runtime=runtime, shards=1,
            checkpoint=False,
        )
    assert len(expanded) == 886
    return expanded


# ---------------------------------------------------------------------------
# Derived rule state
# ---------------------------------------------------------------------------


def _reference_order_key(primitive: Primitive, operands) -> tuple:
    if primitive.is_view and not primitive.is_one_to_many and not isinstance(primitive, Stride):
        priority = 0
    elif primitive.is_view:
        priority = 1
    else:
        priority = 2
    return (priority, type(primitive).__name__, min((dim.uid for dim in operands), default=-1))


def _reference_producer(graph: PGraph, dim):
    for app in graph.applications:
        if dim in app.produced:
            return app
    return None


def _reference_rule_state(graph: PGraph) -> dict:
    last = graph.applications[-1] if graph.applications else None
    share_index = None
    for app in reversed(graph.applications):
        if app.weight_index is not None:
            share_index = app.weight_index
            break
    return {
        "counts": {
            kind: sum(1 for app in graph.applications if isinstance(app.primitive, kind))
            for kind in PRIMITIVE_TYPES
        },
        "footprint": (set(last.produced) | set(last.weight_dims)) if last else set(),
        "order_key": (
            _reference_order_key(last.primitive, last.consumed or last.produced) if last else None
        ),
        "share_index": share_index,
        "weight_dims": sum(len(weight.dims) for weight in graph.weights),
        "one_to_many": sum(
            isinstance(app.primitive, Unfold) + isinstance(app.primitive, Expand)
            for app in graph.applications
        ),
        "strides": sum(isinstance(app.primitive, Stride) for app in graph.applications),
    }


def _assert_rule_state_exact(graph: PGraph) -> None:
    state = graph.rule_state()
    derived = {
        "counts": {kind: graph.count_primitive(kind) for kind in PRIMITIVE_TYPES},
        "footprint": set(state.last_footprint),
        "order_key": state.last_order_key,
        "share_index": graph.weight_index_of_last_share(),
        "weight_dims": state.weight_dims,
        "one_to_many": state.one_to_many,
        "strides": state.strides,
    }
    assert derived == _reference_rule_state(graph)
    dims = set(graph.frontier)
    for app in graph.applications:
        dims.update(app.consumed + app.produced + app.weight_dims)
    for dim in dims:
        assert state.producers.get(dim) is _reference_producer(graph, dim)


#: how a graph derives each name in ``pgraph._DERIVED``.
DERIVE = {
    "_frontier_shape": lambda graph: graph.frontier_shape,
    "_rule_state": PGraph.rule_state,
    "_is_complete": lambda graph: graph.is_complete,
}


class TestRuleState:
    def test_bfs_graphs_match_a_recomputation(self, bfs_graphs):
        for graphs in bfs_graphs.values():
            for graph in graphs:
                _assert_rule_state_exact(graph)

    def test_built_and_unpickled_graphs_match_a_recomputation(self, build_graphs):
        for graph in build_graphs:
            _assert_rule_state_exact(graph)
            _assert_rule_state_exact(pickle.loads(pickle.dumps(graph)))

    def test_rule_state_is_never_pickled(self, build_graphs, bfs_graphs):
        """Nor is any other derived state: deriving it leaves the pickle's bytes as they were."""
        assert set(DERIVE) == pgraph_module._DERIVED
        for graph in build_graphs[::7] + bfs_graphs["gpt2"]:
            for name, derive in DERIVE.items():
                fresh = pickle.loads(pickle.dumps(graph))
                before = pickle.dumps(fresh)
                derive(fresh)
                assert name in vars(fresh)
                assert pickle.dumps(fresh) == before


# ---------------------------------------------------------------------------
# Rule dispatch
# ---------------------------------------------------------------------------


def _assert_dispatch_exact(engine: CanonicalizationEngine, graphs, options) -> int:
    checked = 0
    for graph in graphs:
        for primitive, operands in _candidate_applications(graph, options):
            verdicts = [rule(graph, primitive, operands) for rule in engine.rules]
            first = next(
                (rule.__name__ for rule, ok in zip(engine.rules, verdicts) if not ok), None
            )
            assert engine.rejecting_rule(graph, primitive, operands) == first
            assert engine.is_canonical(graph, primitive, operands) == all(verdicts)
            checked += 1
    return checked


class TestRuleDispatch:
    def test_build_candidates_match_a_loop_over_every_rule(self, build_graphs):
        options = space_for("resnet", max_depth=3).options
        # Occurrence limits are decided per graph, so the 4,974 candidates
        # they block are never generated.
        assert _assert_dispatch_exact(options.canonicalizer, build_graphs, options) == 58_737

    def test_bfs_candidates_match_a_loop_over_every_rule(self, bfs_graphs):
        for family, graphs in bfs_graphs.items():
            options = space_for(family).options
            assert _assert_dispatch_exact(options.canonicalizer, graphs, options) > 0

    def test_every_default_rule_but_the_ordering_rule_declares_its_type(self):
        undeclared = [
            rule.__name__
            for rule in CanonicalizationEngine().rules
            if getattr(rule, "rejects", None) is None
        ]
        assert undeclared == ["canonical_commuting_order"]

    def test_rules_added_or_replaced_after_first_use_see_every_type(self):
        space = space_for("resnet")
        graph = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        graph = Reduce(size=space.options.reduce_sizes[0]).apply(graph, ())
        candidates = list(_candidate_applications(graph, space.options))
        assert {type(primitive) for primitive, _ in candidates} >= {
            Reduce, Share, Merge, Shift, Split, Expand, Stride, Unfold
        }
        engine = CanonicalizationEngine()
        for primitive, operands in candidates:  # build the dispatch table
            engine.rejecting_rule(graph, primitive, operands)

        def veto(graph, primitive, operands):
            return False

        engine.add_rule(veto)
        assert _assert_dispatch_exact(engine, [graph], space.options) == len(candidates)
        for primitive, operands in candidates:
            assert not engine.is_canonical(graph, primitive, operands)

        engine.rules = [veto]
        for primitive, operands in candidates:
            assert engine.rejecting_rule(graph, primitive, operands) == "veto"

        engine.rules[0] = rejects(Shift)(lambda graph, primitive, operands: False)
        for primitive, operands in candidates:
            assert engine.is_canonical(graph, primitive, operands) == (
                not isinstance(primitive, Shift)
            )


# ---------------------------------------------------------------------------
# Children: built only when new
# ---------------------------------------------------------------------------


def _rebuilt(graph: PGraph, application) -> PGraph:
    """``graph`` extended by ``application``, edited step by step, its signature not cached."""
    frontier = list(graph.frontier)
    insert_at = frontier.index(application.consumed[0]) if application.consumed else len(frontier)
    for dim in application.consumed:
        frontier.remove(dim)
    for offset, dim in enumerate(application.produced):
        frontier.insert(insert_at + offset, dim)
    weights = list(graph.weights)
    if application.weight_dims:
        index = application.weight_index
        if index == len(weights):
            weights.append(WeightTensor(tuple(application.weight_dims)))
        else:
            weights[index] = WeightTensor(weights[index].dims + tuple(application.weight_dims))
    return PGraph(
        output_shape=graph.output_shape,
        input_shape=graph.input_shape,
        output_dims=graph.output_dims,
        frontier=tuple(frontier),
        applications=graph.applications + (application,),
        weights=tuple(weights),
    )


def _unlimited(options):
    """``options`` without occurrence limits: candidates of every kind are generated."""
    return dataclasses.replace(
        options, max_expands=UNLIMITED, max_strides=UNLIMITED, max_shifts=UNLIMITED,
        max_reductions=UNLIMITED, max_weights=UNLIMITED, max_weight_dims=UNLIMITED,
    )


def _reference_children(graph: PGraph, options, stats: SynthesisStats) -> list:
    """Check every candidate with ``allows``, build it with ``apply``, then drop repeated signatures."""
    built = []
    for primitive, operands in _candidate_applications(graph, _unlimited(options)):
        if not options.allows(graph, primitive, operands, stats=stats):
            continue
        try:
            child = primitive.apply(graph, operands)
        except PrimitiveError:
            continue
        built.append(_rebuilt(graph, child.last_application))
    children, seen = [], set()
    for child in built:
        if child.signature() not in seen:
            seen.add(child.signature())
            children.append(child)
    return children


def _uids(dims) -> tuple[int, ...]:
    return tuple(dim.uid for dim in dims)


def _describe(children) -> list[tuple]:
    """Each child's application (primitive, dim uids, weight index) and resulting graph."""
    return [
        (
            child.last_application.primitive,
            _uids(child.last_application.consumed),
            _uids(child.last_application.produced),
            _uids(child.last_application.matched),
            _uids(child.last_application.weight_dims),
            child.last_application.weight_index,
            child.signature(),
            child.weight_signature(),
            _uids(child.frontier),
            tuple(_uids(weight.dims) for weight in child.weights),
        )
        for child in children
    ]


def _assert_children_exact(graphs, options, monkeypatch) -> None:
    # Far past every uid the graphs hold, so minted dims cannot collide.
    base = 10**6 + max(dim.uid for graph in graphs for dim in graph.frontier + graph.output_dims)
    for graph in graphs:
        # Both runs mint dims from the same uid, so equal uids mean the
        # applications were made in the same order.
        monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
        stats = SynthesisStats()
        children = enumerate_children(graph, options, stats=stats)
        monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
        reference_stats = SynthesisStats()
        reference = _reference_children(graph, options, reference_stats)
        assert _describe(children) == _describe(reference)
        assert stats == reference_stats


class TestChildren:
    def test_build_graphs_match_apply_then_dedup(self, build_graphs, monkeypatch):
        options = space_for("resnet", max_depth=3).options
        _assert_children_exact(build_graphs, options, monkeypatch)

    def test_bfs_graphs_match_apply_then_dedup(self, bfs_graphs, monkeypatch):
        for family, graphs in bfs_graphs.items():
            # The depth-2 leaves are covered through the build graphs.
            inner = [graph for graph in graphs if graph.depth < 2] + graphs[-25:]
            _assert_children_exact(inner, space_for(family).options, monkeypatch)


# ---------------------------------------------------------------------------
# The prune on the application
# ---------------------------------------------------------------------------


def _assert_pruned_children_exact(graphs, options, monkeypatch) -> None:
    """``steps=k`` keeps exactly the unpruned children ``within_reach(child, k)`` keeps.

    The statistics are the accounting the library builder did after an
    unpruned call: children generated, pruned by distance, a dead end when
    every child is pruned, and the same per-rule rejections.
    """
    base = 10**6 + max(dim.uid for graph in graphs for dim in graph.frontier + graph.output_dims)
    for graph in graphs:
        monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
        unpruned_stats = SynthesisStats()
        unpruned = enumerate_children(graph, options, stats=unpruned_stats)
        for steps in range(-1, 4):
            kept = [child for child in unpruned if within_reach(child, steps)]
            expected = SynthesisStats(
                children_generated=len(unpruned),
                pruned_by_distance=len(unpruned) - len(kept),
                dead_ends_by_distance=int(bool(unpruned) and not kept),
                canonicalization_rejections=dict(unpruned_stats.canonicalization_rejections),
            )
            monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
            stats = SynthesisStats()
            children = enumerate_children(graph, options, stats=stats, steps=steps)
            assert _describe(children) == _describe(kept), (graph.signature(), steps)
            assert stats == expected, (graph.signature(), steps)


#: Each graph is enumerated six times, so the larger graph sets are checked
#: in strided parts, one test each.
BUILD_PARTS, RESNET_BFS_PARTS = 4, 10


class TestPruneOnTheApplication:
    @pytest.mark.parametrize("part", range(BUILD_PARTS))
    def test_build_graphs(self, build_graphs, part, monkeypatch):
        options = space_for("resnet", max_depth=3).options
        _assert_pruned_children_exact(build_graphs[part::BUILD_PARTS], options, monkeypatch)

    @pytest.mark.parametrize("part", range(RESNET_BFS_PARTS))
    def test_resnet_bfs_graphs(self, bfs_graphs, part, monkeypatch):
        graphs = bfs_graphs["resnet"][part::RESNET_BFS_PARTS]
        _assert_pruned_children_exact(graphs, space_for("resnet").options, monkeypatch)

    def test_gpt2_bfs_graphs(self, bfs_graphs, monkeypatch):
        _assert_pruned_children_exact(bfs_graphs["gpt2"], space_for("gpt2").options, monkeypatch)

    def test_steps_without_shape_distance_only_count(self, bfs_graphs, monkeypatch):
        graphs = bfs_graphs["gpt2"]
        options = dataclasses.replace(space_for("gpt2").options, use_shape_distance=False)
        base = 10**6 + max(dim.uid for graph in graphs for dim in graph.frontier + graph.output_dims)
        for graph in graphs:
            monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
            unpruned = enumerate_children(graph, options)
            monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count(base))
            stats = SynthesisStats()
            children = enumerate_children(graph, options, stats=stats, steps=-1)
            assert _describe(children) == _describe(unpruned)
            assert (stats.children_generated, stats.pruned_by_distance) == (len(unpruned), 0)
            assert stats.dead_ends_by_distance == 0


# ---------------------------------------------------------------------------
# Sibling keys
# ---------------------------------------------------------------------------


def _assert_keys_match_signatures(graph: PGraph, applications) -> int:
    """Equal sibling keys exactly when the children's signatures are equal."""
    pairs = {(sibling_key(app), graph.extend(app).signature()) for app in applications}
    assert len(pairs) == len({key for key, _ in pairs}) == len({sig for _, sig in pairs})
    return len(pairs)


def _applications(graph: PGraph, options) -> list:
    """Every candidate application of ``graph``, canonical or not, limits lifted."""
    applications = []
    for primitive, operands in _candidate_applications(graph, _unlimited(options)):
        try:
            applications.append(primitive.application(graph, operands))
        except PrimitiveError:
            continue
    return applications


class TestSiblingKeys:
    def test_build_graphs(self, build_graphs):
        options = space_for("resnet", max_depth=3).options
        for graph in build_graphs:
            _assert_keys_match_signatures(graph, _applications(graph, options))

    @pytest.mark.parametrize("family, part, parts", [("resnet", 0, 2), ("resnet", 1, 2), ("gpt2", 0, 1)])
    def test_bfs_graphs(self, bfs_graphs, family, part, parts):
        options = space_for(family).options
        for graph in bfs_graphs[family][part::parts]:
            _assert_keys_match_signatures(graph, _applications(graph, options))

    def test_every_field_of_the_key_reaches_the_signature(self):
        # Applications built by hand, each differing from the first in one
        # field, including a Share whose matched dims are not its consumed
        # ones, which enumeration never builds.
        space = space_for("gpt2")
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        graph = Share().apply(root, root.frontier[-1:])
        first, second = graph.frontier[:2]

        def share(consumed=(first,), matched=(first,), produced=(), weight_index=0, **kind):
            weight = Dim(size=second.size, role=DimRole.WEIGHT, identified_with=second)
            return Application(
                primitive=Share(**kind), consumed=consumed, produced=produced,
                weight_dims=(weight,), matched=matched, weight_index=weight_index,
            )

        fresh = Dim(size=first.size, role=DimRole.INTERMEDIATE)
        applications = [
            share(),
            share(new_weight=False),
            share(consumed=(second,), matched=(first,)),
            share(produced=(fresh,)),
            share(matched=()),
            share(weight_index=1),
        ]
        assert _assert_keys_match_signatures(graph, applications) == len(applications)
        # Neither the shared dim (the weight's identity) nor a produced dim's
        # uid reaches the signature.
        same = [
            share(),
            share(produced=()),
            dataclasses.replace(
                share(),
                weight_dims=(Dim(size=first.size, role=DimRole.WEIGHT, identified_with=first),),
            ),
        ]
        assert _assert_keys_match_signatures(graph, same) == 1
        other = Dim(size=first.size, role=DimRole.INTERMEDIATE)
        twins = [share(produced=(fresh,)), share(produced=(other,))]
        assert _assert_keys_match_signatures(graph, twins) == 1
