"""Tests for the ahead-of-time graph library (:mod:`repro.library`).

Covers the determinism contract (serial == sharded == crash-resumed builds,
bit for bit), the on-disk artifact/sidecar format, the structural embeddings,
signature invariances the dedup relies on, warm-started search, the runtime
knobs, and the `repro library` / `repro list --json` CLI surface.
"""

from __future__ import annotations

import collections
import dataclasses
import errno
import itertools
import json
import math
import os
import pickle
import random
import signal
import sys
import types

import pytest

from repro.cli.main import main
from repro.core.canonicalize import canonical_commuting_order
from repro.core import enumeration as enumeration_module
from repro.core import pgraph as pgraph_module
from repro.core.enumeration import (
    SynthesisStats,
    children_key,
    enumerate_children,
    legal_children,
    space_key,
)
from repro.core.library import K, M, OUT_FEATURES, matmul_spec
from repro.core.mcts import MCTS, MCTSConfig
from repro.core.pgraph import PGraph, highest_uid, reserve_dim_uids
from repro.core.primitives import Expand, Merge, Reduce, Share, Shift, Split, Stride, Unfold
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.ir.shape import ShapeSpec
from repro.ir.size import Size, SizeError
from repro.ir.variables import primary
from repro.library import builder as builder_module
from repro.library.builder import build_library
from repro.library.embeddings import (
    FEATURE_NAMES,
    SizeTable,
    distance,
    feature_vector,
    graph_costs,
    nearest_neighbours,
    output_element_count,
)
from repro.library.specs import design_spaces, space_for
from repro.library import store as store_module
from repro.library.store import (
    GraphLibrary,
    LibraryEntry,
    checkpoint_filename,
    library_filename,
    options_fingerprint,
    spec_key,
)
from repro.library.warmstart import (
    export_rewards,
    find_library_name,
    plan_warm_start,
    reward_sidecar,
)
from repro.nn.models.resnet import resnet18
from repro.runtime import RuntimeConfig, RuntimeContext, current
from repro.search import parallel as parallel_module
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

    def test_build_under_a_partial_budget_binding_completes(self, tmp_path):
        # Without a budget binding no MACs or parameter count can be
        # evaluated: each reads 0, in the entries and in the features.
        space = _gpt2_space()
        options = dataclasses.replace(space.options, budget_binding=None)
        result = build_library(
            space.spec, options, name=space.name, runtime=_runtime(tmp_path), shards=1
        )
        entries = result.library.entries()
        assert len(entries) == result.entries > 1 and result.complete > 0
        assert all(entry.macs == entry.params == 0 for entry in entries)
        assert all(math.isfinite(value) for entry in entries for value in entry.features)

    def test_each_entry_is_encoded_once_per_build(self, tmp_path, monkeypatch):
        encoded: list[str] = []
        encode = store_module._encode_entry

        def counting_encode(entry):
            encoded.append(entry.signature)
            return encode(entry)

        monkeypatch.setattr(store_module, "_encode_entry", counting_encode)
        result = _build_gpt2(_runtime(tmp_path), shards=1)
        # Complete entries are encoded again once they carry neighbours.
        assert len(encoded) == result.entries + result.complete

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

    def test_an_artifact_with_another_neighbour_count_is_rebuilt(self, tmp_path):
        runtime = _runtime(tmp_path)
        first = _build_gpt2(runtime)
        assert max(len(entry.neighbours) for entry in first.library) == 8
        fewer = _build_gpt2(runtime, neighbours=2)
        assert not fewer.reused
        assert all(len(entry.neighbours) <= 2 for entry in fewer.library)
        assert GraphLibrary.load(fewer.path).meta["neighbour_count"] == 2
        again = _build_gpt2(runtime, neighbours=2)
        assert again.reused
        assert again.content_hash == fewer.content_hash

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

    @pytest.mark.parametrize("missing", ["attribute", "module"])
    def test_a_checkpoint_naming_missing_code_is_ignored(
        self, tmp_path, monkeypatch, caplog, missing
    ):
        """A CRC-intact checkpoint whose pickle names code this build lacks.

        Older code leaves such checkpoints behind (one pickling a class that
        was deleted since, say): unpickling raises ``AttributeError`` or
        ``ModuleNotFoundError``, and the build ignores the checkpoint with a
        warning and starts from the root.
        """
        runtime = _runtime(tmp_path)
        space = _gpt2_space()
        gone = type("Action", (), {})
        if missing == "attribute":
            gone.__module__ = enumeration_module.__name__
            monkeypatch.setattr(enumeration_module, "Action", gone, raising=False)
        else:
            module = types.ModuleType("repro.core.no_such_module")
            gone.__module__ = module.__name__
            module.Action = gone
            monkeypatch.setitem(sys.modules, module.__name__, module)
        checkpoint = os.path.join(runtime.library_path(), checkpoint_filename("gpt2"))
        builder_module._save_checkpoint(
            checkpoint, "gpt2", spec_key(space.spec), options_fingerprint(space.options),
            2, [], [gone()], SynthesisStats(),
        )
        monkeypatch.undo()
        with caplog.at_level("WARNING", logger=builder_module.__name__):
            result = _build_gpt2(runtime)
        assert "ignoring undecodable checkpoint" in caplog.text
        assert result.resumed_from_level == 0
        assert result.content_hash == TestSharedChildrenMemo.GPT2_DEPTH3_HASH
        assert result.stats.to_dict() == TestSharedChildrenMemo.GPT2_DEPTH3_STATS
        assert not os.path.exists(checkpoint)


# ---------------------------------------------------------------------------
# Artifact and sidecar format
# ---------------------------------------------------------------------------


def _reference_payload(entry: LibraryEntry) -> bytes:
    """An entry's payload as the reference encoder writes it (the format's definition)."""
    return json.dumps(
        {
            "signature": entry.signature,
            "depth": entry.depth,
            "complete": entry.complete,
            "parent_signature": entry.parent_signature,
            "primitive": entry.primitive,
            "macs": entry.macs,
            "params": entry.params,
            "features": list(entry.features),
            "neighbours": list(entry.neighbours),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


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

    @pytest.mark.parametrize("family, max_depth", [("resnet", 3), ("gpt2", 4)])
    def test_entry_frames_are_the_reference_json(self, tmp_path, family, max_depth):
        """Every entry frame of a built artifact is ``json.dumps`` of its fields."""
        space = space_for(family, max_depth=max_depth)
        built = build_library(
            space.spec, space.options, name=family, runtime=_runtime(tmp_path), shards=1
        )
        entries = built.library.entries()
        assert len(entries) == built.entries > 300
        assert any(entry.neighbours for entry in entries)
        for entry in entries:
            assert entry.to_payload() == _reference_payload(entry)
            assert LibraryEntry.from_payload(entry.to_payload()) == entry
        frames = store_module.read_frames(built.path)[1:]
        assert frames == [entry.to_payload() for entry in entries]

    def test_adversarial_entries_encode_as_the_reference(self):
        """The fixed-layout encoder writes what ``json.dumps`` writes, whatever the values.

        Each field is drawn from values that take every path of the encoder:
        signed zeros, NaN and the infinities, subnormals, ints and bools
        among the features, strings with quotes, backslashes, control and
        non-ASCII characters, ``None`` edges and 0 to 8 neighbours.
        """
        rng = random.Random(20261020)
        floats = [
            0.0, -0.0, 1.0, -2.5, 0.1, 1e-320, 5e-324, 1e16, 1.7976931348623157e308,
            math.pi, float("nan"), float("inf"), float("-inf"),
        ]
        features = floats + [0, 7, -3, 10**20, True, False]
        characters = 'ab;:,{}[]e0 "\\/\x00\x01\x1f\x7f\u00e9\u2028\u4e2d\U0001f600\ud800\t\n'

        def text():
            return "".join(rng.choice(characters) for _ in range(rng.randrange(0, 12)))

        def maybe_text():
            return None if rng.random() < 0.25 else text()

        fixed = [
            LibraryEntry("", 0, False, None, None, 0, 0, ()),
            LibraryEntry("e0", 3, True, "p", "Share(+)", 2**70, 1, (-0.0,) * 17, ("x",) * 8),
            LibraryEntry('"\\\x00\u00e9', 1, True, "\u2028", "\n", 1, 2, (float("nan"), 1e-320)),
        ]
        drawn = [
            LibraryEntry(
                signature=text(),
                depth=rng.randrange(0, 9),
                complete=rng.random() < 0.5,
                parent_signature=maybe_text(),
                primitive=maybe_text(),
                macs=rng.randrange(0, 2**64),
                params=rng.randrange(0, 2**40),
                features=tuple(rng.choice(features) for _ in range(rng.randrange(0, 18))),
                neighbours=tuple(text() for _ in range(rng.randrange(0, 9))),
            )
            for _ in range(2000)
        ]
        for entry in fixed + drawn:
            payload = entry.to_payload()
            assert payload == _reference_payload(entry), entry
            decoded = LibraryEntry.from_payload(payload)
            if all(type(value) is float for value in entry.features):
                # Features decode as floats, and NaN is unequal to itself.
                assert decoded.to_payload() == payload
                if not any(math.isnan(value) for value in entry.features):
                    assert decoded == entry
        assert {len(entry.neighbours) for entry in drawn} == set(range(9))

    def test_spec_key_and_options_fingerprint_sensitivity(self):
        deep = _gpt2_space(max_depth=3)
        deeper = space_for("gpt2", max_depth=4)
        assert spec_key(deep.spec) == spec_key(deeper.spec)
        assert options_fingerprint(deep.options) != options_fingerprint(deeper.options)
        other = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        assert spec_key(other) != spec_key(deep.spec)

    def test_sidecar_round_trip_is_idempotent_and_context_scoped(self, tmp_path):
        runtime = _runtime(tmp_path)
        context, other = ("ctx", 1), ("ctx", 2)

        def export(rewards, cache_context=context):
            with runtime.activate():
                return export_rewards(rewards, name="test", cache_context=cache_context)

        assert export({"sig-a": 0.25, "sig-b": 0.75}) == 2
        assert export({"sig-a": 0.25, "sig-b": 0.75}) == 0
        assert export({"sig-b": 0.5, "sig-c": 0.5}) == 1  # stored sig-b wins
        assert export({"sig-a": 0.125}, cache_context=other) == 1
        with runtime.activate():
            entries, status = reward_sidecar("test").load()
        assert status.status == "loaded"
        assert entries == {
            "reward": {
                (context, "sig-a"): 0.25,
                (context, "sig-b"): 0.75,
                (context, "sig-c"): 0.5,
                (other, "sig-a"): 0.125,
            }
        }

    def test_a_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / checkpoint_filename("x"))
        store_module.write_frames_atomic(path, [b"before"])

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "fsync", full_disk)
            with pytest.raises(OSError) as raised:
                store_module.write_frames_atomic(path, [b"after"])
        assert raised.value.errno == errno.ENOSPC
        assert not list(tmp_path.glob("*.tmp.*"))
        assert store_module.read_frames(path) == [b"before"]
        store_module.write_frames_atomic(path, [b"after"])
        assert store_module.read_frames(path) == [b"after"]
        assert os.listdir(tmp_path) == [checkpoint_filename("x")]


# ---------------------------------------------------------------------------
# Structural embeddings
# ---------------------------------------------------------------------------


#: the primitive types ``FEATURE_NAMES`` counts, in feature order.
COUNTED_PRIMITIVES = (Reduce, Share, Merge, Split, Shift, Expand, Stride, Unfold)


def _reference_embedding(graph: PGraph, binding, output_elements: int, notes) -> tuple:
    """``(graph_costs, feature_vector)`` of ``graph`` from the graph's own formulas.

    A symbolic MACs or parameter count reads 0 and a symbolic reduction
    extent is skipped; ``notes`` counts each symbolic branch taken.
    """
    try:
        macs = graph.macs(binding)
    except SizeError:
        macs = 0
        if output_elements:
            notes["symbolic reduction in the MACs"] += 1
    try:
        params = graph.parameter_count(binding)
    except SizeError:
        params = 0
        notes["symbolic parameter count"] += 1
    extent = 1
    for dim in graph.reduction_dims:
        try:
            extent *= dim.size.evaluate(binding)
        except SizeError:
            notes["skipped reduction extent"] += 1
    features = (
        float(graph.depth),
        *(float(graph.count_primitive(kind)) for kind in COUNTED_PRIMITIVES),
        float(len(graph.weights)),
        float(sum(len(weight.dims) for weight in graph.weights)),
        float(len(graph.reduction_dims)),
        math.log1p(float(extent)),
        float(len(graph.frontier)),
        math.log1p(float(macs)),
        math.log1p(float(params)),
    )
    return (macs, params), features


class TestEmbeddings:
    def test_feature_vector_matches_the_declared_names(self):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        features = feature_vector(root, space.binding)
        assert len(features) == len(FEATURE_NAMES)
        assert all(isinstance(value, float) for value in features)

    def test_symbolic_costs_count_as_zero(self):
        # The warm-start planner embeds the root the same way.
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        costs = dict(zip(FEATURE_NAMES, feature_vector(root, {})))
        assert costs["log_macs"] == costs["log_params"] == 0.0
        bound = dict(zip(FEATURE_NAMES, feature_vector(root, space.binding)))
        assert bound["log_macs"] > 0.0

    @pytest.mark.parametrize(
        "family, max_depth, children_built, unbound",
        [("resnet", 3, 901, "C_in"), ("gpt2", 4, 328, "K")],
    )
    def test_one_walk_equals_the_graph_formulas(
        self, tmp_path, family, max_depth, children_built, unbound
    ):
        """Each child a build leaves in the memo costs and embeds as its own formulas say.

        Under the family's binding, under ``{}`` (a symbolic output count)
        and under one that leaves a reduced size unbound (a concrete output
        count and a symbolic reduction extent).
        """
        space = space_for(family, max_depth=max_depth)
        runtime = _runtime(tmp_path)
        build_library(space.spec, space.options, name=family, runtime=runtime, shards=1)
        entries = runtime.caches.children.export_entries()
        key = space_key(space.spec, space.options)
        children = [child for built, _ in entries.values() for child in built]
        assert len(children) == children_built
        # Embedding derives no rule state: the children nothing enumerated
        # have none.
        leaves = [child for child in children if children_key(child, key) not in entries]
        assert leaves and not any("_rule_state" in leaf.__dict__ for leaf in leaves)

        assert FEATURE_NAMES[1:1 + len(COUNTED_PRIMITIVES)] == tuple(
            f"count_{kind.__name__.lower()}" for kind in COUNTED_PRIMITIVES
        )
        partial = {var: value for var, value in space.binding.items() if var.name != unbound}
        assert len(partial) == len(space.binding) - 1
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        notes: collections.Counter = collections.Counter()
        for binding in (space.binding, {}, partial):
            try:
                output_elements = root.output_shape.numel(binding)
            except SizeError:
                output_elements = 0
                notes["symbolic output count"] += 1
            assert output_element_count(root, binding) == output_elements
            for child in children:
                costs, features = _reference_embedding(child, binding, output_elements, notes)
                assert graph_costs(child, binding, output_elements) == costs
                assert feature_vector(child, binding) == features
        assert notes["symbolic output count"] == 1
        assert notes["symbolic reduction in the MACs"] > 0
        assert notes["skipped reduction extent"] > 0
        assert notes["symbolic parameter count"] > 0

    @pytest.mark.parametrize("family, max_depth, unbound", [("resnet", 3, "C_in"), ("gpt2", 4, "K")])
    def test_a_shared_size_table_equals_the_graph_formulas(
        self, tmp_path, monkeypatch, family, max_depth, unbound
    ):
        """One table per binding, shared by every child, gives the graphs' own values.

        It evaluates each size object once, and refuses a call under another
        binding.
        """
        space = space_for(family, max_depth=max_depth)
        runtime = _runtime(tmp_path)
        build_library(space.spec, space.options, name=family, runtime=runtime, shards=1)
        children = [
            child
            for built, _ in runtime.caches.children.export_entries().values()
            for child in built
        ]
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        partial = {var: value for var, value in space.binding.items() if var.name != unbound}
        evaluated: list[Size] = []
        evaluate = Size.evaluate

        def counting(size, bindings=None):
            evaluated.append(size)
            return evaluate(size, bindings)

        notes: collections.Counter = collections.Counter()
        for binding in (space.binding, {}, partial):
            output_elements = output_element_count(root, binding)
            expected = [
                _reference_embedding(child, binding, output_elements, notes)
                for child in children
            ]
            sizes = SizeTable(binding)
            evaluated.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Size, "evaluate", counting)
                for child, (costs, features) in zip(children, expected):
                    assert graph_costs(child, binding, output_elements, sizes) == costs
                    assert feature_vector(child, costs=costs, sizes=sizes) == features
            assert evaluated and len(evaluated) == len(set(evaluated))
            for child, (_, features) in zip(children, expected):
                assert feature_vector(child, sizes=sizes) == features
            assert feature_vector(root, dict(binding), sizes=sizes) == feature_vector(root, binding)
            other = {} if binding else space.binding
            with pytest.raises(ValueError, match="another binding"):
                graph_costs(children[0], other, output_elements, sizes)
            with pytest.raises(ValueError, match="another binding"):
                feature_vector(children[0], other, sizes=sizes)
        assert notes["skipped reduction extent"] > 0
        assert notes["symbolic parameter count"] > 0

    def test_a_size_table_evaluates_each_size_value_once(self, monkeypatch):
        evaluated: list[Size] = []
        evaluate = Size.evaluate

        def counting(size, bindings=None):
            evaluated.append(size)
            return evaluate(size, bindings)

        monkeypatch.setattr(Size, "evaluate", counting)
        size = Size.of(A) * Size.of(2)
        # An equal, distinct copy, as a shard worker's children carry.
        copy = pickle.loads(pickle.dumps(size))
        # Equal too (variables compare by name and kind), but unbound it
        # evaluates to another default.
        other_default = Size.of(primary("A", default=3)) * Size.of(2)
        assert copy == size and copy is not size and other_default == size
        sizes = SizeTable()
        assert [sizes.value(size), sizes.value(copy), sizes.value(size)] == [16, 16, 16]
        assert evaluated == [size]
        assert sizes.value(other_default) == 6
        assert sizes.value(Size.of(primary("Z"))) is None
        assert len(evaluated) == 3
        bound = SizeTable({A: 5})
        assert bound.value(copy) == bound.value(other_default) == 10

    def test_primitive_counts_include_subclasses(self):
        @dataclasses.dataclass(frozen=True)
        class Sum(Reduce):
            pass

        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        child = next(
            child for child in enumerate_children(root, space.options)
            if type(child.last_application.primitive) is Reduce
        )
        last = child.last_application
        renamed = dataclasses.replace(last, primitive=Sum(size=last.primitive.size))
        graph = dataclasses.replace(child, applications=child.applications[:-1] + (renamed,))
        features = dict(zip(FEATURE_NAMES, feature_vector(graph, space.binding)))
        assert features["count_reduce"] == graph.count_primitive(Reduce) == 1
        assert features["reduction_dims"] == 1.0

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
        signatures = [graph.signature() for graph in children]
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
        for child in enumerate_children(root, space.options):
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

    #: The serial resnet build at depth 3, the depth the enumerate-conv
    #: benchmark builds, pinned before the last-level completeness test and
    #: the signatures extended from the parent.  Unlike depth 2 it has a
    #: level from depth 2 to depth 3, where no steps remain and most children
    #: are generated, and six rules fire instead of four.
    RESNET_DEPTH3_HASH = "9c60fceabe2e9fa90ba2794b4d8e152243b40482b5d60c9a16348fe9d267aab5"
    RESNET_DEPTH3_STATS = {
        "nodes_visited": 886,
        "children_generated": 18_306,
        "pruned_by_distance": 17_405,
        "completed": 16,
        "rejected_by_budget": 0,
        "canonicalization_rejections": {
            "canonical_commuting_order": 23_480,
            "no_expand_of_reduction": 204,
            "no_merge_above_split": 762,
            "no_merge_above_unfold": 180,
            "no_shift_chains": 133,
            "no_split_undoing_merge": 42,
        },
        "dead_ends_by_distance": 807,
    }

    def test_depth3_build_is_pinned(self, tmp_path):
        space = space_for("resnet", max_depth=3)
        result = build_library(
            space.spec, space.options, name=space.name,
            runtime=_runtime(tmp_path), shards=1,
        )
        assert result.entries == 902
        assert result.content_hash == self.RESNET_DEPTH3_HASH
        assert result.stats.to_dict() == self.RESNET_DEPTH3_STATS

    #: The serial gpt2 build at depth 4: the space the search explores at full
    #: budget, and the only pinned build where the prune runs at every steps
    #: count from 0 to 3.
    GPT2_DEPTH4_HASH = "fa411a1cd5e2c6fb13f0195fc325e66c5ec20a23ab69862329f91de81eb0489d"
    GPT2_DEPTH4_STATS = {
        "nodes_visited": 305,
        "children_generated": 1_359,
        "pruned_by_distance": 1_031,
        "completed": 20,
        "rejected_by_budget": 4,
        "canonicalization_rejections": {
            "canonical_commuting_order": 1_155,
            "no_expand_of_reduction": 74,
            "no_shift_chains": 81,
        },
        "dead_ends_by_distance": 224,
    }

    def test_gpt2_depth4_build_is_pinned(self, tmp_path):
        space = _gpt2_space(max_depth=4)
        result = build_library(
            space.spec, space.options, name=space.name,
            runtime=_runtime(tmp_path), shards=1,
        )
        assert (result.entries, result.complete) == (329, 20)
        assert result.content_hash == self.GPT2_DEPTH4_HASH
        assert result.stats.to_dict() == self.GPT2_DEPTH4_STATS

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
# Builds expand through the context's legal-children memo
# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _count_fanouts(monkeypatch) -> list[int]:
    """Spy on the supervised shard executor: the items of each fan-out."""
    fanouts: list[int] = []
    supervise = parallel_module._supervise_shards

    def spy(fn, partitions, runtime, workers):
        fanouts.append(sum(map(len, partitions)))
        return supervise(fn, partitions, runtime, workers)

    monkeypatch.setattr(parallel_module, "_supervise_shards", spy)
    return fanouts


def _count_checkpoints(monkeypatch) -> list[int]:
    """Spy on the builder's checkpoint writes: the level of each."""
    levels: list[int] = []
    save = builder_module._save_checkpoint

    def spy(path, name, key, fingerprint, level, *state):
        levels.append(level)
        return save(path, name, key, fingerprint, level, *state)

    monkeypatch.setattr(builder_module, "_save_checkpoint", spy)
    return levels


class TestSharedChildrenMemo:
    #: content hashes of the four depth-3 conv families (perfbench's
    #: enumerate-conv golden values); they share one enumeration space.
    CONV_HASHES = {
        "resnet": TestSynthesisStats.RESNET_DEPTH3_HASH,
        "resnext": "24580aa0c826dc389ef39ad17b3aa5a07fac1f6b51e11e2a924c67f80c6c2e98",
        "densenet": "cd1ca04ce5ea7bd7c06d2dbb198cf70e07d5c50e78df147af65fcfac62c6dc91",
        "efficientnet": "5afe7851e2d1fe213b45f52dafda0a29730e92988bf9a1964280274c967ab8ec",
    }

    #: the gpt2 depth-3 build, the space ``_toy_search`` explores.
    GPT2_DEPTH3_HASH = "7d367d9724b689aa0daa5ef75f9625d74b8035b2979dfdf534822f6c258354e5"
    GPT2_DEPTH3_STATS = {
        "nodes_visited": 65,
        "children_generated": 317,
        "pruned_by_distance": 244,
        "completed": 9,
        "rejected_by_budget": 0,
        "canonicalization_rejections": {
            "canonical_commuting_order": 230,
            "no_expand_of_reduction": 15,
            "no_shift_chains": 16,
        },
        "dead_ends_by_distance": 46,
    }

    @staticmethod
    def _build(runtime: RuntimeContext, family: str, shards: int):
        space = space_for(family, max_depth=3)
        return build_library(
            space.spec, space.options, name=family, runtime=runtime,
            shards=shards, force=True,
        )

    def test_warm_builds_equal_cold_builds(self, tmp_path):
        serial = _runtime(tmp_path / "serial")
        cold = {("resnet", 1): self._build(serial, "resnet", 1)}
        warm = _runtime(tmp_path / "warm")
        memo = warm.caches.children
        builds = [
            ("resnet", 2), ("resnext", 2), ("densenet", 2), ("efficientnet", 2), ("resnet", 1),
        ]
        for index, (family, shards) in enumerate(builds):
            before = memo.stats.snapshot()
            result = self._build(warm, family, shards)
            after = memo.stats.snapshot()
            assert result.content_hash == self.CONV_HASHES[family]
            assert result.stats.to_dict() == TestSynthesisStats.RESNET_DEPTH3_STATS
            if (family, shards) not in cold:
                cold[family, shards] = self._build(_runtime(tmp_path / family), family, shards)
            assert _read(result.path) == _read(cold[family, shards].path)
            if index == 0:
                assert after.misses - before.misses == len(memo) == 886
                assert memo.key_snapshot() == serial.caches.children.key_snapshot()
            else:
                # Every expansion hits, in this process: nothing is forked.
                assert after.misses == before.misses
                assert after.hits - before.hits == 886
        assert len(memo) == 886

    def test_a_warm_build_forks_nothing(self, tmp_path, monkeypatch):
        runtime = _runtime(tmp_path)
        fanouts = _count_fanouts(monkeypatch)
        self._build(runtime, "resnet", 2)
        # The root level is one graph and runs in process; levels 1 and 2 fork.
        assert fanouts == [56, 829]
        # Each worker's unprobed children delta crossed the pipe.
        assert runtime.shard_failures == []

        def fork(*args, **kwargs):
            raise AssertionError("a build over a warm memo forked shard workers")

        monkeypatch.setattr(parallel_module, "_supervise_shards", fork)
        for family in ("resnext", "efficientnet"):
            result = self._build(runtime, family, 2)
            assert result.content_hash == self.CONV_HASHES[family]
            assert result.stats.to_dict() == TestSynthesisStats.RESNET_DEPTH3_STATS

    def test_only_a_level_that_enumerates_writes_a_checkpoint(self, tmp_path, monkeypatch):
        runtime = _runtime(tmp_path)
        checkpoints = _count_checkpoints(monkeypatch)
        self._build(runtime, "resnet", 2)
        assert checkpoints == [1, 2, 3]
        for family in ("resnext", "efficientnet"):
            checkpoints.clear()
            result = self._build(runtime, family, 2)
            assert checkpoints == []
            assert result.content_hash == self.CONV_HASHES[family]
            assert result.stats.to_dict() == TestSynthesisStats.RESNET_DEPTH3_STATS
        assert not [
            name for name in os.listdir(runtime.library_path()) if name.endswith(".ckpt")
        ]

    @staticmethod
    def _seeded_gpt2_build(runtime: RuntimeContext, **kwargs):
        """The gpt2 depth-3 build, after its root's children went into the memo."""
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        with runtime.activate():
            legal_children(root, space.options, space_key(space.spec, space.options))
        return _build_gpt2(runtime, **kwargs)

    def test_a_level_the_memo_serves_writes_no_checkpoint(self, tmp_path, monkeypatch):
        checkpoints = _count_checkpoints(monkeypatch)
        result = self._seeded_gpt2_build(_runtime(tmp_path), shards=2)
        assert checkpoints == [2, 3]
        assert result.content_hash == self.GPT2_DEPTH3_HASH
        assert result.stats.to_dict() == self.GPT2_DEPTH3_STATS

    @pytest.mark.parametrize("killed_at, resumed_from", [(1, 0), (2, 2)])
    def test_a_killed_build_resumes_from_its_last_checkpoint(
        self, tmp_path, killed_at, resumed_from
    ):
        """A killed warm level leaves nothing to resume; a killed cold one does.

        SIGKILLed after level 1, which the memo served, the seeded build
        leaves no checkpoint and restarts from the root; after level 2,
        which enumerated, it resumes there.  Either way the memo died with
        it, so the fresh context enumerates what is left cold.
        """
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os.close(read_fd)

            def kill(level: int) -> None:
                if level == killed_at:
                    os.write(write_fd, b"k")
                    os.kill(os.getpid(), signal.SIGKILL)

            try:
                self._seeded_gpt2_build(_runtime(tmp_path), shards=1, on_level=kill)
            finally:
                os._exit(1)  # unreachable when the kill fires

        os.close(write_fd)
        assert os.read(read_fd, 1) == b"k"
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

        runtime = _runtime(tmp_path)
        checkpoint = os.path.join(runtime.library_path(), checkpoint_filename("gpt2"))
        assert os.path.exists(checkpoint) == (resumed_from > 0)
        resumed = _build_gpt2(runtime, shards=2)
        assert resumed.resumed_from_level == resumed_from
        assert resumed.content_hash == self.GPT2_DEPTH3_HASH
        assert resumed.stats.to_dict() == self.GPT2_DEPTH3_STATS
        assert not os.path.exists(checkpoint)

    def test_a_build_with_the_caches_off_uses_the_workers_children(
        self, tmp_path, monkeypatch
    ):
        runtime = _runtime(tmp_path, eval_cache=False)
        fanouts = _count_fanouts(monkeypatch)
        enumerated: list[PGraph] = []  # forked workers append to their own copy
        enumerate_ = enumeration_module.enumerate_children

        def counting(graph, *args, **kwargs):
            enumerated.append(graph)
            return enumerate_(graph, *args, **kwargs)

        monkeypatch.setattr(enumeration_module, "enumerate_children", counting)
        result = self._build(runtime, "resnet", 2)
        assert result.content_hash == self.CONV_HASHES["resnet"]
        assert result.stats.to_dict() == TestSynthesisStats.RESNET_DEPTH3_STATS
        assert fanouts == [56, 829]
        # Only the root level ran here: the builder takes the other 885
        # graphs' children from what the workers returned.
        assert [graph.depth for graph in enumerated] == [0]
        assert len(runtime.caches.children) == 0

    def test_a_partly_warm_memo_fans_out_only_its_misses(self, tmp_path, monkeypatch):
        runtime = _runtime(tmp_path)
        with runtime.activate():
            _toy_search(lambda op: 0.5).run()
        memo = runtime.caches.children
        assert len(memo) > 0
        space = _gpt2_space()
        key = space_key(space.spec, space.options)
        handed: list[list[bool]] = []  # per level: is each handed graph cached?
        sharded_map = builder_module.sharded_map

        def spy(fn, items, shards=None, max_workers=None):
            handed.append([children_key(graph, key) in memo for graph in items])
            return sharded_map(fn, items, shards=shards, max_workers=max_workers)

        monkeypatch.setattr(builder_module, "sharded_map", spy)
        result = _build_gpt2(runtime, shards=2)
        assert result.content_hash == self.GPT2_DEPTH3_HASH
        assert result.stats.to_dict() == self.GPT2_DEPTH3_STATS
        assert not any(itertools.chain.from_iterable(handed))
        # The search expanded the root, so the root level hands over nothing,
        # while graphs it never expanded still fan out.
        assert handed[0] == []
        assert 0 < sum(map(len, handed)) < result.stats.nodes_visited

    def test_entries_hold_the_child_graphs_of_the_graph_they_are_keyed_under(self, tmp_path):
        runtime = _runtime(tmp_path)
        with runtime.activate():
            _toy_search(lambda op: 0.5).run()
        self._build(runtime, "resnet", 1)
        entries = runtime.caches.children.export_entries()
        for entry in entries.values():
            assert type(entry) is tuple and len(entry) == 2
            children, stats = entry
            assert type(children) is tuple
            assert all(type(child) is PGraph for child in children)
            assert type(stats) is SynthesisStats
        # Every graph a lookup can come from, by the key it looks up: the
        # roots, and the children the memo handed out.
        graphs: dict[tuple, list[PGraph]] = {}
        for space in (_gpt2_space(), space_for("resnet", max_depth=3)):
            root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
            graphs[children_key(root, space_key(space.spec, space.options))] = [root]
        assert len({key[2] for key in entries}) == len(graphs) == 2
        for (_, _, space), (children, _) in entries.items():
            for child in children:
                graphs.setdefault(children_key(child, space), []).append(child)
        for key, (children, _) in entries.items():
            assert any(
                all(child.applications[:-1] == parent.applications for child in children)
                for parent in graphs[key]
            ), key[0]

    def test_memoized_graphs_hold_no_rule_state(self, tmp_path):
        """A graph drops the rule state enumeration derived once its children are memoized."""
        runtime = _runtime(tmp_path)
        result = self._build(runtime, "resnet", 1)
        with runtime.activate():
            _toy_search(lambda op: 0.5).run()
        assert result.content_hash == self.CONV_HASHES["resnet"]
        assert result.stats.to_dict() == TestSynthesisStats.RESNET_DEPTH3_STATS
        entries = runtime.caches.children.export_entries()
        expanded = [
            child
            for (_, _, space), (children, _) in entries.items()
            for child in children
            if children_key(child, space) in entries
        ]
        assert len({space for _, _, space in entries}) == 2
        assert len(expanded) > 885  # the build's depth-1 and depth-2 graphs, and the search's
        assert not [graph for graph in expanded if "_rule_state" in graph.__dict__]

    def test_a_worker_built_graph_reenumerates_above_its_uids(self, tmp_path, monkeypatch):
        runtime = _runtime(tmp_path)
        space = _gpt2_space(max_depth=4)
        build_library(space.spec, space.options, name=space.name, runtime=runtime, shards=2)
        memo = runtime.caches.children
        entries = memo.export_entries()
        key = space_key(space.spec, space.options)
        # The root level has one graph and runs in the parent; the depth-2
        # graphs were built by shard workers expanding depth-1 graphs.  Pick
        # one that has children of its own.
        depth2 = [
            child for children, _ in entries.values() for child in children if child.depth == 2
        ]
        graph = next(
            child for child in depth2
            if children_key(child, key) in entries and entries[children_key(child, key)][0]
        )
        evicted_children, evicted_stats = entries.pop(children_key(graph, key))
        memo.clear()
        memo.merge_entries(entries)
        monkeypatch.setattr(pgraph_module, "_DIM_COUNTER", itertools.count())
        with runtime.activate():
            children, stats = legal_children(graph, space.options, key)
        assert memo.stats.misses == 1
        highest = highest_uid(graph)
        for child in children:
            application = child.applications[-1]
            assert application.produced + application.weight_dims
            for dim in application.produced + application.weight_dims:
                assert dim.uid > highest
        assert [child.signature() for child in children] == [
            child.signature() for child in evicted_children
        ]
        assert stats == evicted_stats


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
        space = _gpt2_space()
        with _runtime(tmp_path).activate():
            assert find_library_name(space.spec) is None
            assert plan_warm_start(space.spec, cache_context="c") is None

    def test_find_library_name_discovers_by_spec_key(self, tmp_path):
        runtime = _runtime(tmp_path)
        _build_gpt2(runtime)
        space = _gpt2_space()
        other = matmul_spec(bindings=({M: 4, K: 6, OUT_FEATURES: 5},))
        with runtime.activate():
            assert find_library_name(space.spec) == "gpt2"
            assert find_library_name(other) is None

    def test_plan_ranks_rewarded_entries_first_and_seeds_the_cache(self, tmp_path):
        runtime = _runtime(tmp_path)
        built = _build_gpt2(runtime)
        complete = sorted(e.signature for e in built.library.complete_entries())
        rewarded = complete[-1]  # last alphabetically: rank must beat the order
        context = ("proxy", 3)
        with runtime.activate():
            assert export_rewards({rewarded: 0.9}, name="gpt2", cache_context=context) == 1
            plan = plan_warm_start(_gpt2_space().spec, cache_context=context)
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
        with runtime.activate():
            again = plan_warm_start(_gpt2_space().spec, cache_context=context)
        assert again is not None and again.seeded_rewards == 0

    def test_root_priority_expands_the_preferred_child_first(self, tmp_path):
        space = _gpt2_space()
        root = PGraph.root(space.spec.output_shape, space.spec.input_shape)
        children = enumerate_children(root, space.options)
        preferred = sorted(graph.signature() for graph in children)[0]

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
        sig = enumerate_children(root, space.options)[0].signature()
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
        with cold_rt.activate():
            exported = export_rewards(
                {sig: reward for (_, sig), reward in cold_entries.items()},
                name="gpt2",
                cache_context=context,
            )
        assert exported == len(cold_entries)
        _build_gpt2(cold_rt)  # the artifact the warm run auto-discovers

        warm_rt = _runtime(tmp_path, warm_start=True)
        with warm_rt.activate():
            plan = plan_warm_start(_gpt2_space().spec, cache_context=context)
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

        def plan(spec, cache_context):
            seen["plans"].append(current())
            return None  # no library on disk: a cold search

        propose = MCTS.propose_batch

        def spy_propose(search, n):
            seen["waves"].append(n)
            return propose(search, n)

        real_map = parallel.sharded_map

        def spy_map(fn, items, shards=None, max_workers=None):
            seen["shards"].append(shards or current().config.shards)
            return real_map(fn, items, max_workers=1)

        monkeypatch.setattr(warmstart, "plan_warm_start", plan)
        monkeypatch.setattr(MCTS, "propose_batch", spy_propose)
        monkeypatch.setattr(parallel, "sharded_map", spy_map)
        runtime = _runtime(tmp_path, shards=3, frontier_width=3, warm_start=True)
        with runtime.activate():
            session = SearchSession(
                resnet18,
                config=SearchConfig(
                    mcts_iterations=4,
                    evaluation=EvaluationSettings(train_steps=1, dataset_size=16, batch_size=8),
                ),
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
