"""Checkpointed enumeration of a spec's design space into a graph library.

The builder runs a breadth-first sweep of the canonical pGraph space for one
:class:`OperatorSpec` under one set of :class:`EnumerationOptions`, in one
loop in the calling process:

* a graph's children come from
  :func:`~repro.core.enumeration.legal_children`, the runtime context's
  legal-children memo that MCTS reads too.  Each level hands the supervised
  shard executor (:func:`repro.search.parallel.sharded_map`) only the
  frontier graphs the memo lacks (all of them with the caches off); the
  workers return those graphs' children and merge them into the memo, so a
  context enumerates each space once, and a build over a space it has
  already expanded (the four conv families share one) forks nothing;
* the builder costs each child, applies the budgets, embeds it and
  deduplicates it globally by ``PGraph.signature()``, walking the frontier
  in signature order: the first (shallowest, then lexicographically
  first-parent) occurrence of a signature wins, so the surviving entry set
  is a pure function of the space and never of the shard count or of what
  the memo held;
* after every level that enumerated a graph the full build state (entries,
  frontier, statistics) is written to a CRC-framed checkpoint via an atomic
  replace, so a SIGKILLed build resumes at the last level that wrote one
  and converges to the same artifact.  A level the memo served whole writes
  none: the memo dies with the process, so a killed build over a warm memo
  restarts from its last checkpoint (the root, if it wrote none) and
  enumerates cold;
* each complete entry's nearest neighbours are ranked in process before the
  artifact is sealed.

Determinism contract: serial and shard-parallel builds — and any
checkpoint-resumed combination of the two, cold or against a warm memo —
produce byte-identical entry frames and therefore the same library content
hash.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import pickle
import json
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.enumeration import (
    EnumerationOptions,
    SynthesisStats,
    children_key,
    legal_children,
    space_key,
)
from repro.core.operator import OperatorSpec
from repro.core.pgraph import PGraph
from repro.library.embeddings import (
    FEATURE_NAMES,
    SizeTable,
    feature_vector,
    graph_costs,
    nearest_neighbours,
    output_element_count,
)
from repro.library.store import (
    GraphLibrary,
    LibraryEntry,
    LIBRARY_FORMAT_VERSION,
    checkpoint_filename,
    library_filename,
    options_fingerprint,
    read_frames,
    spec_key,
    write_frames_atomic,
)
from repro.runtime.context import RuntimeContext, current
from repro.search.parallel import sharded_map

log = logging.getLogger(__name__)


@dataclass
class BuildResult:
    """What one :func:`build_library` call produced (or found already built)."""

    library: GraphLibrary
    path: str
    content_hash: str
    entries: int
    complete: int
    levels: int
    #: level the build resumed from (0 = fresh build).
    resumed_from_level: int
    #: the artifact already existed for this spec + options; nothing ran.
    reused: bool
    stats: SynthesisStats


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def _save_checkpoint(
    path: str,
    name: str,
    key: str,
    fingerprint: str,
    level: int,
    entries: Sequence[LibraryEntry],
    frontier: Sequence[PGraph],
    stats: SynthesisStats,
) -> None:
    meta = json.dumps(
        {
            "version": LIBRARY_FORMAT_VERSION,
            "name": name,
            "spec_key": key,
            "options_fingerprint": fingerprint,
            "level": level,
            "entries": len(entries),
            "frontier": len(frontier),
        },
        sort_keys=True,
    ).encode("utf-8")
    state = pickle.dumps(
        {
            "entry_payloads": [entry.to_payload() for entry in entries],
            "frontier": list(frontier),
            "stats": stats,
        }
    )
    write_frames_atomic(path, [meta, state])


def _load_checkpoint(
    path: str, key: str, fingerprint: str
) -> tuple[int, list[LibraryEntry], list[PGraph], SynthesisStats] | None:
    """Restore build state, or ``None`` when absent, foreign, or corrupt.

    A checkpoint whose pickle names a class or module this code lacks (one
    that older code left behind) is foreign too: it is ignored with a
    warning, and the build starts from the root.
    """
    frames = read_frames(path)
    if len(frames) < 2:
        return None
    try:
        meta = json.loads(frames[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        log.warning("ignoring checkpoint %s with corrupt metadata: %s", path, exc)
        return None
    if (
        meta.get("version") != LIBRARY_FORMAT_VERSION
        or meta.get("spec_key") != key
        or meta.get("options_fingerprint") != fingerprint
    ):
        log.warning("ignoring checkpoint %s: built for a different spec/options", path)
        return None
    try:
        state = pickle.loads(frames[1])
        entries = [LibraryEntry.from_payload(p) for p in state["entry_payloads"]]
        frontier = list(state["frontier"])
        stats = state["stats"]
    except (
        pickle.UnpicklingError, KeyError, ValueError, TypeError, EOFError,
        AttributeError, ImportError,
    ) as exc:
        log.warning("ignoring undecodable checkpoint %s: %s", path, exc)
        return None
    if not isinstance(stats, SynthesisStats):
        return None
    return int(meta["level"]), entries, frontier, stats


# ---------------------------------------------------------------------------
# The build
# ---------------------------------------------------------------------------


def build_library(
    spec: OperatorSpec,
    options: EnumerationOptions,
    *,
    name: str,
    runtime: RuntimeContext | None = None,
    shards: int | None = None,
    neighbours: int = 8,
    checkpoint: bool = True,
    force: bool = False,
    on_level: Callable[[int], None] | None = None,
) -> BuildResult:
    """Enumerate ``spec``'s space under ``options`` into a library artifact.

    The build runs under ``runtime``, activated once here (``None``: the
    ambient context), so its children and shape-distance memos, shard
    fan-out and library root all come from that one context.  Each level
    forks ``shards`` workers only for the frontier graphs whose children
    the context's memo lacks; everything else, the ``neighbours``-nearest
    lists of the complete entries included, runs in this process.  The
    artifact lands under its ``library_path()`` as
    ``{name}-v{version}.rplb``.  If a matching artifact (same spec key,
    options fingerprint and neighbour count) already exists it is returned
    untouched unless ``force`` is set.  ``on_level`` is invoked after each
    level, once the level's checkpoint (if it wrote one) is on disk — the
    hook the crash-resume tests drive SIGKILL through.  A level writes a
    checkpoint only if it enumerated a graph, which with the caches off is
    every level.
    """
    with runtime.activate() if runtime is not None else contextlib.nullcontext():
        context = current()
        root_dir = context.library_path()
        artifact_path = os.path.join(root_dir, library_filename(name))
        checkpoint_path = os.path.join(root_dir, checkpoint_filename(name))
        key = spec_key(spec)
        fingerprint = options_fingerprint(options)

        if not force:
            existing = GraphLibrary.load(artifact_path)
            if (
                existing is not None
                and existing.meta.get("spec_key") == key
                and existing.meta.get("options_fingerprint") == fingerprint
                and existing.meta.get("neighbour_count") == neighbours
            ):
                return BuildResult(
                    library=existing,
                    path=artifact_path,
                    content_hash=existing.content_hash(),
                    entries=len(existing),
                    complete=existing.meta.get("complete", 0),
                    levels=existing.meta.get("levels", 0),
                    resumed_from_level=0,
                    reused=True,
                    stats=SynthesisStats(),
                )

        root = PGraph.root(spec.output_shape, spec.input_shape)
        binding = options.budget_binding or {}
        sizes = SizeTable(binding)
        output_elements = output_element_count(root, binding)
        entries: list[LibraryEntry] = [
            LibraryEntry(
                signature=root.signature(),
                depth=0,
                complete=False,
                parent_signature=None,
                primitive=None,
                macs=0,
                params=0,
                features=feature_vector(root, sizes=sizes),
            )
        ]
        frontier: list[PGraph] = [root]
        stats = SynthesisStats()
        level = 0
        resumed_from_level = 0

        if checkpoint:
            restored = _load_checkpoint(checkpoint_path, key, fingerprint)
            if restored is not None:
                level, entries, frontier, stats = restored
                resumed_from_level = level
                log.info(
                    "resuming library %s from level %d (%d entries, %d frontier graphs)",
                    name, level, len(entries), len(frontier),
                )

        seen = {entry.signature for entry in entries}
        space = space_key(spec, options)
        expand = functools.partial(legal_children, options=options, space=space)
        # With the caches off the memo is bypassed, so every graph is missing.
        memo = context.caches.children if context.config.eval_cache else {}

        while frontier and level < options.max_depth:
            # A signature appears at most once in the frontier, so sorting by it
            # is a total order — level results never depend on arrival order.
            frontier.sort(key=lambda graph: graph.signature())
            missing = [graph for graph in frontier if children_key(graph, space) not in memo]
            results = sharded_map(expand, missing, shards=shards)
            computed = {graph.signature(): result for graph, result in zip(missing, results)}
            next_frontier: list[PGraph] = []
            for graph in frontier:
                parent_signature = graph.signature()
                children, enumerated = (
                    computed[parent_signature]
                    if parent_signature in computed
                    else legal_children(graph, options, space)  # a memo hit
                )
                stats.nodes_visited += 1
                stats.merge(enumerated)
                for child in children:
                    # A count that stays symbolic under a partial binding reads
                    # 0, so it passes the budget.  Every complete child is
                    # counted, a duplicate signature too.
                    complete = child.is_complete and child.depth > 0
                    costs = graph_costs(child, output_elements=output_elements, sizes=sizes)
                    kept = complete and options.within_budgets(child, costs=costs)
                    if kept:
                        stats.completed += 1
                    elif complete:
                        stats.rejected_by_budget += 1
                    signature = child.signature()
                    if signature in seen:
                        continue
                    seen.add(signature)
                    entries.append(
                        LibraryEntry(
                            signature=signature,
                            depth=child.depth,
                            complete=kept,
                            parent_signature=parent_signature,
                            primitive=child.last_application.primitive.describe(),
                            macs=costs[0],
                            params=costs[1],
                            features=feature_vector(child, costs=costs, sizes=sizes),
                        )
                    )
                    if not complete and child.depth < options.max_depth:
                        next_frontier.append(child)
            frontier = next_frontier
            level += 1
            # A level the memo served whole enumerated nothing a checkpoint
            # could spare a restart: the memo dies with the process anyway.
            if checkpoint and missing:
                _save_checkpoint(
                    checkpoint_path, name, key, fingerprint, level, entries, frontier, stats
                )
            if on_level is not None:
                on_level(level)

        pool = [(entry.signature, entry.features) for entry in entries if entry.complete]
        entries = [
            entry.with_neighbours(
                nearest_neighbours(entry.signature, entry.features, pool, neighbours)
            )
            if entry.complete
            else entry
            for entry in entries
        ]

        meta_stats = stats.to_dict()
        meta_stats["feature_names"] = list(FEATURE_NAMES)
        library = GraphLibrary.build(
            name=name,
            spec_key_=key,
            options_fingerprint_=fingerprint,
            entries=entries,
            stats=meta_stats,
            levels=level,
            neighbour_count=neighbours,
        )
        library.save(artifact_path)
        if checkpoint:
            try:
                os.remove(checkpoint_path)
            except FileNotFoundError:
                pass
        return BuildResult(
            library=library,
            path=artifact_path,
            content_hash=library.content_hash(),
            entries=len(library),
            complete=library.meta.get("complete", 0),
            levels=level,
            resumed_from_level=resumed_from_level,
            reused=False,
            stats=stats,
        )
