"""Guided bottom-up enumeration of operator candidates (Algorithm 1).

``enumerate_children`` lists a partial pGraph's children, one bare pGraph per
canonical primitive application (``PGraph.last_application``); ``synthesize``
performs the depth-bounded guided DFS of Algorithm 1, backtracking whenever
the shape distance exceeds the remaining primitive budget and collecting
complete operators that satisfy the user-provided budgets (FLOPs,
parameters, primitive counts).

``enumerate_children`` settles each candidate on its :class:`Application`
before it builds a child: occurrence limits are decided once per graph,
duplicate siblings are dropped on :func:`~repro.core.pgraph.sibling_key`, and
given the steps left (``steps=``) the shape-distance prune runs on the
application too.  The library builder and MCTS enumerate through
:func:`legal_children`, which passes ``steps``, so of the children a build
generates only the ~5% it keeps are ever built; it memoizes each graph's
children per runtime context and search space (:func:`space_key`), so a
space is enumerated once per context however many builds and searches
cover it.
``synthesize`` and the shape-distance ablation instead build every child and
test it with :func:`~repro.core.shape_distance.within_reach`: ``synthesize``
shuffles the unpruned list before it prunes, so its random stream depends on
the unpruned count, and the ablation's guided and unguided arms draw from the
same unpruned list, scoring each kept child by its distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.canonicalize import CanonicalizationEngine
from repro.core.operator import OperatorSpec, SynthesizedOperator
from repro.core.pgraph import Dim, PGraph, highest_uid, reserve_dim_uids, sibling_key
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
from repro.core.shape_distance import application_within_reach, within_reach
from repro.ir.size import Size
from repro.ir.variables import Variable
from repro.runtime.context import current


@dataclass
class EnumerationOptions:
    """Budgets and knobs controlling the synthesis space."""

    #: maximum number of primitives per operator (d_max in Algorithm 1).
    max_depth: int = 8
    #: sizes allowed as Reduce domains (reduction loop extents).
    reduce_sizes: list[Size] = field(default_factory=list)
    #: sizes allowed as Merge block sizes.
    merge_blocks: list[Size] = field(default_factory=list)
    #: sizes allowed as Stride factors.
    strides: list[Size] = field(default_factory=list)
    #: occurrence limits for the low-quality primitives (Section 5.2).
    max_expands: int = 1
    max_strides: int = 1
    max_shifts: int = 2
    max_reductions: int = 4
    max_weights: int = 2
    max_weight_dims: int = 5
    #: hard MACs budget relative to the original operator (Section 7.2).
    max_macs: int | None = None
    #: hard parameter budget.
    max_params: int | None = None
    #: binding used to evaluate the budgets.
    budget_binding: Mapping[Variable, int] | None = None
    #: canonicalization engine (None disables canonicalization — used by the
    #: Table 3 ablation).
    canonicalizer: CanonicalizationEngine | None = field(default_factory=CanonicalizationEngine)
    #: use shape-distance guidance (disabled for the Section 9.4 ablation).
    use_shape_distance: bool = True

    def allows(
        self,
        graph: PGraph,
        primitive: Primitive,
        operands: Sequence[Dim],
        stats: "SynthesisStats | None" = None,
    ) -> bool:
        """Occurrence-limit and canonicalization checks for one application.

        With ``stats`` given, canonicalization rejections are attributed to
        the rule that fired (``stats.canonicalization_rejections``) — the
        pruning detail the library builder and ``repro library stats`` report.
        Enumeration decides the occurrence limits once per graph instead (no
        candidate of a blocked kind is generated) and asks only
        :meth:`is_canonical`; this per-candidate form is its reference.
        """
        if isinstance(primitive, Expand) and graph.count_primitive(Expand) >= self.max_expands:
            return False
        if isinstance(primitive, Stride) and graph.count_primitive(Stride) >= self.max_strides:
            return False
        if isinstance(primitive, Shift) and graph.count_primitive(Shift) >= self.max_shifts:
            return False
        if isinstance(primitive, Reduce) and graph.count_primitive(Reduce) >= self.max_reductions:
            return False
        if isinstance(primitive, Share):
            if graph.rule_state().weight_dims + len(operands) > self.max_weight_dims:
                return False
            if primitive.new_weight and len(graph.weights) >= self.max_weights:
                return False
        return self.is_canonical(graph, primitive, operands, stats)

    def is_canonical(
        self,
        graph: PGraph,
        primitive: Primitive,
        operands: Sequence[Dim],
        stats: "SynthesisStats | None" = None,
    ) -> bool:
        """The canonicalization half of :meth:`allows`."""
        if self.canonicalizer is None:
            return True
        rule = self.canonicalizer.rejecting_rule(graph, primitive, operands)
        if rule is not None and stats is not None:
            stats.note_canonicalization_rejection(rule)
        return rule is None

    def within_budgets(self, graph: PGraph, costs: tuple[int, int] | None = None) -> bool:
        """Whether a (complete) graph satisfies the MACs / parameter budgets.

        ``costs`` is the graph's (MACs, parameter count) under
        :attr:`budget_binding`, for a caller that already computed them.
        """
        binding = self.budget_binding or {}
        if self.max_macs is not None:
            macs = costs[0] if costs is not None else graph.macs(binding)
            if macs > self.max_macs:
                return False
        if self.max_params is not None:
            params = costs[1] if costs is not None else graph.parameter_count(binding)
            if params > self.max_params:
                return False
        return True


def default_options_for(
    spec: OperatorSpec,
    coefficients: Sequence[Size | Variable | int] = (),
    max_depth: int = 8,
    macs_budget_ratio: float | None = None,
    reference_macs: int | None = None,
) -> EnumerationOptions:
    """Construct sensible enumeration options for an operator spec.

    ``coefficients`` are the small sizes made available to Reduce / Merge /
    Stride (the paper's coefficient variables); output-shape primary sizes are
    additionally offered as Reduce domains so that contractions over e.g.
    ``C_in`` are expressible.
    """
    coefficient_sizes = [Size.of(c) for c in coefficients]
    primary_sizes = [Size.of(s) for s in spec.input_shape]
    # Dedupe by structural representation while keeping Size objects.
    seen: dict[str, Size] = {}
    for size in coefficient_sizes + primary_sizes:
        seen.setdefault(repr(size), size)
    options = EnumerationOptions(
        max_depth=max_depth,
        reduce_sizes=list(seen.values()),
        merge_blocks=list(coefficient_sizes),
        strides=list(coefficient_sizes),
        budget_binding=dict(spec.bindings[0]) if spec.bindings else None,
    )
    if macs_budget_ratio is not None and reference_macs is not None:
        options.max_macs = int(reference_macs * macs_budget_ratio)
    return options


# ---------------------------------------------------------------------------
# Child enumeration
# ---------------------------------------------------------------------------


def _candidate_applications(
    graph: PGraph, options: EnumerationOptions
) -> Iterator[tuple[Primitive, tuple[Dim, ...]]]:
    """The applications to check against ``graph``, in enumeration order.

    The occurrence limits (Section 5.2) are decided once per graph, and a
    kind they block is never yielded: what :meth:`EnumerationOptions.allows`
    would reject for its limits is left out, and every other candidate keeps
    its place in the order.
    """
    frontier = graph.frontier
    reduces = graph.count_primitive(Reduce) < options.max_reductions
    weight_room = options.max_weight_dims - graph.rule_state().weight_dims
    new_weights = len(graph.weights) < options.max_weights
    shifts = graph.count_primitive(Shift) < options.max_shifts
    expands = graph.count_primitive(Expand) < options.max_expands
    # Primitives are immutable values: build each one once per call.
    new_share, extend_share = Share(new_weight=True), Share(new_weight=False)
    shift, split, expand, unfold = Shift(amount=1), Split(), Expand(), Unfold()
    merges = [Merge(block=block) for block in options.merge_blocks]
    strides = (
        [Stride(stride=stride) for stride in options.strides if not stride.is_one]
        if graph.count_primitive(Stride) < options.max_strides
        else []
    )

    # Contractions -----------------------------------------------------
    if reduces:
        for size in options.reduce_sizes:
            yield Reduce(size=size), ()
    if weight_room >= 1:
        for shared in frontier:
            # Plain share (weight indexed by one coordinate).
            if new_weights:
                yield new_share, (shared,)
            yield extend_share, (shared,)
            if weight_room < 2:
                continue
            # Share + Match: move one other output dim onto the weight.
            for matched in frontier:
                if matched is shared or not matched.is_output:
                    continue
                if new_weights:
                    yield new_share, (shared, matched)
                yield extend_share, (shared, matched)

    # 1-to-1 views -------------------------------------------------------
    for dim in frontier:
        for merge in merges:
            quotient = dim.size / merge.block
            if quotient.is_plausible and not quotient.is_one:
                yield merge, (dim,)
        if shifts:
            yield shift, (dim,)
    for major in frontier:
        for minor in frontier:
            if major is not minor:
                yield split, (major, minor)

    # 1-to-many / many-to-1 views ----------------------------------------
    for dim in frontier:
        if expands:
            yield expand, (dim,)
        for stride in strides:
            yield stride, (dim,)
    for main in frontier:
        for window in frontier:
            if main is window:
                continue
            if window.size.primary_variables():
                continue
            yield unfold, (main, window)


def enumerate_children(
    graph: PGraph,
    options: EnumerationOptions,
    stats: "SynthesisStats | None" = None,
    *,
    steps: int | None = None,
) -> list[PGraph]:
    """All canonical one-primitive extensions of a partial pGraph.

    Each candidate is settled on its :class:`Application` before any child
    is built, and each child records its own (``last_application``).
    Siblings are deduplicated on :func:`sibling_key`, which is equal exactly
    when the children's signatures are; the first application to reach a
    signature wins.  ``stats`` (optional) accumulates per-rule
    canonicalization rejections — see :meth:`EnumerationOptions.allows`.

    ``steps`` is the number of primitives left after the child.  When it is
    given and ``options.use_shape_distance`` is on, a child that cannot
    complete in time (``within_reach(child, steps)`` is false; see
    :func:`application_within_reach`) is counted but never built.  With
    ``steps`` and ``stats`` both given, the children generated, those pruned
    by distance and a dead end (every child pruned) are counted too.
    """
    prune = steps is not None and options.use_shape_distance
    children: list[PGraph] = []
    seen: set[tuple] = set()
    pruned = 0
    for primitive, operands in _candidate_applications(graph, options):
        if not options.is_canonical(graph, primitive, operands, stats):
            continue
        try:
            application = primitive.application(graph, operands)
        except PrimitiveError:
            continue
        key = sibling_key(application)
        if key in seen:
            continue
        seen.add(key)
        if prune and not application_within_reach(graph, application, steps):
            pruned += 1
            continue
        children.append(graph.extend(application))
    if steps is not None and stats is not None:
        generated = len(children) + pruned
        stats.children_generated += generated
        stats.pruned_by_distance += pruned
        if generated and pruned == generated:
            stats.dead_ends_by_distance += 1
    return children


# ---------------------------------------------------------------------------
# Guided DFS (Algorithm 1, SynthesizeSubstitutions)
# ---------------------------------------------------------------------------


@dataclass
class SynthesisStats:
    """Bookkeeping for a synthesis run (used by the ablation experiments).

    Beyond the aggregate counters, two pruning details are recorded so a
    starved search is diagnosable instead of just slow:
    :attr:`canonicalization_rejections` attributes every pruned application
    to the rule that fired, and :attr:`dead_ends_by_distance` counts interior
    nodes whose *every* child was discarded by the shape-distance guide —
    the condition that silently starves random rollouts on constrained specs.
    """

    nodes_visited: int = 0
    children_generated: int = 0
    pruned_by_distance: int = 0
    completed: int = 0
    rejected_by_budget: int = 0
    #: canonicalization-rule name -> how many applications it rejected.
    canonicalization_rejections: dict[str, int] = field(default_factory=dict)
    #: nodes where shape-distance pruning discarded every generated child.
    dead_ends_by_distance: int = 0

    def note_canonicalization_rejection(self, rule: str) -> None:
        self.canonicalization_rejections[rule] = (
            self.canonicalization_rejections.get(rule, 0) + 1
        )

    def merge(self, other: "SynthesisStats") -> None:
        """Fold another run's counters into this one (shard aggregation)."""
        self.nodes_visited += other.nodes_visited
        self.children_generated += other.children_generated
        self.pruned_by_distance += other.pruned_by_distance
        self.completed += other.completed
        self.rejected_by_budget += other.rejected_by_budget
        self.dead_ends_by_distance += other.dead_ends_by_distance
        for rule, count in other.canonicalization_rejections.items():
            self.canonicalization_rejections[rule] = (
                self.canonicalization_rejections.get(rule, 0) + count
            )

    def to_dict(self) -> dict:
        """JSON-ready form (library metadata, ``repro library stats``)."""
        return {
            "nodes_visited": self.nodes_visited,
            "children_generated": self.children_generated,
            "pruned_by_distance": self.pruned_by_distance,
            "completed": self.completed,
            "rejected_by_budget": self.rejected_by_budget,
            "canonicalization_rejections": dict(
                sorted(self.canonicalization_rejections.items())
            ),
            "dead_ends_by_distance": self.dead_ends_by_distance,
        }


# ---------------------------------------------------------------------------
# Legal children, memoized per runtime context
# ---------------------------------------------------------------------------

#: ``EnumerationOptions`` fields enumeration never reads: the budgets apply to
#: complete graphs only, and each caller checks them on the children it gets.
_BUDGET_FIELDS = frozenset({"max_macs", "max_params", "budget_binding"})


def space_key(spec: OperatorSpec, options: EnumerationOptions) -> tuple:
    """The search space a graph's legal children depend on, as a memo key.

    The spec's shape key fixes the root (and so every dim's symbolic size).
    Every ``EnumerationOptions`` field enumeration reads is rendered as text
    in declaration order, list order included: child order decides what a
    rollout picks.  The budgets are left out, so slots that differ only in
    their concrete sizes (the four depth-3 conv families) share one space.
    The canonicalizer contributes its rule objects.  Text, unlike tuples of
    ``Size``, compares in one step on every hit.
    """
    rendered = ";".join(
        f"{f.name}={getattr(options, f.name)!r}"
        for f in fields(options)
        if f.name != "canonicalizer" and f.name not in _BUDGET_FIELDS
    )
    canonicalizer = options.canonicalizer
    rules = tuple(canonicalizer.rules) if canonicalizer is not None else None
    return (spec.shape_key, rendered, rules)


def children_key(graph: PGraph, space: tuple) -> tuple:
    """The key :func:`legal_children` memoizes ``graph``'s children under.

    The graph's signature, its weight signature and ``space``, a
    :func:`space_key`: what a caller tests the children memo for.
    """
    return (graph.signature(), graph.weight_signature(), space)


def legal_children(
    graph: PGraph, options: EnumerationOptions, space: tuple
) -> tuple[tuple[PGraph, ...], SynthesisStats]:
    """``graph``'s canonical children that can still complete, and their counts.

    The children (bare graphs) :func:`enumerate_children` yields with the
    steps left after the child, so the shape-distance prune runs on each
    candidate's application, plus the :class:`SynthesisStats` that call
    counted.
    Memoized per runtime context (:meth:`RuntimeContext.cached_children`)
    under :func:`children_key`.  The entry is shared by every library build
    and search over the space, and shard workers' entries merge back into
    the parent, so callers copy the children before reordering and never
    mutate the stats.

    On a miss the global dim uid counter is first moved past ``graph``'s
    highest uid: a merged entry's graphs carry uids a worker minted, and a
    child minted below them would compare out of order in
    :meth:`~repro.core.primitives.Primitive.order_key`.  Once enumerated,
    ``graph`` drops the :class:`~repro.core.pgraph.RuleState` enumeration
    derived on it: only enumeration reads it, a graph whose children are
    memoized is not enumerated again, and :meth:`PGraph.rule_state` derives
    it afresh if it is, so the memo holds none.
    """

    def compute() -> tuple[tuple[PGraph, ...], SynthesisStats]:
        reserve_dim_uids(highest_uid(graph))
        stats = SynthesisStats()
        children = enumerate_children(
            graph, options, stats=stats, steps=options.max_depth - graph.depth - 1
        )
        graph.__dict__.pop("_rule_state", None)
        return tuple(children), stats

    return current().cached_children(children_key(graph, space), compute)


def synthesize(
    spec: OperatorSpec,
    options: EnumerationOptions,
    max_results: int = 64,
    max_nodes: int = 20000,
    rng: random.Random | None = None,
    on_complete: Callable[[SynthesizedOperator], None] | None = None,
) -> tuple[list[SynthesizedOperator], SynthesisStats]:
    """Depth-bounded guided DFS collecting complete, budget-satisfying operators.

    The traversal order is randomized (when ``rng`` is provided) so repeated
    calls explore different corners of the space, mirroring the stochastic
    sampling the paper layers MCTS on top of.
    """
    stats = SynthesisStats()
    results: list[SynthesizedOperator] = []
    root = PGraph.root(spec.output_shape, spec.input_shape)

    def visit(graph: PGraph) -> None:
        if len(results) >= max_results or stats.nodes_visited >= max_nodes:
            return
        stats.nodes_visited += 1

        if graph.is_complete and graph.depth > 0:
            if options.within_budgets(graph):
                operator = SynthesizedOperator.from_graph(graph, spec)
                results.append(operator)
                stats.completed += 1
                if on_complete is not None:
                    on_complete(operator)
            else:
                stats.rejected_by_budget += 1
            return

        if graph.depth >= options.max_depth:
            return

        children = enumerate_children(graph, options, stats=stats)
        stats.children_generated += len(children)
        if rng is not None:
            rng.shuffle(children)
        remaining = options.max_depth - graph.depth - 1
        pruned_here = 0
        for child in children:
            if len(results) >= max_results or stats.nodes_visited >= max_nodes:
                return
            if options.use_shape_distance and not within_reach(child, remaining):
                stats.pruned_by_distance += 1
                pruned_here += 1
                continue
            visit(child)
        if children and pruned_here == len(children):
            stats.dead_ends_by_distance += 1

    visit(root)
    return results, stats
