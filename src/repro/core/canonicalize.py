"""Canonicalization rules that prune redundant operator candidates (Section 6).

The rules are checked *on the fly*: before a primitive is applied to a partial
pGraph the engine decides whether the resulting graph would be canonical.  A
non-canonical graph is never generated, so the search never wastes samples on
candidates that a tensor compiler would consider equivalent (or nearly
equivalent) to another candidate.

The rule set mirrors the paper:

* ``Merge`` may not be applied above a ``Split`` (Figure 3a) and may not undo
  the ``Split`` it follows;
* 1-to-1 views are pushed below (i.e. applied before) commuting contractions
  (Figure 3b), and more generally adjacent commuting applications must appear
  in a canonical order;
* ``Expand`` may not be combined with ``Reduce`` (it would only scale the
  result);
* ``Unfold`` may involve at most one reduction coordinate;
* approximate-simplification: ``Merge`` is not applied to the result of an
  ``Unfold`` (Figure 3c);
* ``Shift`` chains are collapsed (a ``Shift`` may not follow a ``Shift`` on
  the same coordinate);
* weight tensors receive coordinates only through ``Share`` (structural).

The engine is extensible: new rules are plain callables and can be added by
client code, as the paper advertises for Syno.  A rule that can reject only
applications of certain primitive types says so with the :func:`rejects`
decorator (or by giving the callable a ``rejects`` attribute holding a tuple
of types); the engine then calls it only for those types and their
subclasses.  A rule without the declaration is called for every application.
Rules read a graph's history through :meth:`PGraph.rule_state`, which is
derived once per graph rather than once per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.pgraph import Application, Dim, PGraph
from repro.core.primitives import (
    Expand,
    Merge,
    Primitive,
    Reduce,
    Share,
    Shift,
    Split,
    Stride,
    Unfold,
)

#: A canonicalization rule: returns True when the proposed application is
#: canonical (allowed), False when it must be pruned.
Rule = Callable[[PGraph, Primitive, Sequence[Dim]], bool]


def rejects(*primitive_types: type) -> Callable[[Rule], Rule]:
    """Declare the only primitive types a rule can reject.

    :class:`CanonicalizationEngine` skips the rule for applications of any
    other type, which it would accept anyway.
    """

    def declare(rule: Rule) -> Rule:
        rule.rejects = primitive_types  # type: ignore[attr-defined]
        return rule

    return declare


def _producer_of(graph: PGraph, dim: Dim) -> Application | None:
    """The application that produced ``dim``, or None for output dims."""
    return graph.rule_state().producers.get(dim)


@rejects(Merge)
def no_merge_above_split(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """A ``Merge`` may not transform a coordinate produced by a ``Split``.

    ``Split`` then ``Merge`` is always expressible in the simpler opposite
    order (Figure 3a), so only the latter is canonical.
    """
    if not isinstance(primitive, Merge):
        return True
    producer = _producer_of(graph, operands[0])
    return not (producer is not None and isinstance(producer.primitive, Split))


@rejects(Split)
def no_split_undoing_merge(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """A ``Split`` may not recombine exactly the two dims of one ``Merge``."""
    if not isinstance(primitive, Split):
        return True
    producer = _producer_of(graph, operands[0])
    if producer is None or not isinstance(producer.primitive, Merge):
        return True
    return tuple(operands) != producer.produced


@rejects(Merge)
def no_merge_above_unfold(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """Approximate simplification (Figure 3c): don't ``Merge`` an unfolded dim.

    When the block size is much larger than the window, ``Merge`` above
    ``Unfold`` is almost everywhere equal to the form with the ``Merge``
    below, so only the latter is kept.
    """
    if not isinstance(primitive, Merge):
        return True
    producer = _producer_of(graph, operands[0])
    return not (producer is not None and isinstance(producer.primitive, Unfold))


@rejects(Shift)
def no_shift_chains(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """Consecutive ``Shift``s of the same coordinate collapse to one."""
    if not isinstance(primitive, Shift):
        return True
    producer = _producer_of(graph, operands[0])
    return not (producer is not None and isinstance(producer.primitive, Shift))


@rejects(Expand)
def no_expand_of_reduction(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """``Expand`` + ``Reduce`` only multiplies the result by a constant.

    The exception is a reduction coordinate that has been ``Share``d onto at
    least one weight tensor: then the reduction contracts the weights (the
    low-rank pattern the paper observes in its discovered operators), so
    dropping it from the data path is meaningful.
    """
    if not isinstance(primitive, Expand):
        return True
    (dim,) = operands
    if not dim.is_reduction:
        return True
    for weight in graph.weights:
        if any(wdim.identified_with is dim for wdim in weight.dims):
            return True
    return False


@rejects(Unfold)
def unfold_single_reduction(graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
    """``Unfold`` allows at most one of its coordinates to be a reduction."""
    if not isinstance(primitive, Unfold):
        return True
    return sum(1 for dim in operands if dim.is_reduction) <= 1


@rejects(Stride)
def stride_paired_with_one_to_many(
    graph: PGraph, primitive: Primitive, operands: Sequence[Dim]
) -> bool:
    """``Stride`` discards elements, so it must be paired with a 1-to-many view."""
    if not isinstance(primitive, Stride):
        return True
    state = graph.rule_state()
    return state.strides < state.one_to_many + 1  # allow one Stride "in flight"


@rejects(Share)
def share_matches_move_non_reductions(
    graph: PGraph, primitive: Primitive, operands: Sequence[Dim]
) -> bool:
    """Matched dims moved onto a weight must not be reduction coordinates.

    A reduction coordinate appearing only on a weight would sum the weight
    offline, which a compiler folds away — such candidates are redundant.
    """
    if not isinstance(primitive, Share):
        return True
    return not any(dim.is_reduction for dim in operands[1:])


def canonical_commuting_order(
    graph: PGraph, primitive: Primitive, operands: Sequence[Dim]
) -> bool:
    """Adjacent commuting applications must appear in a fixed canonical order.

    If the proposed application does not touch anything the previous
    application produced, the two could be swapped without changing the
    operator; we keep only the ordering where the smaller key
    (:meth:`Primitive.order_key`) comes first.  In particular this pushes
    1-to-1 views below contractions (Figure 3b).
    """
    state = graph.rule_state()
    if state.last_order_key is None or not state.last_footprint.isdisjoint(operands):
        return True
    return primitive.order_key(operands) >= state.last_order_key


def default_rules() -> list[Rule]:
    """The paper's rule set, in the order they are checked."""
    return [
        no_merge_above_split,
        no_split_undoing_merge,
        no_merge_above_unfold,
        no_shift_chains,
        no_expand_of_reduction,
        unfold_single_reduction,
        stride_paired_with_one_to_many,
        share_matches_move_non_reductions,
        canonical_commuting_order,
    ]


@dataclass
class CanonicalizationEngine:
    """Applies a configurable list of canonicalization rules.

    For each primitive type the engine keeps the ordered sublist of
    :attr:`rules` that can reject it (see :func:`rejects`), rebuilt whenever
    :attr:`rules` changes, so a check runs only the rules that apply and the
    first rule to reject is the one a full pass would find.
    """

    rules: list[Rule] = field(default_factory=default_rules)

    #: (the rules it was built from, primitive type -> the rules that apply).
    _dispatch = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_dispatch", None)
        return state

    def _rules_for(self, primitive: Primitive) -> tuple[Rule, ...]:
        """The rules, in order, that can reject an application of ``primitive``."""
        dispatch = self._dispatch
        if dispatch is None or dispatch[0] != self.rules:
            dispatch = (list(self.rules), {})
            self._dispatch = dispatch
        kind = type(primitive)
        applicable = dispatch[1].get(kind)
        if applicable is None:
            applicable = tuple(
                rule
                for rule in dispatch[0]
                if getattr(rule, "rejects", None) is None or issubclass(kind, rule.rejects)
            )
            dispatch[1][kind] = applicable
        return applicable

    def is_canonical(self, graph: PGraph, primitive: Primitive, operands: Sequence[Dim]) -> bool:
        """Whether applying ``primitive`` to ``operands`` keeps the graph canonical."""
        return self.rejecting_rule(graph, primitive, operands) is None

    def rejecting_rule(
        self, graph: PGraph, primitive: Primitive, operands: Sequence[Dim]
    ) -> str | None:
        """The name of the first rule that rejects the application, or ``None``.

        The one walk over the rules: :meth:`is_canonical` asks it too, and
        enumeration statistics attribute each pruned application to the rule
        that pruned it (``SynthesisStats.canonicalization_rejections``).
        """
        for rule in self._rules_for(primitive):
            if not rule(graph, primitive, operands):
                return getattr(rule, "__name__", repr(rule))
        return None

    def add_rule(self, rule: Rule) -> None:
        """Register an additional user-defined rule (the paper's extensibility)."""
        self.rules.append(rule)
