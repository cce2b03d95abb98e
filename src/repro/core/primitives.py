"""Syno's fine-grained primitives (Table 1 of the paper).

Each primitive transforms coordinate expressions *bottom-up*: it consumes some
dimensions of the current frontier (the interface toward the operator's input)
and produces new ones.  The table below summarizes the frontier semantics; the
corresponding *top-down* tensor semantics (used by code generation) are
documented on each class.

==========  =======================  ==========================================
Primitive   Frontier (bottom-up)     Top-down tensor semantics
==========  =======================  ==========================================
Split       (G, B)      -> (G*B)     reshape G*B into (G, B)
Merge(B)    (N)         -> (N/B, B)  flatten (N/B, B) into N
Shift       (N)         -> (N)       out[i] = in[(i + 1) % N]
Expand      (C)         -> ()        broadcast a new output dimension of size C
Unfold      (N, K)      -> (N)       out[i, j] = in[i + j - K/2] (zero padded)
Stride(S)   (K)         -> (S*K)     out[i] = in[S*i]
Reduce(N)   ()          -> (N)       sum over the new reduction dimension
Share       (N, m...)   -> (N)       multiply by a weight indexed by N (and m)
==========  =======================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.pgraph import Application, Dim, DimRole, PGraph
from repro.ir.size import Size, SizeError
from repro.ir.variables import Variable


class PrimitiveError(ValueError):
    """Raised when a primitive is applied to invalid operands."""


@dataclass(frozen=True)
class Primitive:
    """Base class for all primitives."""

    #: number of frontier dims consumed (None means variable, e.g. Share).
    arity: int = 0
    #: whether the primitive is a pure view (no computation).
    is_view: bool = False
    #: whether the primitive performs a contraction (Reduce / Share).
    is_contraction: bool = False
    #: whether the primitive is 1-to-many in the paper's classification.
    is_one_to_many: bool = False

    def describe(self) -> str:
        return type(self).__name__

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        """This primitive applied to ``operands`` of ``graph``, with its new dims.

        Raises :class:`PrimitiveError` for invalid operands.  The graph is not
        changed: :meth:`PGraph.extend` builds the resulting graph.
        """
        raise NotImplementedError

    def apply(self, graph: PGraph, operands: Sequence[Dim]) -> PGraph:
        """The graph that results from applying this primitive to ``operands``."""
        return graph.extend(self.application(graph, operands))

    def order_key(self, operands: Sequence[Dim]) -> tuple:
        """This application's place in the canonical order of commuting neighbours.

        1-to-1 views come first (pushed below contractions), then the other
        views, then contractions; ties break on the type name and the
        smallest operand uid.  See ``canonicalize.canonical_commuting_order``.
        """
        if self.is_view and not self.is_one_to_many and not isinstance(self, Stride):
            priority = 0
        elif self.is_view:
            priority = 1
        else:
            priority = 2
        min_uid = min((dim.uid for dim in operands), default=-1)
        return (priority, type(self).__name__, min_uid)

    def _check_operands(self, graph: PGraph, operands: Sequence[Dim], expected: int) -> None:
        if len(operands) != expected:
            raise PrimitiveError(
                f"{self.describe()} expects {expected} operand(s), got {len(operands)}"
            )
        for dim in operands:
            if dim not in graph.frontier:
                raise PrimitiveError(f"operand {dim!r} is not in the frontier")


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Split(Primitive):
    """Combine two frontier dims ``(G, B)`` into one dim of size ``G*B``.

    Bottom-up this corresponds to Table 1's ``[i, j]:[G, B] <- [B*i+j]:[G*B]``.
    Top-down it partitions a dimension into blocks (a reshape).
    """

    arity: int = 2
    is_view: bool = True

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 2)
        major, minor = operands
        produced = Dim(
            size=major.size * minor.size,
            role=DimRole.INTERMEDIATE,
            name=f"{major.name}*{minor.name}",
        )
        return Application(primitive=self, consumed=tuple(operands), produced=(produced,))


@dataclass(frozen=True)
class Merge(Primitive):
    """Split one frontier dim ``N`` into ``(N/B, B)``.

    Bottom-up: ``[i]:[N] <- [i/B, i%B]:[N/B, B]``.  Top-down it flattens two
    dimensions into one (a reshape).  ``block`` must divide the operand size.
    """

    block: Size = Size.one()
    arity: int = 1
    is_view: bool = True

    def describe(self) -> str:
        return f"Merge({self.block!r})"

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 1)
        (dim,) = operands
        if self.block.is_one:
            raise PrimitiveError("Merge block must not be 1")
        quotient = dim.size / self.block
        if not quotient.is_plausible or quotient.has_primary_in_denominator:
            raise PrimitiveError(f"block {self.block!r} does not divide {dim.size!r}")
        outer = Dim(size=quotient, role=DimRole.INTERMEDIATE, name=f"{dim.name}/b")
        inner = Dim(size=self.block, role=DimRole.INTERMEDIATE, name=f"{dim.name}%b")
        return Application(primitive=self, consumed=(dim,), produced=(outer, inner))


@dataclass(frozen=True)
class Shift(Primitive):
    """Cyclically shift a dimension: ``out[i] = in[(i + amount) % N]``."""

    amount: int = 1
    arity: int = 1
    is_view: bool = True

    def describe(self) -> str:
        return f"Shift({self.amount})"

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 1)
        (dim,) = operands
        produced = Dim(size=dim.size, role=DimRole.INTERMEDIATE, name=f"{dim.name}+{self.amount}")
        return Application(primitive=self, consumed=(dim,), produced=(produced,))


@dataclass(frozen=True)
class Expand(Primitive):
    """Drop a frontier dim: the output is repeated along it (up-sampling)."""

    arity: int = 1
    is_view: bool = True
    is_one_to_many: bool = True

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 1)
        (dim,) = operands
        return Application(primitive=self, consumed=(dim,), produced=())


@dataclass(frozen=True)
class Unfold(Primitive):
    """Combine a main dim ``N`` and a window dim ``K`` into a sliding window.

    Bottom-up: ``[i, j]:[N, K] <- [i + j - K/2]:[N]``.  Top-down it extracts
    sliding windows of size ``K`` (with zero padding) along the main dim.
    The first operand is the main dim, the second the window dim.
    """

    arity: int = 2
    is_view: bool = True
    is_one_to_many: bool = True

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 2)
        main, window = operands
        if window.size.primary_variables():
            raise PrimitiveError(
                f"Unfold window {window.size!r} must not contain primary variables"
            )
        produced = Dim(size=main.size, role=DimRole.INTERMEDIATE, name=f"{main.name}~{window.name}")
        return Application(primitive=self, consumed=(main, window), produced=(produced,))


@dataclass(frozen=True)
class Stride(Primitive):
    """Strided access: a dim of size ``K`` reads every ``stride``-th element."""

    stride: Size = Size.one()
    arity: int = 1
    is_view: bool = True

    def describe(self) -> str:
        return f"Stride({self.stride!r})"

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 1)
        (dim,) = operands
        if self.stride.is_one:
            raise PrimitiveError("Stride of 1 is the identity")
        produced = Dim(
            size=dim.size * self.stride,
            role=DimRole.INTERMEDIATE,
            name=f"{dim.name}*s",
        )
        return Application(primitive=self, consumed=(dim,), produced=(produced,))


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reduce(Primitive):
    """Introduce a sum-reduction loop over a new dimension of the given size."""

    size: Size = Size.one()
    arity: int = 0
    is_contraction: bool = True

    def describe(self) -> str:
        return f"Reduce({self.size!r})"

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        self._check_operands(graph, operands, 0)
        if self.size.is_one:
            raise PrimitiveError("Reduce over a size-1 dimension is the identity")
        produced = Dim(size=self.size, role=DimRole.REDUCTION, name="r")
        return Application(primitive=self, consumed=(), produced=(produced,))


@dataclass(frozen=True)
class Share(Primitive):
    """Index a weight tensor with an existing frontier coordinate.

    The first operand is the *shared* dim: the weight tensor gains an axis of
    the same size, identified with it, and the data path is unchanged.  Any
    further operands are *matched* dims (the paper's implicit ``Match`` step):
    they are moved from the frontier onto the weight tensor, so the output can
    depend on them only through the weight.

    ``new_weight`` controls whether a fresh weight tensor is created or the
    axes are appended to the weight tensor of the most recent earlier Share,
    whatever was applied in between — Shares appending to one weight model
    multi-axis weights such as the ``[C_out, C_in, K, K]`` tensor of a
    standard convolution.
    """

    new_weight: bool = True
    arity: int = 1
    is_contraction: bool = True

    def describe(self) -> str:
        return "Share" if self.new_weight else "Share(+)"

    def application(self, graph: PGraph, operands: Sequence[Dim]) -> Application:
        if not operands:
            raise PrimitiveError("Share requires at least the shared dim")
        self._check_operands(graph, operands, len(operands))
        shared, *matched = operands
        if self.new_weight:
            weight_index = len(graph.weights)
        else:
            weight_index = graph.weight_index_of_last_share()
            if weight_index is None:
                raise PrimitiveError(
                    "Share(new_weight=False) extends the weight of an earlier Share, "
                    "and the graph has none"
                )
        weight_dims = [
            Dim(size=shared.size, role=DimRole.WEIGHT, name=f"w_{shared.name}", identified_with=shared)
        ]
        for dim in matched:
            weight_dims.append(
                Dim(size=dim.size, role=DimRole.WEIGHT, name=f"w_{dim.name}", identified_with=dim)
            )
        return Application(
            primitive=self,
            consumed=tuple(matched),
            produced=(),
            weight_dims=tuple(weight_dims),
            matched=tuple(matched),
            weight_index=weight_index,
        )


VIEW_PRIMITIVES: tuple[type, ...] = (Split, Merge, Shift, Expand, Unfold, Stride)
CONTRACTION_PRIMITIVES: tuple[type, ...] = (Reduce, Share)
ONE_TO_ONE_VIEWS: tuple[type, ...] = (Split, Merge, Shift)
ONE_TO_MANY_VIEWS: tuple[type, ...] = (Expand, Unfold)
MANY_TO_ONE_VIEWS: tuple[type, ...] = (Stride,)
