"""Shape specifications for operator inputs and outputs.

A :class:`ShapeSpec` is an ordered list of symbolic :class:`~repro.ir.size.Size`
objects.  Operator synthesis is performed on symbolic shapes (Section 5.4) and
the shapes are only bound to concrete integers at code-generation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.ir.size import Size, SizeError
from repro.ir.variables import Variable


@dataclass(frozen=True)
class ShapeSpec:
    """An ordered tuple of symbolic dimension sizes.

    :attr:`total` and :meth:`multiset_key` are computed once and kept on the
    instance; the pickled state holds only the sizes.
    """

    sizes: tuple[Size, ...]

    # Per-instance caches (class-level defaults, not dataclass fields).
    _total = None
    _multiset_key = None

    @staticmethod
    def of(dims: "ShapeSpec | Iterable[Size | Variable | int]") -> "ShapeSpec":
        if isinstance(dims, ShapeSpec):
            return dims
        return ShapeSpec(tuple(Size.of(d) for d in dims))

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(Size.of(s) for s in self.sizes))

    def __getstate__(self) -> dict:
        return {"sizes": self.sizes}

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __getitem__(self, index: int) -> Size:
        return self.sizes[index]

    @property
    def total(self) -> Size:
        """The product of all dimension sizes (the domain of the shape)."""
        total = self._total
        if total is None:
            total = Size.product(self.sizes)
            object.__setattr__(self, "_total", total)
        return total

    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for size in self.sizes:
            result.update(size.variables())
        return frozenset(result)

    def evaluate(self, bindings: Mapping[Variable, int] | None = None) -> tuple[int, ...]:
        return tuple(size.evaluate(bindings) for size in self.sizes)

    def numel(self, bindings: Mapping[Variable, int] | None = None) -> int:
        result = 1
        for extent in self.evaluate(bindings):
            result *= extent
        return result

    def multiset_key(self) -> tuple[str, ...]:
        """The sizes' reprs, sorted: equal for shapes that are permutations."""
        key = self._multiset_key
        if key is None:
            key = tuple(sorted(map(repr, self.sizes)))
            object.__setattr__(self, "_multiset_key", key)
        return key

    def same_multiset(self, other: "ShapeSpec") -> bool:
        """Whether the two shapes contain the same sizes up to permutation."""
        return self.multiset_key() == other.multiset_key()

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(size) for size in self.sizes) + "]"


@dataclass(frozen=True)
class TensorSpec:
    """A named tensor with a symbolic shape, e.g. the operator input."""

    name: str
    shape: ShapeSpec

    @staticmethod
    def of(name: str, dims: Sequence[Size | Variable | int]) -> "TensorSpec":
        return TensorSpec(name, ShapeSpec.of(dims))

    def evaluate(self, bindings: Mapping[Variable, int] | None = None) -> tuple[int, ...]:
        return self.shape.evaluate(bindings)

    def __repr__(self) -> str:
        return f"{self.name}{self.shape!r}"


def check_bindings_cover(shape: ShapeSpec, bindings: Mapping[Variable, int]) -> None:
    """Validate that ``bindings`` (plus defaults) make ``shape`` concrete."""
    for size in shape:
        try:
            size.evaluate(bindings)
        except SizeError as exc:
            raise SizeError(f"shape {shape} not concrete under {bindings}: {exc}") from exc
