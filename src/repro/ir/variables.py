"""Symbolic variables for dimension sizes.

The paper distinguishes two classes of symbols (Section 5.4):

* *primary* variables are input/output dimension sizes (``N``, ``C_in``,
  ``H``...).  They are assumed large and may not appear in the denominator of
  a coordinate expression.
* *coefficient* variables are introduced by primitives (e.g. the block size of
  a ``Merge`` or the window of an ``Unfold``).  They are assumed small and may
  appear in denominators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class VariableKind(enum.Enum):
    """Classification of a symbolic size variable."""

    PRIMARY = "primary"
    COEFFICIENT = "coefficient"


@dataclass(frozen=True, order=True)
class Variable:
    """A named symbolic variable with an optional default concrete value.

    Variables compare and hash by name and kind so that two mentions of
    ``H`` always denote the same symbol.
    """

    name: str
    kind: VariableKind = field(default=VariableKind.PRIMARY, compare=True)
    default: int | None = field(default=None, compare=False)

    @property
    def is_primary(self) -> bool:
        return self.kind is VariableKind.PRIMARY

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name


def primary(name: str, default: int | None = None) -> Variable:
    """Create a primary variable (an input/output dimension size)."""
    return Variable(name, VariableKind.PRIMARY, default)


def coefficient(name: str, default: int | None = None) -> Variable:
    """Create a coefficient variable (a small primitive parameter)."""
    return Variable(name, VariableKind.COEFFICIENT, default)
