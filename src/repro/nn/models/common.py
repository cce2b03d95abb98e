"""Shared infrastructure for substitutable convolution slots.

A *conv slot* is one place in a backbone model where a standard convolution
(or any drop-in operator with the same input/output shapes) is instantiated.
Models call a ``conv_factory`` for every slot; the default factory builds the
standard :class:`~repro.nn.layers.Conv2d`, a :class:`RecordingFactory` records
the slots (used to derive per-layer bindings for synthesis), and the search
provides a factory that instantiates synthesized operators instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.nn.module import Module


@dataclass(frozen=True)
class ConvSlot:
    """Description of one convolution slot in a backbone model."""

    name: str
    in_channels: int
    out_channels: int
    spatial: int            #: input feature-map height/width at this slot
    kernel_size: int = 3
    stride: int = 1
    groups: int = 1

    @property
    def output_spatial(self) -> int:
        return self.spatial // self.stride

    def macs(self, batch: int = 1) -> int:
        """Multiply-accumulates of the standard convolution in this slot."""
        return (
            batch
            * self.out_channels
            * self.output_spatial
            * self.output_spatial
            * (self.in_channels // self.groups)
            * self.kernel_size
            * self.kernel_size
        )

    def parameters(self) -> int:
        return self.out_channels * (self.in_channels // self.groups) * self.kernel_size**2


#: A conv factory maps a slot description to a module implementing it.
ConvFactory = Callable[[ConvSlot], "Module"]


def default_conv_factory(slot: ConvSlot) -> Module:
    """The standard convolution for a slot (the paper's baseline operator)."""
    # Imported here so slot descriptions load without numpy: latency
    # evaluation and the library specs use ConvSlot but build no layers.
    from repro.nn.layers import Conv2d

    return Conv2d(
        slot.in_channels,
        slot.out_channels,
        kernel_size=slot.kernel_size,
        stride=slot.stride,
        groups=slot.groups,
    )


@dataclass
class RecordingFactory:
    """A conv factory that records every slot while delegating construction.

    Used to extract the operator specification (and its per-layer concrete
    bindings) from a backbone model, which is the ``ExtractOperators`` step of
    Algorithm 1.
    """

    delegate: ConvFactory = default_conv_factory
    slots: list[ConvSlot] = field(default_factory=list)

    def __call__(self, slot: ConvSlot) -> Module:
        self.slots.append(slot)
        return self.delegate(slot)

    def substitutable(self, kernel_size: int = 3, groups: int = 1) -> list[ConvSlot]:
        """Slots eligible for substitution (standard, non-grouped convolutions)."""
        return [
            slot
            for slot in self.slots
            if slot.kernel_size == kernel_size and slot.groups == groups
        ]
