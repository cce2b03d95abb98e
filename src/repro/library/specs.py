"""Named design spaces the graph library is built for.

One :class:`SpaceSpec` per slot family: the GPT-2 QKV projection slot (the
matmul space ``repro run search`` explores) and one representative 3x3
convolution slot per vision backbone profiled in
:mod:`repro.nn.models.profiles`.  ``repro library build --family all`` sweeps
every one of these; the warm-start path loads the family matching the
experiment's searched spec.

The GPT-2 space here and the search experiment must stay
construction-identical — ``repro.experiments.search.run`` builds its spec and
options through :func:`gpt2_projection_space`, and a regression test pins the
proxy-training binding to the experiment's constants — otherwise a library
built ahead of time would describe a different space than the search
explores and warm-starting would silently seed garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.enumeration import EnumerationOptions, default_options_for
from repro.core.library import (
    C_IN,
    C_OUT,
    GROUPS,
    H,
    K,
    K1,
    M,
    N,
    OUT_FEATURES,
    SHRINK,
    W,
    conv2d_spec,
    matmul_spec,
)
from repro.core.operator import OperatorSpec
from repro.ir.variables import Variable
from repro.nn.models.common import ConvSlot
from repro.nn.models.profiles import MODEL_PROFILES
from repro.search.extraction import VISION_COEFFICIENTS

#: rows each GPT-2 QKV projection sees per proxy-training batch
#: (batch 8 x sequence 16) and the tiny model's embedding width — fixed by
#: :mod:`repro.experiments.search`, pinned by a regression test there.
GPT2_ROWS = 128
GPT2_EMBED = 32


@dataclass(frozen=True)
class SpaceSpec:
    """A named, fully-bound design space the library can be built for."""

    #: family name (``repro library build <name>``) — doubles as the library
    #: artifact name.
    name: str
    #: backbone the slot was taken from (informational).
    model: str
    spec: OperatorSpec
    options: EnumerationOptions
    description: str

    @property
    def binding(self) -> dict[Variable, int]:
        """The budget binding (first spec binding; the builder's default)."""
        return dict(self.spec.bindings[0]) if self.spec.bindings else {}


def gpt2_projection_space(max_depth: int = 4) -> SpaceSpec:
    """The GPT-2 QKV projection (matmul) space ``repro run search`` explores.

    Construction mirrors :func:`repro.experiments.search.run` exactly: same
    binding, no coefficient sizes (they starve random rollouts), MACs budget
    pinned to the dense projection.
    """
    binding: Mapping[Variable, int] = {
        M: GPT2_ROWS,
        K: GPT2_EMBED,
        OUT_FEATURES: GPT2_EMBED,
        GROUPS: 2,
    }
    spec = matmul_spec(bindings=(binding,))
    options = default_options_for(
        spec,
        coefficients=[],
        max_depth=max_depth,
        macs_budget_ratio=1.0,
        reference_macs=GPT2_ROWS * GPT2_EMBED * GPT2_EMBED,
    )
    return SpaceSpec(
        name="gpt2",
        model="gpt2_tiny",
        spec=spec,
        options=options,
        description="GPT-2 QKV projection slot ([M, K] -> [M, F])",
    )


def conv_slot_space(name: str, model: str, slot: ConvSlot, max_depth: int = 3) -> SpaceSpec:
    """The conv2d space of one profiled 3x3 slot, budgeted at the slot's MACs."""
    binding: Mapping[Variable, int] = {
        N: 1,
        C_IN: slot.in_channels,
        C_OUT: slot.out_channels,
        H: slot.spatial,
        W: slot.spatial,
        K1: slot.kernel_size,
        GROUPS: max(slot.groups, 2),
        SHRINK: 2,
    }
    spec = conv2d_spec(bindings=(binding,))
    reference_macs = (
        slot.spatial * slot.spatial * slot.in_channels * slot.out_channels
        * slot.kernel_size * slot.kernel_size
    ) // max(slot.groups, 1)
    options = default_options_for(
        spec,
        coefficients=list(VISION_COEFFICIENTS),
        max_depth=max_depth,
        macs_budget_ratio=1.0,
        reference_macs=reference_macs,
    )
    return SpaceSpec(
        name=name,
        model=model,
        spec=spec,
        options=options,
        description=(
            f"{model} {slot.name} "
            f"({slot.in_channels}->{slot.out_channels} @{slot.spatial}, "
            f"k={slot.kernel_size}, g={slot.groups})"
        ),
    )


def _profiled_slot(model: str, slot_name: str) -> ConvSlot:
    for slot in MODEL_PROFILES[model]:
        if slot.name.startswith(slot_name):
            return slot
    raise KeyError(f"no slot named {slot_name!r} in the {model} profile")


def design_spaces(max_depth: int | None = None) -> dict[str, SpaceSpec]:
    """Every slot-family space, keyed by family name (fresh on every call).

    ``max_depth`` bounds every family; ``None`` keeps each family's default
    (conv: 3, gpt2: 4).  The representative conv slot per backbone is the
    first (earliest-stage) full-resolution 3x3 convolution of its profile —
    the slot class the paper substitutes most often.
    """
    conv_depth = 3 if max_depth is None else max_depth
    spaces = [
        gpt2_projection_space(max_depth=4 if max_depth is None else max_depth),
        conv_slot_space("resnet", "resnet18", _profiled_slot("resnet18", "layer1.conv"), conv_depth),
        conv_slot_space(
            "resnext", "resnext29_2x64d", _profiled_slot("resnext29_2x64d", "stage1.grouped"), conv_depth
        ),
        conv_slot_space(
            "densenet", "densenet121", _profiled_slot("densenet121", "dense1.conv"), conv_depth
        ),
        conv_slot_space(
            "efficientnet", "efficientnet_v2_s", _profiled_slot("efficientnet_v2_s", "fused1.conv"), conv_depth
        ),
    ]
    return {space.name: space for space in spaces}


def space_for(name: str, max_depth: int | None = None) -> SpaceSpec:
    """The named family's space; depth defaults per family (gpt2: 4, conv: 3)."""
    spaces = design_spaces(max_depth)
    if name not in spaces:
        raise KeyError(
            f"unknown slot family {name!r}; available: {', '.join(sorted(spaces))}"
        )
    return spaces[name]
