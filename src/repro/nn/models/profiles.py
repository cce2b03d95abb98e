"""ImageNet-scale layer profiles of the five vision backbones.

Accuracy evaluation runs on tiny model instances (so they can be trained on a
CPU), but latency evaluation — like the paper's — is about the *real* layer
shapes.  This module lists the 3x3 convolution slots of the actual
ImageNet-resolution models; the compiler backends cost these shapes when
regenerating Figures 5, 6, 8 and 9.

Layer shapes follow the original papers (input resolution 224, stem
downsampling to 56x56 for the ResNet family).  DenseNet-121 and
EfficientNetV2-S have many structurally identical layers; they are listed
once with a ``count`` multiplier to keep the tables readable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.models.common import ConvSlot


@dataclass(frozen=True)
class ProfiledSlot:
    """A conv slot plus how many times it repeats in the real model."""

    slot: ConvSlot
    count: int = 1


def _expand(profile: list[ProfiledSlot]) -> list[ConvSlot]:
    slots: list[ConvSlot] = []
    for entry in profile:
        for index in range(entry.count):
            slots.append(
                ConvSlot(
                    name=f"{entry.slot.name}" if entry.count == 1 else f"{entry.slot.name}.{index}",
                    in_channels=entry.slot.in_channels,
                    out_channels=entry.slot.out_channels,
                    spatial=entry.slot.spatial,
                    kernel_size=entry.slot.kernel_size,
                    stride=entry.slot.stride,
                    groups=entry.slot.groups,
                )
            )
    return slots


# -- ResNet-18 / ResNet-34 (He et al. 2016, ImageNet configuration) -----------

RESNET18_PROFILE = _expand([
    ProfiledSlot(ConvSlot("layer1.conv", 64, 64, 56, 3, 1), count=4),
    ProfiledSlot(ConvSlot("layer2.down", 64, 128, 56, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer2.conv", 128, 128, 28, 3, 1), count=3),
    ProfiledSlot(ConvSlot("layer3.down", 128, 256, 28, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer3.conv", 256, 256, 14, 3, 1), count=3),
    ProfiledSlot(ConvSlot("layer4.down", 256, 512, 14, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer4.conv", 512, 512, 7, 3, 1), count=3),
])

RESNET34_PROFILE = _expand([
    ProfiledSlot(ConvSlot("layer1.conv", 64, 64, 56, 3, 1), count=6),
    ProfiledSlot(ConvSlot("layer2.down", 64, 128, 56, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer2.conv", 128, 128, 28, 3, 1), count=7),
    ProfiledSlot(ConvSlot("layer3.down", 128, 256, 28, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer3.conv", 256, 256, 14, 3, 1), count=11),
    ProfiledSlot(ConvSlot("layer4.down", 256, 512, 14, 3, 2), count=1),
    ProfiledSlot(ConvSlot("layer4.conv", 512, 512, 7, 3, 1), count=5),
])

#: The ten ResNet-34 layers Figure 9 reports (L1, L7, L8, L9, L16, L17, L18,
#: L29, L30, L31 in the paper's numbering of the 3x3 convolutions).
RESNET34_FIGURE9_LAYERS: dict[str, ConvSlot] = {
    "L1": ConvSlot("L1", 64, 64, 56, 3, 1),
    "L7": ConvSlot("L7", 64, 128, 56, 3, 2),
    "L8": ConvSlot("L8", 128, 128, 28, 3, 1),
    "L9": ConvSlot("L9", 128, 128, 28, 3, 1),
    "L16": ConvSlot("L16", 128, 256, 28, 3, 2),
    "L17": ConvSlot("L17", 256, 256, 14, 3, 1),
    "L18": ConvSlot("L18", 256, 256, 14, 3, 1),
    "L29": ConvSlot("L29", 256, 512, 14, 3, 2),
    "L30": ConvSlot("L30", 512, 512, 7, 3, 1),
    "L31": ConvSlot("L31", 512, 512, 7, 3, 1),
}

# -- DenseNet-121 (growth rate 32): each dense layer is a 1x1 bottleneck conv
# -- (to 4*growth channels) followed by a 3x3 conv; only the 3x3 is a
# -- substitution target, the 1x1s dilute the achievable end-to-end speedup.

DENSENET121_PROFILE = _expand([
    ProfiledSlot(ConvSlot("dense1.bottleneck", 96, 128, 56, 1, 1), count=6),
    ProfiledSlot(ConvSlot("dense1.conv", 128, 32, 56, 3, 1), count=6),
    ProfiledSlot(ConvSlot("dense2.bottleneck", 256, 128, 28, 1, 1), count=12),
    ProfiledSlot(ConvSlot("dense2.conv", 128, 32, 28, 3, 1), count=12),
    ProfiledSlot(ConvSlot("dense3.bottleneck", 512, 128, 14, 1, 1), count=24),
    ProfiledSlot(ConvSlot("dense3.conv", 128, 32, 14, 3, 1), count=24),
    ProfiledSlot(ConvSlot("dense4.bottleneck", 768, 128, 7, 1, 1), count=16),
    ProfiledSlot(ConvSlot("dense4.conv", 128, 32, 7, 3, 1), count=16),
])

# -- ResNeXt-29 (2x64d): 1x1 reduce, grouped 3x3, 1x1 expand per block --------

RESNEXT29_PROFILE = _expand([
    ProfiledSlot(ConvSlot("stage1.reduce", 64, 128, 56, 1, 1), count=3),
    ProfiledSlot(ConvSlot("stage1.grouped", 128, 128, 56, 3, 1, groups=2), count=3),
    ProfiledSlot(ConvSlot("stage1.expand", 128, 256, 56, 1, 1), count=3),
    ProfiledSlot(ConvSlot("stage2.reduce", 256, 256, 28, 1, 1), count=3),
    ProfiledSlot(ConvSlot("stage2.grouped", 256, 256, 28, 3, 1, groups=2), count=3),
    ProfiledSlot(ConvSlot("stage2.expand", 256, 512, 28, 1, 1), count=3),
    ProfiledSlot(ConvSlot("stage3.reduce", 512, 512, 14, 1, 1), count=3),
    ProfiledSlot(ConvSlot("stage3.grouped", 512, 512, 14, 3, 1, groups=2), count=3),
    ProfiledSlot(ConvSlot("stage3.expand", 512, 1024, 14, 1, 1), count=3),
])

# -- EfficientNetV2-S: fused-MBConv 3x3 convolutions plus the 1x1 projections
# -- and depthwise convolutions of the later MBConv stages --------------------

EFFICIENTNETV2S_PROFILE = _expand([
    ProfiledSlot(ConvSlot("fused1.conv", 24, 24, 112, 3, 1), count=2),
    ProfiledSlot(ConvSlot("fused2.conv", 24, 96, 112, 3, 2), count=1),
    ProfiledSlot(ConvSlot("fused2.conv_b", 48, 192, 56, 3, 1), count=3),
    ProfiledSlot(ConvSlot("fused3.conv", 64, 256, 56, 3, 2), count=1),
    ProfiledSlot(ConvSlot("fused3.conv_b", 64, 256, 28, 3, 1), count=3),
    ProfiledSlot(ConvSlot("fused.project", 256, 64, 28, 1, 1), count=4),
    ProfiledSlot(ConvSlot("mbconv.expand", 128, 512, 14, 1, 1), count=9),
    ProfiledSlot(ConvSlot("mbconv.dw", 512, 512, 14, 3, 1, groups=512), count=9),
    ProfiledSlot(ConvSlot("mbconv.project", 512, 128, 14, 1, 1), count=9),
    ProfiledSlot(ConvSlot("mbconv2.expand", 160, 960, 7, 1, 1), count=15),
    ProfiledSlot(ConvSlot("mbconv2.dw", 960, 960, 7, 3, 1, groups=960), count=15),
    ProfiledSlot(ConvSlot("mbconv2.project", 960, 160, 7, 1, 1), count=15),
])

MODEL_PROFILES: dict[str, list[ConvSlot]] = {
    "resnet18": RESNET18_PROFILE,
    "resnet34": RESNET34_PROFILE,
    "densenet121": DENSENET121_PROFILE,
    "resnext29_2x64d": RESNEXT29_PROFILE,
    "efficientnet_v2_s": EFFICIENTNETV2S_PROFILE,
}

