"""Tiny configurations of the paper's six backbone models.

Each vision model takes a ``conv_factory`` callable so that the search can
substitute synthesized operators for the standard convolutions (the paper
substitutes *all* standard convolutions); GPT-2 takes a ``projection_factory``
for its QKV projections.  The default factories build the standard layers.

Nothing is re-exported: :mod:`~repro.nn.models.common` (``ConvSlot``) and
:mod:`~repro.nn.models.profiles` load no numpy; the model modules do.
"""
