"""Baselines the paper compares against.

* :mod:`repro.baselines.nas_pte` — the three loop-transformation operator
  sequences of Turner et al. (NAS-PTE): grouping, bottlenecking and their
  combination, expressed as pGraphs so they flow through the same code
  generation and compilation pipeline as Syno's operators;
* :mod:`repro.baselines.stacked_conv` — the stacked grouped convolution used
  in the Figure 8 case study (what traditional NAS could have found instead of
  Operator 1);
* :mod:`repro.baselines.quantization` — INT8 post-training quantization (the
  other accuracy-for-latency trade in Figure 8);
* :mod:`repro.baselines.alphanas` — an αNAS-style coarse-grained subgraph
  substituter, used for the FLOPs-reduction comparison of Section 9.2.

Nothing is re-exported, so the NAS-PTE pGraphs load without numpy.
"""
