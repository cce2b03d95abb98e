"""End-to-end search: operator extraction, substitution, evaluation, session.

This package implements the outer loop of Algorithm 1: extract the operator
slots from a backbone model, synthesize candidate substitutions with MCTS
(using proxy-training accuracy as reward under a FLOPs budget), and evaluate
the surviving candidates' end-to-end latency with the simulated tensor
compiler on each hardware target.
"""

from repro.search.parallel import sharded_map
from repro.search.substitution import SynthesizedConv2d, SynthesizedLinear, synthesized_conv_factory
from repro.search.extraction import extract_conv_slots, conv_spec_from_slots, VISION_COEFFICIENTS
from repro.search.evaluator import AccuracyEvaluator, LatencyEvaluator, EvaluationSettings
from repro.search.session import SearchSession, SearchConfig, CandidateResult

__all__ = [
    "SynthesizedConv2d",
    "SynthesizedLinear",
    "synthesized_conv_factory",
    "extract_conv_slots",
    "conv_spec_from_slots",
    "VISION_COEFFICIENTS",
    "AccuracyEvaluator",
    "LatencyEvaluator",
    "EvaluationSettings",
    "SearchSession",
    "SearchConfig",
    "CandidateResult",
    "sharded_map",
]
