"""End-to-end search: operator extraction, substitution, evaluation, session.

This package implements the outer loop of Algorithm 1: extract the operator
slots from a backbone model, synthesize candidate substitutions with MCTS
(using proxy-training accuracy as reward under a FLOPs budget), and evaluate
the surviving candidates' end-to-end latency with the simulated tensor
compiler on each hardware target.

Nothing is re-exported, so latency evaluation and the shard executor load
without the training stack that substitution and the session need.
"""
