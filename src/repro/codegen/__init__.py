"""Code generators for synthesized operators (Section 8).

Two backends mirror the paper's:

* :mod:`repro.codegen.eager` — the PyTorch-like generator: lowers a pGraph
  top-down into differentiable tensor operations of :mod:`repro.nn`, so the
  operator can be dropped into a backbone model and trained;
* :mod:`repro.codegen.loopnest` — the TVM-TE-like generator: lowers the
  pGraph bottom-up into a loop-nest IR (with the materialized-reduction
  optimization of Figure 4) that the simulated tensor compiler schedules and
  costs; :func:`~repro.codegen.loopnest.cached_loopnest` memoizes it per
  ``(graph, binding)`` in the runtime context.

:mod:`repro.codegen.plan` compiles the eager lowering once per
``(graph, binding)`` into a flat :class:`~repro.codegen.plan.ExecutionPlan`
of primitive numpy steps with a matching hand-derived backward plan;
``EagerOperator.forward`` runs through it by default
(``REPRO_COMPILED_FORWARD=0`` restores the per-call interpreter).

Nothing is re-exported, so the loop-nest generator loads without numpy and
the eager and plan generators.
"""
