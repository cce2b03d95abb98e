"""One module per table/figure of the paper's evaluation (Section 9).

Every module exposes a ``run(...)`` function returning plain dataclasses /
dictionaries.  The shared runner (:mod:`repro.experiments.runner`,
``run_experiment(name, config)``) routes the same run through one entry
point and returns a persistable :class:`repro.results.ResultRecord`.  The
pytest-benchmark harness under ``benchmarks/``, the ``repro`` CLI and the
example scripts all invoke experiments through that runner, so results are
produced identically everywhere.  See ``docs/experiments.md`` for the figure/table → command map.
"""

from repro.experiments import (  # noqa: F401
    ablation_materialization,
    ablation_shape_distance,
    alphanas_comparison,
    common,
    figure5,
    figure6,
    figure8,
    figure9,
    figure10,
    runner,
    table3,
)

__all__ = [
    "common",
    "figure5",
    "figure6",
    "figure8",
    "figure9",
    "figure10",
    "runner",
    "table3",
    "ablation_shape_distance",
    "ablation_materialization",
    "alphanas_comparison",
]
