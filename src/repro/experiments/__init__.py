"""One module per table/figure of the paper's evaluation (Section 9).

Every module exposes a ``run(...)`` function returning plain dataclasses /
dictionaries.  The shared runner (:mod:`repro.experiments.runner`,
``run_experiment(name, config)``) routes the same run through one entry
point and returns a persistable :class:`repro.results.ResultRecord`.  The
pytest-benchmark harness under ``benchmarks/``, the ``repro`` CLI and the
example scripts all invoke experiments through that runner, so results are
produced identically everywhere.  See ``docs/experiments.md`` for the figure/table → command map.

Nothing is re-exported: the runner's registry names each experiment module,
and a run imports only its own.
"""
