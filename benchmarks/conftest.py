"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper through the same
runner API the ``repro`` CLI uses (:mod:`repro.experiments.runner`, via
``benchmarks._harness.run_experiment_once``), so pytest and the command line
produce results identically; see docs/experiments.md for the figure → command
map.  Benchmarks run their experiment exactly once per session (rounds=1)
because the quantity of interest is the experiment's *output*, not the
harness's wall-clock time; the timing is still recorded by pytest-benchmark
for regression tracking.

Budget knobs are fields of :class:`repro.runtime.RuntimeConfig`.  The
``REPRO_*`` environment variables are read once, when the root
``conftest.py`` builds the process-default context; that edge defaults
``REPRO_SMOKE`` to ``1`` so the suite finishes in minutes (export
``REPRO_SMOKE=0`` for a full-fidelity run).  ``REPRO_TRAIN_STEPS``
overrides the proxy-training step budget everywhere.

Every benchmark also carries a ``timeout`` marker, which the root
``conftest.py`` registers and enforces.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
