"""Pytest bootstrap: the process edge, ``src/`` on the path, per-test deadlines.

The package is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in fully offline environments); the path shim
below lets ``pytest`` run straight from a source checkout as well.

Every test — setup, call and teardown — runs under a deadline: the test's
``timeout`` marker, else ``DEFAULT_TIMEOUT`` seconds.  When the
``pytest-timeout`` plugin is installed it enforces the marker; otherwise the
SIGALRM guard below does, dumping every thread's traceback before it fails
the test, so a hung test fails with a stack instead of wedging the suite.
"""

import faulthandler
import os
import signal
import sys
import time

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: default per-test deadline (seconds) when a test carries no timeout marker.
DEFAULT_TIMEOUT = int(os.environ.get("REPRO_BENCH_TIMEOUT", "900"))

#: monotonic time by which the test must have finished all three phases.
_DEADLINE = pytest.StashKey[float]()


def pytest_configure(config):
    """The pytest process edge of the runtime API.

    Sets the suite's ``REPRO_*`` defaults, then builds the process-default
    :class:`repro.runtime.RuntimeContext`, which parses the environment
    exactly once.  Changing a ``REPRO_*`` variable after this point steers
    nothing: a test that needs another config activates one
    (``with current().derive(...).activate():``).

    * ``REPRO_SMOKE=1`` keeps ``python -m pytest -x -q`` within minutes
      (fewer models/layers/samples, smaller tuning budgets, short proxy
      training); export ``REPRO_SMOKE=0`` for a full-fidelity run.
    * ``REPRO_VERIFY_PLANS=1`` statically verifies every plan
      ``compile_plan()`` produces before it enters the cache.  Verification
      runs once per memoized plan, so the cost is noise; the hot path keeps
      the knob off by default.

    ``setdefault`` so an explicit value in the caller's environment still
    wins (e.g. ``REPRO_VERIFY_PLANS=0`` for A/B timing).
    """
    config.addinivalue_line(
        "markers", "timeout(seconds): fail the test if it runs longer than this"
    )
    os.environ.setdefault("REPRO_SMOKE", "1")
    os.environ.setdefault("REPRO_VERIFY_PLANS", "1")
    from repro.runtime import default_context

    default_context()


def _timeout_seconds(item) -> int:
    marker = item.get_closest_marker("timeout")
    if marker and marker.args:
        return int(marker.args[0])
    return DEFAULT_TIMEOUT


def _guarded(item, phase: str):
    """Run one test phase under what is left of the test's deadline.

    The deadline starts with setup and spans call and teardown; the alarm is
    only armed while a phase runs, so it never fires inside pytest itself.
    """
    seconds = _timeout_seconds(item)
    if (
        item.config.pluginmanager.hasplugin("timeout")  # real plugin handles it
        or not hasattr(signal, "SIGALRM")
        or seconds <= 0
    ):
        return (yield)
    if phase == "setup":
        item.stash[_DEADLINE] = time.monotonic() + seconds
    deadline = item.stash.get(_DEADLINE, time.monotonic() + seconds)

    def _on_alarm(signum, frame):
        faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds}s timeout guard during {phase}"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _guarded(item, "setup"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _guarded(item, "call"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    return (yield from _guarded(item, "teardown"))
