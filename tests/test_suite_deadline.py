"""The per-test deadline of the root ``conftest.py``.

A hung test must fail with a traceback instead of wedging the suite, in
whichever phase it hangs — including fixture teardown, which a guard around
the test call alone never sees.  Each case runs a throwaway suite under the
real root ``conftest.py`` in a subprocess.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

REPO_ROOT = Path(__file__).resolve().parent.parent

HUNG_SUITE = """
import time

import pytest


@pytest.fixture
def hangs_in_setup():
    time.sleep(60)
    yield


@pytest.fixture
def hangs_in_teardown():
    yield
    time.sleep(60)


@pytest.mark.timeout(1)
def test_setup(hangs_in_setup):
    pass


@pytest.mark.timeout(1)
def test_call():
    time.sleep(60)


@pytest.mark.timeout(1)
def test_teardown(hangs_in_teardown):
    pass
"""


@pytest.mark.timeout(120)
def test_a_hang_in_any_phase_fails_instead_of_hanging(pytester, monkeypatch):
    pytester.makeconftest((REPO_ROOT / "conftest.py").read_text())
    pytester.makepyfile(test_hung=HUNG_SUITE)
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    start = time.monotonic()
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", timeout=90)
    assert time.monotonic() - start < 60  # no phase slept its full minute
    result.assert_outcomes(passed=1, failed=1, errors=2)
    output = result.stdout.str()
    for phase in ("setup", "call", "teardown"):
        assert f"exceeded the 1s timeout guard during {phase}" in output
    # Every thread's stack was dumped before the test failed.
    assert "most recent call first" in output + result.stderr.str()
