"""The pytest configuration of this repository reports every failing
hypothesis property as a test failure and runs on after it."""

import pathlib
import subprocess
import sys

from hypothesis import settings

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTIES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_above(x):
    assert x < 5


@given(st.integers())
def test_fails_below(x):
    assert x > -5


def test_passes():
    assert True
'''


LOG_ZERO = '''
import numpy as np


def test_log_zero():
    np.log(0.0)


def test_log_zero_under_errstate():
    with np.errstate(divide="ignore"):
        assert np.log(0.0) == -np.inf
'''


def run_pytest(tmp_path, name, source):
    """Run the test file `source`, saved as `name`, under this repository's
    pytest configuration."""
    (tmp_path / name).write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", name],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_failing_properties_do_not_abort_the_run(tmp_path):
    run = run_pytest(tmp_path, "test_properties.py", PROPERTIES)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_numpy_runtime_warning_fails_a_test(tmp_path):
    run = run_pytest(tmp_path, "test_log_zero.py", LOG_ZERO)
    assert "RuntimeWarning: divide by zero encountered in log" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_ci_profile_draws_the_same_examples_every_run():
    assert settings.get_profile("ci").derandomize
