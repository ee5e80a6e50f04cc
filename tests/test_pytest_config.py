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


def test_failing_properties_do_not_abort_the_run(tmp_path):
    (tmp_path / "test_properties.py").write_text(PROPERTIES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_properties.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_ci_profile_draws_the_same_examples_every_run():
    assert settings.get_profile("ci").derandomize
