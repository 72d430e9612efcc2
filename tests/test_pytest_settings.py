"""The suite's own pytest settings let a failing property test report.

pyproject.toml turns every warning into an error. When a Hypothesis test
fails, Hypothesis writes a patch of its failing example on teardown, which
imports a module that warns on import; as an error that warning ended the
session in INTERNALERROR, with no example printed and the rest of the file
not run. The one ignore entry in filterwarnings keeps the report.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out and "x=10" in out
    assert "1 failed, 1 passed" in out
