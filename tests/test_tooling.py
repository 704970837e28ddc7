"""Repository tooling: the pytest configuration reports a failing hypothesis
test as a failure, with its falsifying example, and goes on with the session;
the sources parse under the oldest supported Python."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None, max_examples=10, deadline=None)
    @given(x=st.integers(0, 10))
    def test_fails(x):
        assert x < 0


    def test_passes():
        assert True
""")


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_failing_example.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing_example.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10; this catches newer syntax on any interpreter
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
