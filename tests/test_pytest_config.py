"""The repository's pytest settings report a failing property test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(x):
        assert x > 0


    def test_passes():
        pass
    """
)


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # On failure hypothesis imports libcst to suggest a patch; with warnings
    # as errors a third-party DeprecationWarning raised by that import used to
    # end the session with INTERNALERROR (exit 3) before later tests ran.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
