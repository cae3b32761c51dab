"""The test session itself: a failing property test fails like any other test."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent


def test_failing_hypothesis_test_leaves_the_session_running(pytester):
    # The repository's warning filters, DeprecationWarning as error included,
    # and its tests/conftest.py, around one failing and one passing test.
    filters = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"][
        "ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
