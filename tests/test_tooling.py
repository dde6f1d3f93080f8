"""The test runner's own configuration: a failing test reports as a failure."""

import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

pytest_plugins = ["pytester"]


def test_failing_property_test_does_not_end_the_session(pytester):
    # under the suite's warning filters, Hypothesis's failure report must not
    # turn into an internal error that stops every later test
    with PYPROJECT.open("rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [\n"
        + "".join(f"    {f!r},\n" for f in filters) + "]\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_a_fails(x):
            assert x < 0

        def test_b_passes():
            pass
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
