"""The test settings of pyproject.toml: every warning is an error, and a
failing hypothesis property is still reported as one failed test, with the
tests after it run."""

from pathlib import Path

pytest_plugins = ("pytester",)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_is_reported_and_the_next_test_runs(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_a_false_property(x):
            assert x < 5


        def test_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py", timeout=120)
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
