"""Shared test helpers."""

import pytest


def _same_lines(got, ref):
    """Compare two file contents (str or bytes) line by line and fail on the
    first differing line. A plain `==` on large text makes pytest build a
    diff of the whole of both, which runs for minutes."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    for i, (g, r) in enumerate(zip(got_lines, ref_lines)):
        if g != r:
            pytest.fail(f"line {i + 1} differs:\n  got {g!r}\n  ref {r!r}",
                        pytrace=False)
    if len(got_lines) != len(ref_lines):
        pytest.fail(f"{len(got_lines)} lines, expected {len(ref_lines)}",
                    pytrace=False)
    if got != ref:
        pytest.fail("same lines, different line endings", pytrace=False)


@pytest.fixture()
def assert_same_lines():
    return _same_lines
