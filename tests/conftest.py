import pytest

from advqls import vqls


def _clear_memo():
    vqls._reference.cache_clear()
    vqls._cost_evaluator.cache_clear()


@pytest.fixture
def cold_memo():
    """Empty the process memo of `vqls.run_ensemble` before the test, so
    the test starts from a cold build, and again after it, so nothing the
    test built stays pinned. Yields the function that empties it."""
    _clear_memo()
    yield _clear_memo
    _clear_memo()
