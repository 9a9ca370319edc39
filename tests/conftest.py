import pytest


@pytest.fixture(autouse=True, scope="session")
def no_user_cache():
    """Run the suite without the caller's ``CIRCFIB_CACHE``, so that a CLI run
    with no ``--cache-dir``, in process or in a child, neither reads nor writes
    the user's disk cache; a test that wants the variable sets it itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CIRCFIB_CACHE", raising=False)
        yield
