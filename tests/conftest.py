import pytest

from l4span.harness.acceptance import AcceptanceRunner


@pytest.fixture(scope="session")
def acc():
    """Shared acceptance runner: scenario runs are memoized across tests."""
    return AcceptanceRunner()
