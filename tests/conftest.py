import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return TESTS_DIR.parent / "scenarios"


@pytest.fixture
def record(monkeypatch):
    """``record(module, name)`` wraps ``module.name`` for the test and
    returns the list that collects its results, one per call."""
    def install(module, name: str) -> list:
        fn, results = getattr(module, name), []

        def wrapper(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, name, wrapper)
        return results

    return install
