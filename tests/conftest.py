import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _isolate_cache(tmp_path, monkeypatch):
    """Point the result cache at a throwaway file for every test."""
    monkeypatch.setenv("HILBLOC_CACHE", str(tmp_path / "results.jsonl"))
