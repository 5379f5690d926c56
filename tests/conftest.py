import pytest

from banditlab import harness


@pytest.fixture
def no_replicas(monkeypatch):
    def no_replica(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(harness, "run_replica", no_replica)
