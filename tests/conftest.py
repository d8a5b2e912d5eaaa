import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ternrep",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ternrep")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool that scan_compare starts, in
    order.  The pools are real; os.cpu_count reads 4, so that a scan that
    earns a pool gets one on any machine."""
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return sizes
