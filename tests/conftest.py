import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus(ray_session):
    """Cached deterministic 1k-image corpus (FIXTURES.md t1 tier)."""
    from gdal_ray.fixtures.generate import generate_corpus

    n = int(os.environ.get("GDAL_RAY_TEST_IMAGES", "1000"))
    return generate_corpus(n)


@pytest.fixture
def inflate_backends(monkeypatch):
    """Iterates the ``codec.inflate`` backends inside one test: yields
    "libdeflate" where the library loads, then forces the zlib fallback
    for the rest of the test and yields "zlib". A loop keeps each test's
    name while its body runs on both backends."""
    from gdal_ray.io import codec

    def backends():
        if codec._libdeflate() is not None:
            yield "libdeflate"
        monkeypatch.setattr(codec, "_libdeflate", lambda: None)
        yield "zlib"

    return backends


@pytest.fixture
def bucket_sorts(monkeypatch):
    """``bucket_sorts(cpus)`` makes ``cluster_cpus()`` read ``cpus`` and
    returns a list that records the ``boundaries`` argument (None when
    absent) of every ``Dataset.sort("__bucket")`` planned from then on."""
    import inspect

    import ray.data

    from gdal_ray.ops import runtime

    sort = ray.data.Dataset.sort
    calls = []

    def spy(self, *args, **kwargs):
        bound = inspect.signature(sort).bind(self, *args, **kwargs).arguments
        if bound["key"] == "__bucket":
            calls.append(bound.get("boundaries"))
        return sort(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "sort", spy)

    def at(cpus: int) -> list:
        monkeypatch.setattr(runtime, "cluster_cpus", lambda: cpus)
        return calls

    return at
