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
