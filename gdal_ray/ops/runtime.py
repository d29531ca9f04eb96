"""Per-process runtime helpers: the cluster CPU count, the one bounded
cache rule every per-process memo in the engine follows, and the log
filter the scripts share."""

from __future__ import annotations

__all__ = ["cluster_cpus", "memo", "drop_schema_noise"]

_MISS = object()


def cluster_cpus() -> int:
    """Logical CPUs of the connected Ray cluster (8 when Ray is not up)."""
    import ray

    try:
        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        pass
    return 8


def memo(cache: dict, key, build, cap: int):
    """``cache[key]``, computed by ``build()`` on a miss.

    A miss that finds ``cap`` entries clears the dict first; this is the
    only place a cache is cleared. A caller that maps a whole batch through
    cached values gathers them into a local dict first
    (``{k: memo(cache, k, ...) for k in unique_keys}``) and maps the batch
    through that, so an eviction never loses a key the batch still needs.
    """
    hit = cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    value = build()
    if len(cache) >= cap:
        cache.clear()
    cache[key] = value
    return value


def drop_schema_noise() -> None:
    """Drop Ray 2.49's per-0-row-block 'RefBundle with a different schema'
    WARNING (surplus hash partitions, see ops/shuffle.py) from this
    process's logs; it is harmless."""
    import logging

    logging.getLogger("ray.data._internal.execution.streaming_executor_state").addFilter(
        lambda rec: "RefBundle with a different schema" not in rec.getMessage()
    )
