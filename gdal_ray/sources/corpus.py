"""Dataset sources for the image+caption corpus and its side tables.

The corpus layout is one table per logical layer (images, placements,
polygons, query_points, rasters) — parquet here, Lance when available,
identical schema (BASELINE.json input_hint). Readers always pass
``columns=`` so only needed columns leave storage.
"""

from __future__ import annotations

import os

import ray.data as rd

__all__ = [
    "read_images",
    "read_polygons",
    "read_rasters",
    "read_table",
    "read_parquet_tight",
]


def _path(corpus_dir: str, name: str) -> str:
    return os.path.join(corpus_dir, f"{name}.parquet")


def read_parquet_tight(path: str, columns=None, **kw) -> rd.Dataset:
    """``read_parquet`` with the files' schema metadata stripped, and the
    read-task count capped at the ROW-GROUP count — but ONLY when that cap
    still provides at least one block per CPU.

    Metadata: Ray dedups block schemas through a set, and a schema with
    metadata (pandas writes a dict-valued entry) cannot be hashed, so
    every read task logged "Failed to hash the schemas". The read takes
    the first file's schema (``columns`` only) without it.

    Task count: Ray's default splits a file into ~CPU-count read tasks;
    surplus tasks on small tables emit 0-row schema-less blocks that
    downstream operators log "RefBundle with a different schema" warnings
    for. Capping at the row-group total (footer metadata only) removes
    them — but a cap BELOW the CPU count would serialize every fused
    downstream stage (measured: a 100-row single-row-group rasters table
    went 3.8 s -> 17 s), so small tables keep Ray's default split and the
    cosmetic warnings.

    Fusion barrier: Ray meets that split by adding ``SplitBlocks(n)`` to
    the read, and never fuses a downstream map into an operator whose
    split factor is above 1 (``ray/data/_internal/logical/rules/
    operator_fusion.py:168`` in Ray 2.49). So a small table read here runs
    two task rounds, the read task and then one map task per split block,
    and building the Dataset runs a remote fragment-sampling task. The
    images and query_points tables avoid both through the fused source
    (``pipelines/flagship.fused_table_apply``); polygons, rasters and the
    single-row-group TPC-H tables still read here."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gdal_ray.ops.runtime import cluster_cpus

    try:
        if os.path.isdir(path):
            files = sorted(
                os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
            )
        else:
            files = [path]
        if "override_num_blocks" not in kw:
            nrg = sum(pq.ParquetFile(f).metadata.num_row_groups for f in files)
            if nrg >= cluster_cpus():
                kw["override_num_blocks"] = nrg
        if "schema" not in kw:
            full = pq.read_schema(files[0])
            kw["schema"] = pa.schema(
                [pa.field(f.name, f.type, f.nullable)
                 for f in (full if columns is None else map(full.field, columns))]
            )
    except Exception:
        pass
    return rd.read_parquet(path, columns=columns, **kw)


def read_table(corpus_dir: str, name: str, columns=None, **kw) -> rd.Dataset:
    """Read one corpus table. BASELINE.json names Lance tables: if a
    ``<name>.lance`` dataset exists (and the lance package is importable —
    it is NOT baked into this container), it is preferred via
    ``ray.data.read_lance``; the parquet layout with the identical schema
    is the fallback and the tested path here."""
    lance_path = os.path.join(corpus_dir, f"{name}.lance")
    if os.path.exists(lance_path):
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise RuntimeError(
                f"{lance_path} exists but the lance package is unavailable"
            ) from e
        return rd.read_lance(lance_path, columns=columns, **kw)
    return read_parquet_tight(_path(corpus_dir, name), columns=columns, **kw)


def read_images(corpus_dir: str, columns=None, **kw) -> rd.Dataset:
    """Image payload table. Prune columns: metadata-only stages must NOT
    read ``bytes`` (wide binary rows stay out of shuffles)."""
    return read_table(corpus_dir, "images", columns=columns, **kw)


def _split_gt(batch):
    """fixed_size_list gt -> scalar columns gt0..gt5 (join/SQL friendly;
    Acero hash join rejects fixed_size_list non-key fields)."""
    import numpy as np
    import pyarrow as pa

    col = batch["gt"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    m = np.asarray(col.flatten(), dtype=np.float64).reshape(-1, 6)
    batch = batch.drop_columns(["gt"])
    for i in range(6):
        batch = batch.append_column(f"gt{i}", pa.array(m[:, i]))
    return batch


def read_polygons(corpus_dir: str, columns=None, **kw) -> rd.Dataset:
    return read_table(corpus_dir, "polygons", columns=columns, **kw)


def read_rasters(corpus_dir: str, columns=None, **kw) -> rd.Dataset:
    return read_table(corpus_dir, "rasters", columns=columns, **kw)
