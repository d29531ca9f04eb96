"""Similarity search over embedding columns.

Brute-force cosine top-k as the exact baseline: the query matrix is small
(broadcast once via `ray.put`), every batch does ONE numpy matmul against
it — the canonical broadcast-side pattern. The scale path (IVF: coarse
k-means buckets as the partition key, probe nearest buckets) keeps the same
per-batch kernel and changes only the routing; `ivf_assign` below provides
the bucketing stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

__all__ = [
    "BruteForceTopK",
    "topk_cosine",
    "ivf_assign",
    "ivf_probe_sets",
    "topk_cosine_ivf",
    "kmeans_fit",
    "hyperplane_bands",
    "embedding_near_dup_lsh",
    "semdedup",
]


def _matrix(batch: pa.Table, col: str, dtype=np.float32) -> np.ndarray:
    c = batch[col]
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    flat = np.asarray(c.flatten(), dtype=dtype)
    n = len(c)
    return flat.reshape(n, -1)


class BruteForceTopK:
    """Per-batch exact cosine top-k against a broadcast query matrix.

    Emits (query_idx, vec_id, score) candidate rows — per-batch local top-k,
    reduced to global top-k by a tiny sort/groupby afterwards (partial+final
    pattern, no full shuffle of the embedding table).
    """

    def __init__(self, queries_ref, k: int = 10, id_col: str = "vec_id", vec_col: str = "embedding", dtype=np.float64):
        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.dtype = np.dtype(dtype)
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1
        self.q = (q / qn).astype(self.dtype)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _matrix(batch, self.vec_col, self.dtype)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1
        sims = (m / norms) @ self.q.T  # (batch, nq)
        ids = np.asarray(batch[self.id_col])
        nq = sims.shape[1]
        k = min(self.k, sims.shape[0])
        # local top-k per query via argpartition (vectorized over queries)
        part = np.argpartition(-sims, kth=k - 1, axis=0)[:k]  # (k, nq)
        qi = np.repeat(np.arange(nq), k)
        vi = part.T.ravel()
        return pa.table(
            {
                "query_idx": pa.array(qi, pa.int32()),
                "vec_id": pa.array(ids[vi]),
                "score": pa.array(sims[vi, qi].astype(np.float64)),
            }
        )


def topk_cosine(ds, queries: np.ndarray, k: int = 10, **stage_kw):
    """Dataset of (vec_id, embedding) -> exact global top-k rows per query:
    (query_idx, rank, vec_id, score). Ties broken by vec_id."""
    ref = ray.put(np.asarray(queries, dtype=np.float64))
    cand = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"queries_ref": ref, "k": k, **stage_kw},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 8),
        num_cpus=1,
    )

    def reduce_group(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = g.index.astype("int32")
        return pa.Table.from_pandas(
            g[["query_idx", "rank", "vec_id", "score"]], preserve_index=False
        ).replace_schema_metadata(None)

    return cand.groupby("query_idx").map_groups(reduce_group, batch_format="pandas")


def kmeans_fit(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    """Tiny driver-side k-means (Lloyd) for IVF coarse centroids."""
    rng = np.random.default_rng(seed)
    x = np.asarray(sample, dtype=np.float32)
    cent = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(0)
    return cent


def ivf_assign(batch: pa.Table, centroids_ref, vec_col: str = "embedding") -> pa.Table:
    """+ ``bucket`` column = nearest coarse centroid (IVF partition key)."""
    cent = ray.get(centroids_ref) if not isinstance(centroids_ref, np.ndarray) else centroids_ref
    m = _matrix(batch, vec_col)
    d = ((m[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
    return batch.append_column("bucket", pa.array(d.argmin(1).astype(np.int32)))


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-30)


def ivf_probe_sets(queries: np.ndarray, centroids: np.ndarray, n_probe: int):
    """(probe (nq, n_probe) bucket ids, {bucket: query-idx array}) — cosine
    nearest buckets, ties to the lower bucket id (stable argsort)."""
    qn = _unit(np.asarray(queries, dtype=np.float64))
    cn = _unit(np.asarray(centroids, dtype=np.float64))
    sims = qn @ cn.T
    probe = np.argsort(-sims, axis=1, kind="stable")[:, :n_probe]
    by_bucket: dict[int, np.ndarray] = {}
    for b in np.unique(probe):
        by_bucket[int(b)] = np.nonzero((probe == b).any(axis=1))[0]
    return probe, by_bucket


def topk_cosine_ivf(ds, queries: np.ndarray, k: int = 10, n_clusters: int = 16,
                    n_probe: int = 4, sample_size: int = 2048, seed: int = 42,
                    centroids: np.ndarray | None = None, num_buckets: int = 32):
    """IVF approximate top-k with REAL bucket routing: every vector shuffles
    ONCE to its nearest-centroid bucket, and each bucket partition runs the
    scoring matmul against ONLY the queries that probe that bucket — scored
    pairs drop from N*nq to ~N*nq*n_probe/n_clusters (no
    compute-then-filter). Unprobed buckets never reach a kernel; at storage
    scale the bucket column is the write-time clustering key and their
    blocks are never read at all.

    ``centroids=None`` fits a tiny driver-side k-means on a sample; passing
    explicit centroids (e.g. the first ``n_clusters`` table vectors) makes
    the whole plan deterministic — the SQL-oracle form.
    Returns (query_idx, rank, vec_id, score) like ``topk_cosine``.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply

    if centroids is None:
        sample = np.stack(
            [np.asarray(v, dtype=np.float32) for v in
             ds.limit(sample_size).to_pandas()["embedding"].tolist()]
        )
        centroids = kmeans_fit(sample, n_clusters, seed=seed)
    cn = _unit(np.asarray(centroids, dtype=np.float64))
    qn = _unit(np.asarray(queries, dtype=np.float64))
    _, by_bucket = ivf_probe_sets(queries, centroids, n_probe)
    state_ref = ray.put({"cn": cn, "qn": qn, "by_bucket": by_bucket})

    def assign(batch: pa.Table) -> pa.Table:
        st = ray.get(state_ref)
        m = _unit(_matrix(batch, "embedding", np.float64))
        # argmax returns the FIRST maximum -> ties go to the lower bucket id
        b = (m @ st["cn"].T).argmax(1).astype(np.int32)
        return batch.append_column("bucket", pa.array(b))

    bucketed = ds.map_batches(assign, batch_format="pyarrow")

    def score_bucket(part: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(state_ref)
        rows = []
        for b, g in part.groupby("bucket", sort=False):
            qidx = st["by_bucket"].get(int(b))
            if qidx is None:
                continue  # unprobed bucket: no kernel work at all
            m = _unit(np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"]]))
            ids = g["vec_id"].to_numpy()
            sims = m @ st["qn"][qidx].T  # (|bucket|, |probing queries|)
            take = min(k, len(ids))
            for jj, qi in enumerate(qidx):
                # partial top-k under the SAME total order (score desc,
                # vec_id asc) as the final merge and the SQL oracle —
                # a plain argpartition would break ties at the cut
                sel = np.lexsort((ids, -sims[:, jj]))[:take]
                rows.append(
                    pd.DataFrame(
                        {
                            "query_idx": np.full(take, qi, dtype=np.int32),
                            "vec_id": ids[sel],
                            "score": sims[sel, jj],
                        }
                    )
                )
        if not rows:
            return pd.DataFrame(
                {
                    "query_idx": pd.Series([], dtype=np.int32),
                    "vec_id": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype=np.float64),
                }
            )
        return pd.concat(rows, ignore_index=True)

    cand = bucketed_group_apply(
        bucketed, ["bucket"], score_bucket, num_buckets,
        schema=pa.schema(
            [("query_idx", pa.int32()), ("vec_id", pa.int64()), ("score", pa.float64())]
        ),
    )

    def reduce_group(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = g.index.astype("int32")
        return pa.Table.from_pandas(
            g[["query_idx", "rank", "vec_id", "score"]], preserve_index=False
        ).replace_schema_metadata(None)

    return cand.groupby("query_idx").map_groups(reduce_group, batch_format="pandas")


@ray.remote
def _block_pair_sims(block_a, block_b, threshold, same):
    """One (block, block) tile of the all-pairs cosine matrix."""
    ids_a, va = block_a
    ids_b, vb = block_b
    na = va / np.maximum(np.linalg.norm(va, axis=1, keepdims=True), 1e-30)
    nb = vb / np.maximum(np.linalg.norm(vb, axis=1, keepdims=True), 1e-30)
    s = na @ nb.T
    ia, ib = np.nonzero(s > threshold)
    if same:  # keep strict upper triangle
        keep = ids_a[ia] < ids_b[ib]
        ia, ib = ia[keep], ib[keep]
    return ids_a[ia], ids_b[ib], s[ia, ib] if len(ia) else np.empty(0)


def embedding_near_dup(ds, threshold: float, block_size: int = 4096,
                       max_rows: int | None = None):
    """EXACT all-pairs cosine near-duplicate join over an embedding column.

    The Dataset API has no native self-cross-join, so this drops to raw Ray
    tasks over O(K^2/2) block tiles (K = ceil(N/block_size)) — each tile one
    matmul, results tiny. This is the SMALL-SCALE ORACLE twin: it refuses
    tables above ``max_rows`` (default config.EXACT_NEARDUP_MAX) because the
    driver collects block refs and the pair count is quadratic — use
    ``embedding_near_dup_lsh`` (banded candidates + exact verify) at scale;
    the tile kernel is identical.

    Returns pandas (id_a, id_b, score) with id_a < id_b.
    """
    import pandas as pd

    if max_rows is None:
        from gdal_ray.config import EXACT_NEARDUP_MAX

        max_rows = EXACT_NEARDUP_MAX

    blocks = []
    ids_acc, vec_acc = [], []
    count = 0
    for batch in ds.iter_batches(batch_size=block_size, batch_format="pyarrow"):
        m = _matrix(batch, "embedding", np.float64)
        ids = np.asarray(batch["vec_id"])
        blocks.append(ray.put((ids, m)))
        count += len(ids)
        if count > max_rows:
            raise ValueError(
                f"embedding_near_dup is the exact O(N^2) oracle path and is "
                f"capped at {max_rows} rows ({count}+ supplied); use "
                f"embedding_near_dup_lsh for large tables"
            )
    futs = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            futs.append(_block_pair_sims.remote(blocks[i], blocks[j], threshold, i == j))
    out_a, out_b, out_s = [], [], []
    for ia, ib, s in ray.get(futs):
        if len(ia):
            lo = np.minimum(ia, ib)
            hi = np.maximum(ia, ib)
            out_a.append(lo)
            out_b.append(hi)
            out_s.append(s)
    if not out_a:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    return (
        pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        )
        .drop_duplicates()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def hyperplane_bands(ds, n_bits: int = 64, band_bits: int = 4, seed: int = 7,
                     vec_col: str = "embedding", id_col: str = "vec_id"):
    """Random-hyperplane (SimHash) LSH banding for cosine near-dup: each
    vector's n_bits sign sketch explodes into n_bits/band_bits band rows
    (band_id, band_key, vec_id). Two vectors at cosine >= t collide in some
    band with prob 1-(1-p^b)^r, p = 1 - arccos(t)/pi — the classic
    hyperplane-LSH bound; the verify stage makes the result exact-on-
    candidates."""
    _planes_cache: dict = {}

    def sketch(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, vec_col, np.float64)
        dim = m.shape[1]
        planes = _planes_cache.get(dim)
        if planes is None:
            # deterministic per (seed, dim): every worker derives the same
            # hyperplanes; cached per actor/worker process
            planes = np.random.default_rng(seed).normal(size=(n_bits, dim))
            _planes_cache[dim] = planes
        bits = (m @ planes.T) > 0  # (n, n_bits)
        n_bands = n_bits // band_bits
        ids = np.asarray(batch[id_col])
        out_band, out_key, out_id = [], [], []
        weights = (1 << np.arange(band_bits)).astype(np.int64)
        for b in range(n_bands):
            chunk = bits[:, b * band_bits : (b + 1) * band_bits].astype(np.int64)
            key = chunk @ weights
            out_band.append(np.full(len(ids), b, dtype=np.int32))
            out_key.append(key)
            out_id.append(ids)
        return pa.table(
            {
                "band_id": pa.array(np.concatenate(out_band)),
                "band_key": pa.array(np.concatenate(out_key)),
                "vec_id": pa.array(np.concatenate(out_id)),
            }
        )

    return ds.map_batches(sketch, batch_format="pyarrow")


def embedding_near_dup_lsh(ds, threshold: float, n_bits: int = 64, band_bits: int = 4,
                           seed: int = 7):
    """Scale path of the embedding near-dup join: hyperplane-LSH candidate
    generation (banded, bucketed — no all-pairs) followed by an EXACT
    cosine verify through co-partitioned joins on vec_id (no driver-side
    iteration, no broadcast of the embedding table). Approximate only in
    RECALL (LSH may miss a pair); every emitted pair is exactly verified.
    Returns a Dataset of (id_a, id_b) with id_a < id_b.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply, cobucket_join

    bands = hyperplane_bands(ds, n_bits, band_bits, seed)

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part.duplicated(["band_id", "band_key"], keep=False)]
        out_a, out_b = [], []
        for _, g in part.groupby(["band_id", "band_key"], sort=False):
            ids = np.unique(g["vec_id"].to_numpy())
            if len(ids) < 2:
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ia])
            out_b.append(ids[ib])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    cand = bucketed_group_apply(bands, ["band_id", "band_key"], pairs, 32,
                                schema=pair_schema)
    cand = bucketed_group_apply(
        cand, ["id_a", "id_b"], lambda p: p.drop_duplicates(["id_a", "id_b"]), 8,
        schema=pair_schema,
    )

    # Acero hash join rejects list<> payload columns -> ship embeddings as
    # fixed-width binary through the join, decode in the verify kernel
    def pack(idc: str, embc: str):
        def fn(b: pa.Table) -> pa.Table:
            m = _matrix(b, "embedding", np.float64)
            return pa.table(
                {
                    idc: b["vec_id"],
                    embc: pa.array([m[i].tobytes() for i in range(len(m))], pa.binary()),
                }
            )

        return ds.map_batches(fn, batch_format="pyarrow")

    a_schema = pa.schema([("_ida", pa.int64()), ("emb_a", pa.binary())])
    b_schema = pa.schema([("_idb", pa.int64()), ("emb_b", pa.binary())])
    j1 = cobucket_join(cand, pack("_ida", "emb_a"), on=("id_a",), right_on=("_ida",),
                       left_schema=pair_schema, right_schema=a_schema)
    j2 = cobucket_join(j1, pack("_idb", "emb_b"), on=("id_b",), right_on=("_idb",),
                       left_schema=pair_schema.append(a_schema.field("emb_a")),
                       right_schema=b_schema)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        va = _unit(np.stack([np.frombuffer(v, dtype=np.float64) for v in batch["emb_a"]]))
        vb = _unit(np.stack([np.frombuffer(v, dtype=np.float64) for v in batch["emb_b"]]))
        sim = (va * vb).sum(axis=1)
        keep = sim > threshold
        lo = np.minimum(batch["id_a"].to_numpy()[keep], batch["id_b"].to_numpy()[keep])
        hi = np.maximum(batch["id_a"].to_numpy()[keep], batch["id_b"].to_numpy()[keep])
        return pd.DataFrame({"id_a": lo, "id_b": hi})

    return j2.map_batches(verify, batch_format="pandas")


# --------------------------------------------------------------------------
# Product quantization (ADC shortlist + exact refine)
# --------------------------------------------------------------------------

def pq_train(sample: np.ndarray, m_sub: int = 8, n_codes: int = 256,
             iters: int = 10, seed: int = 42) -> np.ndarray:
    """PQ codebooks (Jegou et al. 2011): one seeded k-means per subspace
    over UNIT-normalized training vectors. Returns (m_sub, n_codes, d/m)."""
    x = _unit(np.asarray(sample, dtype=np.float64)).astype(np.float32)
    d = x.shape[1]
    if d % m_sub:
        raise ValueError(f"dim {d} not divisible by m_sub {m_sub}")
    ds_ = d // m_sub
    return np.stack([
        kmeans_fit(x[:, j * ds_ : (j + 1) * ds_], n_codes, iters, seed + j)
        for j in range(m_sub)
    ])


def pq_encode(vectors: np.ndarray, books: np.ndarray) -> np.ndarray:
    """uint8 codes (n, m_sub): nearest codeword per subspace (unit-norm)."""
    x = _unit(np.asarray(vectors, dtype=np.float64)).astype(np.float32)
    m_sub, _, ds_ = books.shape
    codes = np.empty((len(x), m_sub), dtype=np.uint8)
    for j in range(m_sub):
        sub = x[:, j * ds_ : (j + 1) * ds_]
        d2 = ((sub[:, None, :] - books[j][None, :, :]) ** 2).sum(-1)
        codes[:, j] = d2.argmin(1)
    return codes


def topk_cosine_pq(ds, queries: np.ndarray, k: int = 10, m_sub: int = 8,
                   n_codes: int = 256, shortlist: int = 4,
                   train_size: int = 4096, id_col: str = "vec_id",
                   vec_col: str = "embedding"):
    """Approximate top-k with PQ asymmetric-distance shortlisting.

    The 10^12-vector memory shape: per batch, vectors score against the
    query set through m_sub uint8 LOOKUPS each (the ADC table is
    query x n_codes per subspace, broadcast once) instead of a d-wide
    matmul; the per-batch shortlist (k * ``shortlist`` candidates) is
    then refined with EXACT cosine before the global reduce, so the only
    approximation is shortlist membership. Codebooks train driver-side
    on a bounded ``train_size`` sample (seeded, deterministic). Recall
    bounds are pinned in tests/test_simsearch_pq.py.
    """
    q = _unit(np.asarray(queries, dtype=np.float64))
    sample = _matrix_sample(ds, vec_col, train_size)
    books = pq_train(sample, m_sub, n_codes)
    m_subN, n_codesN, ds_ = books.shape
    # ADC tables: lut[j][qi, code] = <q_sub, codeword>
    lut = np.stack([
        q[:, j * ds_ : (j + 1) * ds_] @ books[j].T.astype(np.float64)
        for j in range(m_subN)
    ])  # (m_sub, nq, n_codes)
    refs = ray.put((q, books.astype(np.float32), lut))
    nshort = k * int(shortlist)

    def score(batch: pa.Table) -> pa.Table:
        qq, bks, tab = ray.get(refs)
        vecs = _matrix(batch, vec_col, np.float64)
        ids = np.asarray(batch[id_col])
        codes = pq_encode(vecs, bks)
        nq = len(qq)
        # approx[qi, row] = sum_j tab[j, qi, codes[row, j]]
        approx = np.zeros((nq, len(vecs)))
        for j in range(len(bks)):
            approx += tab[j][:, codes[:, j]]
        take = min(nshort, len(vecs))
        rows = {"query_idx": [], "vec_id": [], "score": []}
        vn = _unit(vecs)
        for qi in range(nq):
            cand = np.argpartition(-approx[qi], take - 1)[:take]
            exact = vn[cand] @ qq[qi]
            rows["query_idx"].extend([qi] * len(cand))
            rows["vec_id"].extend(ids[cand])
            rows["score"].extend(exact)
        out = pd.DataFrame(rows)
        out = out.sort_values(["query_idx", "score", "vec_id"],
                              ascending=[True, False, True])
        out = out.groupby("query_idx", sort=False).head(k)
        return pa.Table.from_pandas(out, preserve_index=False) \
            .replace_schema_metadata(None)

    cand = ds.map_batches(score, batch_format="pyarrow", batch_size=4096)

    def reduce_group(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = g.index.astype("int32")
        return pa.Table.from_pandas(
            g[["query_idx", "rank", "vec_id", "score"]], preserve_index=False
        ).replace_schema_metadata(None)

    return cand.groupby("query_idx").map_groups(reduce_group,
                                                batch_format="pandas")


def _matrix_sample(ds, vec_col: str, n: int) -> np.ndarray:
    """Bounded deterministic training sample: the first ``n`` rows."""
    rows = ds.limit(int(n)).to_pandas()
    return np.stack([np.asarray(v, dtype=np.float64) for v in rows[vec_col]])


def _dup_components(unit: np.ndarray, ids: np.ndarray, threshold: float,
                    chunk: int = 2048) -> np.ndarray:
    """Union-find roots of the within-cluster duplicate graph
    (cos > threshold). Pairwise sims are computed in (chunk x n) tiles so
    a degenerate giant cluster costs bounded memory, and only EDGES enter
    Python (the duplicate pairs, not the n^2 matrix)."""
    n = len(ids)
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for lo in range(0, n, chunk):
        s = unit[lo:lo + chunk] @ unit.T
        ia, ib = np.nonzero(s > threshold)
        ia += lo
        for a, b in zip(ia.tolist(), ib.tolist()):
            if a >= b:
                continue
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(n)])


def semdedup(ds, threshold: float = 0.95, n_clusters: int = 16,
             sample_size: int = 2048, seed: int = 42,
             centroids: np.ndarray | None = None, num_buckets: int = 32,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """SemDeDup (Abbas et al., 2023): semantic deduplication of an
    embedding table. K-means clusters the space (driver-side fit on a
    bounded sample — the IVF coarse-quantizer reuse); ONE bucketed shuffle
    co-locates each cluster; within a cluster, items whose cosine
    similarity exceeds ``threshold`` form duplicate components and only
    one representative per component survives — per the paper, the item
    with the LOWEST cosine to the cluster centroid (tie-break: lower id),
    i.e. the least-prototypical example carries the most information.

    Output: (vec_id, cluster, keep, n_dup) for EVERY row — n_dup = size of
    the row's duplicate component (1 = unique). Deterministic given the
    seed; the exact single-process replica is pinned in
    tests/test_semdedup.py. Not SQL-expressible (k-means) -> rows-only
    under the driver gate.
    """
    from gdal_ray.ops.shuffle import bucketed_group_apply

    if centroids is None:
        centroids = kmeans_fit(
            _matrix_sample(ds, vec_col, sample_size).astype(np.float32),
            n_clusters, seed=seed)
    cent_ref = ray.put(centroids)

    assigned = ds.map_batches(
        lambda b: ivf_assign(b, cent_ref, vec_col), batch_format="pyarrow")

    cent_unit = _unit(np.asarray(centroids, dtype=np.float64))

    def dedup_cluster(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cid, g in part.groupby("bucket", sort=False):
            g = g.sort_values(id_col, kind="stable")
            ids = g[id_col].to_numpy()
            m = np.stack([np.asarray(v, dtype=np.float64)
                          for v in g[vec_col]])
            u = _unit(m)
            root = _dup_components(u, ids, threshold)
            csim = u @ cent_unit[int(cid)]
            _, inv, counts = np.unique(root, return_inverse=True,
                                       return_counts=True)
            # keeper per component: lowest centroid-sim, then lowest id
            order = np.lexsort((ids, csim))
            keep = np.zeros(len(ids), dtype=bool)
            first = np.unique(inv[order], return_index=True)[1]
            keep[order[first]] = True
            outs.append(pd.DataFrame({
                "vec_id": ids.astype(np.int64),
                "cluster": np.full(len(ids), int(cid), dtype=np.int32),
                "keep": keep,
                "n_dup": counts[inv].astype(np.int64),
            }))
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "cluster": pd.Series([], dtype="int32"),
            "keep": pd.Series([], dtype="bool"),
            "n_dup": pd.Series([], dtype="int64"),
        })

    schema = pa.schema([
        ("vec_id", pa.int64()), ("cluster", pa.int32()),
        ("keep", pa.bool_()), ("n_dup", pa.int64()),
    ])
    return bucketed_group_apply(assigned, ["bucket"], dedup_cluster,
                                min(num_buckets, n_clusters), schema=schema)
