"""Deduplication operators (engine additions beyond GDAL — SURVEY.md §2.7).

- exact dedup: content-hash groupby, keep first (min key) per group;
- near-dup images: 64-bit pHash banded LSH — hamming(h1,h2) <= 2 implies at
  least 2 of the 4 16-bit bands are equal (pigeonhole), so banding by each
  16-bit quarter yields a complete candidate set; candidates are verified
  with the exact SWAR hamming distance and connected components are closed
  with iterative min-label propagation (a bounded number of groupby rounds,
  no driver-side union-find on big data);
- MinHash + LSH near-dup for text (documents table): per-batch shingling ->
  minhash signature -> banded bucket keys -> groupby bucket -> verified
  Jaccard.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.io.phash import hamming64
from gdal_ray.ops.runtime import memo

__all__ = [
    "add_md5",
    "exact_dedup",
    "phash_bands",
    "near_dup_image_pairs",
    "MinHasher",
    "minhash_bands",
]


def add_md5(batch: pa.Table, col: str = "text", out: str = "md5") -> pa.Table:
    """Content hash column (md5 hex — same function DuckDB exposes, so the
    dedup oracle is expressible in ANSI SQL)."""
    vals = batch[col].to_pylist()
    digests = [hashlib.md5(v.encode() if isinstance(v, str) else v).hexdigest() for v in vals]
    return batch.append_column(out, pa.array(digests, pa.string()))


def exact_dedup(ds, hash_col: str, key_col: str):
    """Keep the min-key row per hash group (deterministic winner).

    Partition-level kernel: ONE vectorized sort+groupby-head per
    hash-bucketed partition, not one callback per group — with mostly
    unique content the group count approaches the row count, and
    per-group map_groups callbacks dominate wall time at corpus scale."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    schema = None
    try:
        s = ds.schema()
        schema = getattr(s, "base_schema", None)
    except Exception:
        pass

    def reduce_part(part: pd.DataFrame) -> pd.DataFrame:
        return part.sort_values([hash_col, key_col]).groupby(
            hash_col, sort=False
        ).head(1)

    return bucketed_group_apply(ds, [hash_col], reduce_part, schema=schema)


def phash_bands(batch: pa.Table, phash_col: str = "phash") -> pa.Table:
    """Explode each row into 4 LSH band rows: (band_id, band_key, image_id, phash)."""
    ph = np.asarray(batch[phash_col], dtype=np.int64).view(np.uint64)
    n = len(ph)
    ids = batch["image_id"]
    bands, keys, out_ids, out_ph = [], [], [], []
    for b in range(4):
        band = ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        bands.append(np.full(n, b, dtype=np.int32))
        keys.append(band)
        out_ids.append(ids)
        out_ph.append(batch[phash_col])
    return pa.table(
        {
            "band_id": pa.array(np.concatenate(bands)),
            "band_key": pa.array(np.concatenate(keys)),
            "image_id": pa.concat_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in out_ids]
            ),
            "phash": pa.concat_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in out_ph]
            ),
        }
    )


# Max band-group rows expanded in ONE pair allocation: a group of n rows
# has n(n-1)/2 candidate pairs, and an uncapped np.triu_indices(n) on a
# degenerate group (e.g. constant-color thumbnails sharing one band key)
# allocates O(n^2) index arrays in a single task. Groups above the cap are
# expanded TILE-BY-TILE (chunk x chunk cross products <= _GROUP_CAP^2 pairs
# per allocation) — identical pair output, bounded peak memory. This is the
# pair-expansion analog of salt_hot_keys' treatment of hot PIP cells.
_GROUP_CAP = 2048


def _pair_tiles(n: int):
    """Yield (ia, ib) index-array tiles covering the strict upper triangle
    of an n x n pair matrix with at most _GROUP_CAP^2 entries per tile."""
    if n <= _GROUP_CAP:
        yield np.triu_indices(n, k=1)
        return
    starts = list(range(0, n, _GROUP_CAP))
    for si, s in enumerate(starts):
        e = min(s + _GROUP_CAP, n)
        # diagonal tile: triu within [s:e)
        ia, ib = np.triu_indices(e - s, k=1)
        yield ia + s, ib + s
        # off-diagonal tiles: full cross product [s:e) x [s2:e2)
        for s2 in starts[si + 1 :]:
            e2 = min(s2 + _GROUP_CAP, n)
            ia = np.repeat(np.arange(s, e), e2 - s2)
            ib = np.tile(np.arange(s2, e2), e - s)
            yield ia, ib


def _verify_partition(part: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """One hash-bucket partition (many band-groups): emit verified pairs.

    numpy-only inner loop: the partition is lexsorted once by
    (band_id, band_key, image_id); group boundaries come from diff, and
    each >=2-member group expands to its triu pair set verified with the
    SWAR hamming kernel (no per-group pandas objects — ~10x faster on
    tens of thousands of small groups). Degenerate groups (> _GROUP_CAP
    members) expand in bounded tiles instead of one O(n^2) allocation.
    """
    band_id = part["band_id"].to_numpy()
    band_key = part["band_key"].to_numpy()
    ids = part["image_id"].to_numpy()
    ph = part["phash"].to_numpy()
    order = np.lexsort((ids, band_key, band_id))
    band_id = band_id[order]
    band_key = band_key[order]
    ids = ids[order]
    ph = ph[order]
    new_group = np.empty(len(ids), dtype=bool)
    new_group[0] = True
    new_group[1:] = (band_id[1:] != band_id[:-1]) | (band_key[1:] != band_key[:-1])
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], len(ids))
    out_a, out_b = [], []
    for s0, e0 in zip(starts, ends):
        n = e0 - s0
        if n < 2:
            continue
        gids = ids[s0:e0]
        gph = ph[s0:e0]
        # drop duplicate ids (same image may repeat across chunks)
        uniq = np.empty(n, dtype=bool)
        uniq[0] = True
        uniq[1:] = gids[1:] != gids[:-1]
        if not uniq.all():
            gids = gids[uniq]
            gph = gph[uniq]
            n = len(gids)
            if n < 2:
                continue
        cur = int(band_id[s0])
        for ia, ib in _pair_tiles(n):
            keep = hamming64(gph[ia], gph[ib]) <= max_hamming
            if not keep.any():
                continue
            pa_ = gph[ia[keep]].astype(np.int64).view(np.uint64)
            pb_ = gph[ib[keep]].astype(np.int64).view(np.uint64)
            # GLOBAL dedup without a second shuffle: both phashes are in
            # hand, so emit the pair only from its FIRST matching band —
            # other bands' partitions will see an earlier match and skip
            first = np.full(len(pa_), cur)
            for b in range(cur - 1, -1, -1):
                sh = np.uint64(16 * b)
                same = ((pa_ >> sh) & np.uint64(0xFFFF)) == ((pb_ >> sh) & np.uint64(0xFFFF))
                first[same] = b
            mine = first == cur
            if mine.any():
                out_a.append(gids[ia[keep]][mine])
                out_b.append(gids[ib[keep]][mine])
    if not out_a:
        return pd.DataFrame({"id_a": pd.Series([], dtype=str), "id_b": pd.Series([], dtype=str)})
    return pd.DataFrame(
        {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
    ).drop_duplicates()


def near_dup_image_pairs(images_ds, max_hamming: int = 2, num_buckets: int = 64):
    """images (image_id, phash) -> verified near-duplicate pairs (id_a < id_b).

    Shuffle unit = hash bucket of (band_id, band_key) (bucketed_group_apply:
    one Python call per PARTITION, not per tiny band-group); a second
    bucketed pass dedups pairs that matched in multiple bands.
    """
    from gdal_ray.ops.shuffle import bucketed_group_apply

    bands = images_ds.map_batches(phash_bands, batch_format="pyarrow")
    import pyarrow as _pa

    pair_schema = _pa.schema([("id_a", _pa.string()), ("id_b", _pa.string())])
    # ONE shuffle total: the verify partition emits each pair only from its
    # first matching band (it holds both phashes), so no dedup pass needed
    return bucketed_group_apply(
        bands, ["band_id", "band_key"], lambda p: _verify_partition(p, max_hamming), num_buckets,
        schema=pair_schema,
    )


class MinHasher:
    """Actor-pool stage: text -> MinHash signature + LSH band keys.

    Hash family is seeded & compiled once per actor (__init__), batches are
    vectorized over the shingle hash arrays.
    """

    def __init__(self, num_perm: int = 64, shingle: int = 5, bands: int = 16, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle = shingle
        self.bands = bands
        self.rows = num_perm // bands
        self.prime = np.uint64((1 << 61) - 1)

    @staticmethod
    def _mix64(h: np.ndarray) -> np.ndarray:
        """splitmix64 finalizer (public constant mixer), vectorized."""
        with np.errstate(over="ignore"):
            h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return h ^ (h >> np.uint64(31))

    def _sig(self, text: str) -> np.ndarray:
        """Single-document signature (scalar twin of the batched __call__):
        shingle hashes are a byte-polynomial over every sliding window
        (duplicates included — min over duplicates equals min over the set,
        the MinHash invariant) + a splitmix64 mix, then the permutation min."""
        hv = self._shingle_hashes(text)
        with np.errstate(over="ignore"):
            m = (hv[None, :] * self.a[:, None] + self.b[:, None]) % self.prime
        return m.min(axis=1)

    def _shingle_hashes(self, text: str) -> np.ndarray:
        """Mixed byte-polynomial hash of every sliding shingle (see _sig)."""
        from numpy.lib.stride_tricks import sliding_window_view

        t = text.lower().encode("utf-8")
        k = self.shingle
        if len(t) == 0:
            return np.array([0], dtype=np.uint64)
        if len(t) < k:
            acc = np.uint64(0)
            with np.errstate(over="ignore"):
                for byte in t:
                    acc = acc * np.uint64(257) + np.uint64(byte)
            return self._mix64(np.array([acc], dtype=np.uint64))
        b = np.frombuffer(t, dtype=np.uint8)
        w = sliding_window_view(b, k).astype(np.uint64)
        weights = np.uint64(257) ** np.arange(k - 1, -1, -1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return self._mix64((w * weights[None, :]).sum(axis=1, dtype=np.uint64))

    # bound on the (num_perm x shingles) permutation matrix per flattened
    # chunk: 64 perms x 200k shingles x 8 B ~= 100 MB of transient uint64
    _CHUNK_SHINGLES = 200_000

    def _band_keys(self, sigs: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) signatures -> (n_docs, bands) int64 band keys:
        a splitmix64 fold over each band's rows (equal chunks -> equal keys,
        the only property LSH banding needs), fully vectorized."""
        n = sigs.shape[0]
        chunks = sigs.reshape(n, self.bands, self.rows)
        acc = np.zeros((n, self.bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(self.rows):
                acc = self._mix64(acc ^ chunks[:, :, j])
        return acc.view(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batch-vectorized: all docs' shingle hashes flatten into bounded
        chunks, ONE permutation matrix + segmented min (reduceat) per chunk
        yields every signature, and band keys fold vectorized — no per-doc
        permutation call, no per-band hashlib call."""
        texts = batch["text"].to_pylist()
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        n = len(texts)
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        start = 0
        while start < n:
            hvs = []
            total = 0
            end = start
            while end < n and (total == 0 or total < self._CHUNK_SHINGLES):
                hv = self._shingle_hashes(texts[end] or "")
                hvs.append(hv)
                total += len(hv)
                end += 1
            flat = np.concatenate(hvs)
            offsets = np.concatenate([[0], np.cumsum([len(h) for h in hvs])[:-1]])
            # per-permutation 1-D contiguous ops: numpy's uint64 SIMD path
            # (the (64, N) broadcast form hits a ~200x slower strided loop)
            with np.errstate(over="ignore"):
                for i in range(self.num_perm):
                    m = (flat * self.a[i] + self.b[i]) % self.prime
                    sigs[start:end, i] = np.minimum.reduceat(m, offsets)
            start = end
        keys = self._band_keys(sigs)
        band_ids = np.tile(np.arange(self.bands, dtype=np.int32), n)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, self.bands)),
                "band_id": pa.array(band_ids),
                "band_key": pa.array(keys.reshape(-1)),
            }
        )


def splitmix64_sql(x: str) -> str:
    """DuckDB expression mirroring ``MinHasher._mix64`` on a UBIGINT expr
    (bit-exact incl. the mod-2^64 multiply wraparound)."""
    m64 = 1 << 64
    a1, a2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    s1 = f"CAST((CAST(xor({x}, ({x}) >> 30) AS UHUGEINT) * {a1}) % {m64} AS UBIGINT)"
    s2 = f"CAST((CAST(xor({s1}, ({s1}) >> 27) AS UHUGEINT) * {a2}) % {m64} AS UBIGINT)"
    return f"xor({s2}, ({s2}) >> 31)"


def minhash_pairs_oracle_sql(table: str = "documents") -> str:
    """ANSI-SQL (DuckDB) twin of the full MinHash-LSH candidate chain:
    shingle byte-polynomial -> splitmix64 mix -> 64 mod-(2^61-1) permutations
    (with numpy's mod-2^64 wraparound BEFORE the prime mod) -> per-band
    splitmix64 fold -> within-bucket pairs. Constants are injected from a
    default-seeded MinHasher so engine and SQL share one hash family.

    Precondition (holds for the synthetic corpus): text is non-null ASCII
    with length >= shingle size, so the short/empty-doc branches of
    ``_shingle_hashes`` never fire and ``lower()``/``ord()`` equal the
    engine's byte-level operations.
    """
    mh = MinHasher()
    m64 = 1 << 64
    mix = splitmix64_sql

    perm_vals = ",".join(
        f"({i}, {int(mh.a[i])}::UBIGINT, {int(mh.b[i])}::UBIGINT)" for i in range(mh.num_perm)
    )
    k = mh.shingle
    poly = " + ".join(
        f"ord(substr(t, i + {j}, 1)) * {257 ** (k - 1 - j)}::UBIGINT" for j in range(k)
    )
    rows = mh.rows
    piv_cols = ",\n                 ".join(
        f"MAX(CASE WHEN pi % {rows} = {r} THEN s END) AS s{r}" for r in range(rows)
    )
    fold_ctes = []
    prev = "piv"
    for r in range(rows):
        carry = ", ".join(f"s{j}" for j in range(r + 1, rows))
        carry = (carry + ", ") if carry else ""
        acc_in = f"xor(0::UBIGINT, s0)" if r == 0 else f"xor(acc, s{r})"
        fold_ctes.append(
            f"f{r + 1} AS (SELECT doc_id, band_id, {carry}{mix(acc_in)} AS acc FROM {prev})"
        )
        prev = f"f{r + 1}"
    folds = ",\n        ".join(fold_ctes)
    return f"""
        WITH docs AS (SELECT doc_id, lower(text) AS t FROM {table}),
        sh AS (
          SELECT DISTINCT doc_id, {mix(poly)} AS h
          FROM docs, generate_series(1, 65536) g(i) WHERE i <= length(t) - {k - 1}
        ),
        perms(pi, a, b) AS (VALUES {perm_vals}),
        sig AS (
          SELECT doc_id, pi,
                 MIN(CAST((CAST(h AS UHUGEINT) * a + b) % {m64} AS UBIGINT)
                     % 2305843009213693951) AS s
          FROM sh CROSS JOIN perms GROUP BY doc_id, pi
        ),
        piv AS (
          SELECT doc_id, pi // {rows} AS band_id,
                 {piv_cols}
          FROM sig GROUP BY doc_id, pi // {rows}
        ),
        {folds}
        SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
        FROM {prev} a JOIN {prev} b
          ON a.band_id = b.band_id AND a.acc = b.acc AND a.doc_id < b.doc_id
    """


def minhash_bands(docs_ds, **kw):
    """documents -> (doc_id, band_id, band_key) LSH rows."""
    return docs_ds.map_batches(
        MinHasher,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=(1, 8),
        num_cpus=1,
    )


class SimHasher:
    """64-bit SimHash over word tokens (hyperplane-sign sketch): bit b is the
    sign of the sum of per-token random projections. Near-dup docs land at
    small hamming distance; banded exactly like pHash.

    The per-token projection is the top 64 bits of md5 (hex-prefix read) and
    the tokenizer is ASCII ``\\w+`` over lowercased text — BOTH expressible
    in ANSI SQL, so the whole sketch has a DuckDB oracle (q_simhash_docs).

    Vectorized: the whole batch's tokens are flattened once; md5 runs only
    per UNIQUE token (with an actor-lifetime vocabulary cache), the bit
    expansion is one (tokens, 64) numpy broadcast, and the per-document
    accumulation is a single reduceat over document boundaries."""

    def __init__(self, seed: int = 42):
        import re

        self.token = re.compile(r"\w+", re.ASCII)
        self.seed = seed
        self._vocab: dict[str, int] = {}  # token -> uint64 hash, lives per actor

    def _hash64(self, tok: str) -> int:
        if tok in self._vocab:
            return self._vocab[tok]
        return memo(self._vocab, tok,
                    lambda: int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:16], 16),
                    1_000_000)

    def simhash(self, text: str) -> int:
        """Scalar reference form (kept for tests/oracles)."""
        out = self._simhash_batch([(text or "")])[0]
        return int(out)

    def _simhash_batch(self, texts) -> np.ndarray:
        tok_lists = [self.token.findall((t or "").lower()) for t in texts]
        lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
        flat = [tok for toks in tok_lists for tok in toks]
        out = np.zeros(len(texts), dtype=np.int64)
        if flat:
            uniq, inv = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
            uh = np.fromiter(
                (self._hash64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
            )
            shifts = np.arange(64, dtype=np.uint64)
            signed = (
                ((uh[inv][:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)
            ).astype(np.int32) * 2 - 1  # (n_tokens, 64) of +-1
            nz = np.flatnonzero(lens)
            starts = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
            acc = np.add.reduceat(signed, starts, axis=0)
            packed = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(
                axis=1, dtype=np.uint64
            )
            out[nz] = packed.view(np.int64)
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch["simhash"] = self._simhash_batch(batch["text"].tolist())
        return batch[["doc_id", "simhash"]]


def ngram_jaccard(a: str, b: str, n: int = 5) -> float:
    """Exact character n-gram Jaccard similarity (the verify step after
    MinHash-LSH candidate generation)."""
    sa = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
    sb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    inter = len(sa & sb)
    union = len(sa | sb)
    return inter / union if union else 0.0


def _char_ngram_rows(text: str, n: int = 5) -> np.ndarray:
    """Sorted UNIQUE character n-grams as fixed-width void rows: UTF-32
    codepoints windowed with stride tricks, so row equality is exactly
    Python-string n-gram equality (no hash, no collisions). Texts shorter
    than ``n`` contribute their single short shingle, padded with a
    non-codepoint sentinel (0xFFFFFFFF) that can never match a real gram
    — the same set ``ngram_jaccard`` builds."""
    from numpy.lib.stride_tricks import sliding_window_view

    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    if len(cp) < n:
        cp = np.concatenate(
            [cp, np.full(n - len(cp), 0xFFFFFFFF, dtype=np.uint32)]
        )
        w = cp[None, :]
    else:
        w = sliding_window_view(cp, n)
    rows = np.ascontiguousarray(w).view(f"V{4 * n}").ravel()
    return np.unique(rows)


def text_near_dup_candidates(docs_ds, num_buckets: int = 32, **minhash_kw):
    """MinHash-LSH candidate pairs (id_a < id_b), deduplicated across bands.
    Metadata-only: no document text moves through these shuffles."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    bands = minhash_bands(docs_ds, **minhash_kw)

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part.duplicated(["band_id", "band_key"], keep=False)]
        out_a, out_b = [], []
        for _, g in part.groupby(["band_id", "band_key"], sort=False):
            ids = np.unique(g["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            # tiled expansion: degenerate buckets (near-identical corpora)
            # never allocate O(n^2) in one shot (see _pair_tiles)
            for ia, ib in _pair_tiles(len(ids)):
                out_a.append(ids[ia])
                out_b.append(ids[ib])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    cand = bucketed_group_apply(
        bands, ["band_id", "band_key"], pairs, num_buckets, schema=pair_schema
    )
    return bucketed_group_apply(
        cand, ["id_a", "id_b"], lambda p: p.drop_duplicates(["id_a", "id_b"]),
        max(8, num_buckets // 4), schema=pair_schema,
    )


def verified_text_near_dups(docs_ds, jaccard_threshold: float = 0.8, **minhash_kw):
    """MinHash-LSH candidates -> exact n-gram Jaccard verification.

    Scale-safe verify: candidate pairs are CO-PARTITIONED against the
    documents table with two co-bucketed joins on doc_id (id_a then id_b)
    — no driver-side iteration over the corpus and no broadcast of
    document text; only candidate-pair rows ever carry two texts at once.
    """
    from gdal_ray.ops.shuffle import cobucket_join

    cand = text_near_dup_candidates(docs_ds, **minhash_kw)

    def docs(idc: str, textc: str):
        return docs_ds.map_batches(
            lambda b: b.select(["doc_id", "text"]).rename_columns([idc, textc]),
            batch_format="pyarrow",
        )

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    a_schema = pa.schema([("_ida", pa.int64()), ("text_a", pa.string())])
    b_schema = pa.schema([("_idb", pa.int64()), ("text_b", pa.string())])
    j1 = cobucket_join(cand, docs("_ida", "text_a"), on=("id_a",), right_on=("_ida",),
                       left_schema=pair_schema, right_schema=a_schema)
    j2 = cobucket_join(j1, docs("_idb", "text_b"), on=("id_b",), right_on=("_idb",),
                       left_schema=pair_schema.append(a_schema.field("text_a")),
                       right_schema=b_schema)

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        # Exact-equality vectorized verify: per UNIQUE doc in the batch the
        # sorted distinct 5-gram rows are built once (UTF-32 codepoint
        # windows viewed as fixed-width void rows — identical semantics to
        # Python string slicing, no hashing so no collision risk), and each
        # pair is one C-speed sorted intersection. Docs repeat across LSH
        # pairs, so the per-doc cache removes the old per-pair set builds.
        cache: dict = {}

        def grams(doc_id, text):
            g = cache.get(doc_id)
            if g is None:
                g = _char_ngram_rows(text or "")
                cache[doc_id] = g
            return g

        out_a, out_b, out_j = [], [], []
        for ida, idb, ta, tb in zip(
            batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"]
        ):
            ga = grams(int(ida), ta)
            gb = grams(int(idb), tb)
            inter = len(np.intersect1d(ga, gb, assume_unique=True))
            union = len(ga) + len(gb) - inter
            j = inter / union if union else 0.0
            if j >= jaccard_threshold:
                out_a.append(int(ida))
                out_b.append(int(idb))
                out_j.append(round(j, 6))
        return pd.DataFrame({"id_a": pd.Series(out_a, dtype="int64"),
                             "id_b": pd.Series(out_b, dtype="int64"),
                             "jaccard": pd.Series(out_j, dtype="float64")})

    return j2.map_batches(verify, batch_format="pandas")
