"""Span-level exact-substring dedup across a document corpus.

The operation of "Deduplicating Training Data Makes Language Models
Better" (Lee et al., 2022): find token spans that repeat VERBATIM across
documents — the duplication that survives document-level MinHash/SimHash
because only a paragraph, boilerplate block, or license header repeats.
The paper builds one giant suffix array; that is the wrong shape for a
cluster, so this module re-expresses it Ray-Data-first:

1. ``span_windows``: one vectorized ``map_batches`` pass emits
   ``(whash, doc_id, pos)`` per selected token window — 20 bytes a
   window, NO window text enters the shuffle;
2. ONE bucketed shuffle groups by ``whash``; only groups touching >=2
   distinct documents survive (rolling-hash collisions may sneak
   through — removed in 3);
3. the text fetch is ONE bucketed co-shuffle on ``doc_id`` over
   candidates ∪ documents (the same asymptotic cost as a join); each
   candidate row re-extracts its window text at
   ``pos`` and a grouped aggregate on the EXACT text yields
   ``(win, n_docs, n_occ)`` — collision-free by construction.

Window selection, two modes:

- ``stride=k``: sample every k-th window per document. Cheap and
  SQL-twinnable (the gate twin recomputes the same windows), but the
  stride grids of two documents only align when the copies start at
  equal offsets mod k — a strided sweep can MISS a duplicated span.
- ``winnow=w``: winnowing fingerprint selection (Schleimer, Wilkerson &
  Aiken, SIGMOD 2003): keep, in every run of w consecutive window
  hashes, the minimal one (rightmost on ties). Selection is
  content-defined, so ANY duplicated span of >= span + w - 1 tokens
  shares a selected fingerprint in every copy REGARDLESS of alignment —
  the correct 100 TB sweep, at ~2/(w+1) emission density.

Tokenization is ``text.split(' ')`` — byte-identical to DuckDB's
``string_split(text, ' ')`` so the registry twin can recompute windows
in SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.ops.shuffle import bucketed_group_apply

__all__ = ["span_windows", "duplicated_spans", "window_hashes",
           "winnow_positions"]

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)
_POLY_BASE = np.uint64(1000003)


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """FNV-1a 64 over each token's UTF-8 bytes."""
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, t in enumerate(tokens):
        h = _FNV_OFFSET
        for b in t.encode("utf-8"):
            h = (h ^ np.uint64(b)) * _FNV_PRIME
        out[i] = h
    return out


def window_hashes(tokens: list[str], span: int):
    """uint64 hash per length-``span`` token window at EVERY position.

    Window hash = polynomial combine of the per-token FNV hashes
    (position-sensitive, mod 2^64), vectorized: sliding windows of the
    token-hash vector dot the base-power vector.
    """
    n = len(tokens)
    if n < span:
        return np.empty(0, dtype=np.uint64)
    th = _token_hashes(tokens)
    win = np.lib.stride_tricks.sliding_window_view(th, span)
    powers = _POLY_BASE ** np.arange(span, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return (win * powers[None, :]).sum(axis=1, dtype=np.uint64)


def winnow_positions(hashes: np.ndarray, w: int) -> np.ndarray:
    """Winnowing selection (Schleimer et al. 2003): the positions kept
    when every run of ``w`` consecutive fingerprints contributes its
    minimum (rightmost minimal on ties). Guarantee: two sequences
    sharing >= w consecutive equal fingerprints share a selected one."""
    n = len(hashes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n <= w:
        # one run: rightmost global minimum
        rev = hashes[::-1]
        return np.array([n - 1 - int(rev.argmin())], dtype=np.int64)
    sw = np.lib.stride_tricks.sliding_window_view(hashes, w)
    # rightmost argmin per run via the reversed-argmin trick
    idx = (w - 1) - sw[:, ::-1].argmin(axis=1)
    sel = idx + np.arange(n - w + 1)
    return np.unique(sel)


def span_windows(docs_ds, span: int = 8, stride: int = 4,
                 winnow: int | None = None,
                 id_col: str = "doc_id", text_col: str = "text"):
    """Documents -> (whash int64-view, doc_id, pos) window table.
    ``winnow`` (fingerprint-run length) overrides ``stride``."""

    def emit(batch: pa.Table) -> pa.Table:
        ids, hs, ps = [], [], []
        for did, tx in zip(batch[id_col].to_pylist(),
                           batch[text_col].to_pylist()):
            h = window_hashes((tx or "").split(" "), span)
            if not len(h):
                continue
            if winnow is not None:
                sel = winnow_positions(h, winnow)
            else:
                sel = np.arange(0, len(h), stride)
            hs.append(h[sel])
            ps.append(sel.astype(np.int32))
            ids.append(np.full(len(sel), did, dtype=np.int64))
        if not hs:
            return pa.table({
                "whash": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int32()),
            })
        return pa.table({
            "whash": pa.array(np.concatenate(hs).view(np.int64)),
            "doc_id": pa.array(np.concatenate(ids)),
            "pos": pa.array(np.concatenate(ps)),
        })

    return docs_ds.map_batches(emit, batch_format="pyarrow")


_CAND_SCHEMA = pa.schema([
    ("whash", pa.int64()), ("doc_id", pa.int64()), ("pos", pa.int32()),
])
_SPAN_SCHEMA = pa.schema([("win", pa.string()), ("doc_id", pa.int64())])
_OUT_SCHEMA = pa.schema([("win", pa.string()), ("n_docs", pa.int64()),
                         ("n_occ", pa.int64())])


def duplicated_spans(docs_ds, span: int = 8, stride: int = 4,
                     winnow: int | None = None, num_buckets: int = 64,
                     id_col: str = "doc_id", text_col: str = "text"):
    """(win, n_docs, n_occ) for every selected token window duplicated
    VERBATIM across >=2 distinct documents. See the module docstring for
    the three-stage shape and the stride-vs-winnow selection trade."""
    windows = span_windows(docs_ds, span, stride, winnow, id_col, text_col)

    def multi_doc(part: pd.DataFrame) -> pd.DataFrame:
        # keep whole groups whose window hash touches >=2 distinct docs
        g = part.groupby("whash", sort=False)["doc_id"].transform("nunique")
        return part[g > 1]

    cand = bucketed_group_apply(windows, ["whash"], multi_doc, num_buckets,
                                schema=_CAND_SCHEMA)
    # text fetch: candidates ∪ documents through ONE doc_id co-shuffle
    # (document rows carry pos = -1 and the text; candidate rows the pos)
    tagged_cand = cand.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"], "pos": b["pos"],
            "_text": pa.nulls(len(b), pa.string()),
        }),
        batch_format="pyarrow",
    )
    tagged_docs = docs_ds.map_batches(
        lambda b: pa.table({
            "doc_id": b[id_col],
            "pos": pa.array(np.full(len(b), -1, dtype=np.int32)),
            "_text": b[text_col],
        }),
        batch_format="pyarrow",
    )

    def extract(part: pd.DataFrame) -> pd.DataFrame:
        texts = {
            int(d): (t or "").split(" ")
            for d, t in zip(part.loc[part["pos"] < 0, "doc_id"],
                            part.loc[part["pos"] < 0, "_text"])
        }
        cands = part[part["pos"] >= 0]
        wins = [
            " ".join(texts[int(d)][int(p):int(p) + span])
            for d, p in zip(cands["doc_id"], cands["pos"])
        ]
        return pd.DataFrame({
            "win": pd.Series(wins, dtype="object"),
            "doc_id": cands["doc_id"].to_numpy(),
        })

    spans = bucketed_group_apply(
        tagged_cand.union(tagged_docs), ["doc_id"], extract, num_buckets,
        schema=_SPAN_SCHEMA,
    )

    def finish(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("win", sort=False).agg(
            n_docs=("doc_id", "nunique"), n_occ=("doc_id", "size"),
        ).reset_index()
        g = g[g["n_docs"] > 1]
        return pd.DataFrame({
            "win": g["win"].astype(object),
            "n_docs": g["n_docs"].astype("int64"),
            "n_occ": g["n_occ"].astype("int64"),
        })

    return bucketed_group_apply(
        spans, ["win"], finish, max(8, num_buckets // 4),
        schema=_OUT_SCHEMA,
    )
