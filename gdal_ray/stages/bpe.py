"""Byte-pair-encoding subword tokenizer (Sennrich et al., 2016 trainer +
encoder), the standard LLM-pipeline token-counting stage.

Ray-Data-first shape — the key scale fact is that BPE TRAINING needs only
the (word, count) table, which is VOCABULARY-bounded, not corpus-bounded:

1. ``word_counts``: one vectorized map_batches pass emits pre-combined
   per-batch (word, n) partials; ONE bucketed shuffle sums them (the
   lm.py / tfidf.py partial discipline — the shuffle moves distinct
   words, never tokens).
2. ``train_bpe``: exact greedy merges on the weighted vocab, driver-side
   (the vocab table is the model input and is bounded; at 100 TB you cap
   it with ``max_words`` — highest-count words first — exactly like
   sentencepiece/HF trainers cap their word tables).
3. ``encode_docs``: merge ranks broadcast once via ``ray.put``; per-batch
   encoding memoizes word -> subtokens for the actor lifetime, so
   steady-state cost is one dict lookup per word occurrence.

Determinism: merge selection breaks count ties lexicographically on the
pair, so the trained merge list (and therefore every encoding) is
identical under any parallelism or batch order. Words are maximal
``[a-z0-9_]+`` runs of lower(text); symbols start as single characters
with a '</w>' end-of-word sentinel on the last character (the Sennrich
form, so 'low' and 'lower' share prefix symbols but not the final one).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.ops.runtime import memo
from gdal_ray.ops.shuffle import bucketed_group_apply

__all__ = ["word_counts", "train_bpe", "encode_word", "encode_docs",
           "bpe_token_stats"]

_TOKEN_RE = re.compile(r"[a-z0-9_]+", re.ASCII)
_EOW = "</w>"
_CACHE_CAP = 2_000_000  # distinct words held per actor


def word_counts(docs_ds, text_col: str = "text", num_buckets: int = 16):
    """-> Dataset[(word, n)] — distributed exact word counts with
    per-batch pre-combine."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch[text_col].to_pylist(), dtype="object")
        vc = (texts.fillna("").str.lower().str.findall(_TOKEN_RE)
              .explode().dropna().value_counts())
        return pa.table({
            "word": pa.array(vc.index.to_numpy(object), pa.string()),
            "n": pa.array(vc.to_numpy(np.int64)),
        })

    def combine(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("word", sort=False)["n"].sum().reset_index()
        g["n"] = g["n"].astype("int64")
        return g

    schema = pa.schema([("word", pa.string()), ("n", pa.int64())])
    return bucketed_group_apply(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["word"], combine, num_buckets, schema=schema)


def _symbols(word: str) -> tuple:
    if not word:
        return ()
    return tuple(word[:-1]) + (word[-1] + _EOW,)


def train_bpe(wc, num_merges: int, max_words: int | None = None):
    """-> ordered list of merge pairs [((a, b), rank), ...] as a dict
    {(a, b): rank}. ``wc`` is the word_counts Dataset, a pandas frame,
    or a {word: n} dict."""
    if hasattr(wc, "iter_batches"):  # Dataset
        counts: dict[str, int] = {}
        for b in wc.iter_batches(batch_format="pandas"):
            for w, n in zip(b["word"], b["n"]):
                counts[w] = counts.get(w, 0) + int(n)
    elif isinstance(wc, pd.DataFrame):
        counts = {w: int(n) for w, n in zip(wc["word"], wc["n"])}
    else:
        counts = {w: int(n) for w, n in dict(wc).items()}
    if max_words is not None and len(counts) > max_words:
        keep = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        counts = dict(keep[:max_words])

    words = {w: _symbols(w) for w in counts}
    merges: dict[tuple, int] = {}
    for rank in range(num_merges):
        pairs: dict[tuple, int] = {}
        for w, syms in words.items():
            n = counts[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges[best] = rank
        a, b = best
        ab = a + b
        for w, syms in words.items():
            if a not in syms:
                continue
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = tuple(out)
    return merges


def encode_word(word: str, merges: dict) -> list:
    """Apply merges in rank order (the standard BPE encoder loop)."""
    syms = list(_symbols(word))
    while len(syms) > 1:
        ranked = [(merges[(a, b)], i)
                  for i, (a, b) in enumerate(zip(syms, syms[1:]))
                  if (a, b) in merges]
        if not ranked:
            break
        _, i = min(ranked)
        syms[i:i + 2] = [syms[i] + syms[i + 1]]
    return syms


class _Encode:
    """Actor-pool encoder: merges broadcast once, word->tokens memoized
    for the actor lifetime."""

    def __init__(self, merges_ref, id_col: str, text_col: str):
        import ray

        self.merges = (ray.get(merges_ref)
                       if not isinstance(merges_ref, dict) else merges_ref)
        self.id_col = id_col
        self.text_col = text_col
        self.cache: dict[str, list] = {}

    @staticmethod
    def _word_sig(enc: list) -> int:
        """FNV-1a over the word's subtoken strings (utf-8, NUL-joined):
        pins the exact segmentation of the word, one computation per
        DISTINCT word per actor."""
        h = 14695981039346656037
        for s in enc:
            for byt in s.encode("utf-8") + b"\x00":
                h = ((h ^ byt) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        return h

    def _encode(self, word: str) -> tuple:
        enc = encode_word(word, self.merges)
        return len(enc), self._word_sig(enc)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = pd.Series(batch[self.text_col].to_pylist(), dtype="object")
        ids = np.asarray(batch[self.id_col], dtype=np.int64)
        toks = texts.fillna("").str.lower().str.findall(_TOKEN_RE)
        n = len(texts)
        n_words = toks.str.len().fillna(0).to_numpy(np.int64)
        n_sub = np.zeros(n, np.int64)
        sig = np.zeros(n, np.uint64)
        ex = toks.explode().dropna()
        if not ex.empty:
            # per-UNIQUE-word work only (vocab-bounded); occurrences are
            # aggregated with vectorized scatter-adds
            local = {w: self.cache[w] if w in self.cache
                     else memo(self.cache, w, lambda: self._encode(w), _CACHE_CAP)
                     for w in pd.unique(ex.to_numpy(object))}
            vals = np.array(ex.map(local).tolist(), dtype=np.uint64)
            rows = ex.index.to_numpy(np.int64)
            np.add.at(n_sub, rows, vals[:, 0].astype(np.int64))
            np.add.at(sig, rows, vals[:, 1])  # commutative, wraps mod 2^64
        return pa.table({
            "doc_id": pa.array(ids),
            "n_words": pa.array(n_words),
            "n_subtokens": pa.array(n_sub),
            "tok_fnv": pa.array(sig.view(np.int64)),
        })


def encode_docs(docs_ds, merges: dict, id_col: str = "doc_id",
                text_col: str = "text"):
    """-> (doc_id, n_words, n_subtokens, tok_fnv): distributed encode;
    tok_fnv is the mod-2^64 sum of per-word segmentation FNV signatures —
    commutative (so vectorizable) yet it pins the exact subtoken split of
    every word occurrence for the tests."""
    import ray

    ref = ray.put(merges)
    return docs_ds.map_batches(
        _Encode, fn_constructor_args=(ref, id_col, text_col),
        batch_format="pyarrow", concurrency=(1, 8))


def bpe_token_stats(docs_ds, num_merges: int = 64,
                    max_words: int | None = None, **kw):
    """Train on the corpus, encode the corpus (the fertility-measurement
    loop: n_subtokens / n_words is the tokenizer's compression rate)."""
    merges = train_bpe(word_counts(docs_ds, **kw), num_merges,
                       max_words=max_words)
    return encode_docs(docs_ds, merges)
