"""BPE trainer/encoder (stages/bpe.py): hand-derived merge oracles.

The Sennrich corpus {low:5, lower:2, newest:6, widest:3} has a fully
hand-computable merge sequence (ties break lexicographically), pinned
below; the distributed word-count and encode paths are then checked
against collections.Counter and per-word encodes.
"""

from collections import Counter

import pytest
import ray.data as rd

from gdal_ray.stages.bpe import (bpe_token_stats, encode_docs, encode_word,
                                 train_bpe, word_counts)

SENNRICH = {"low": 5, "lower": 2, "newest": 6, "widest": 3}


def test_train_merges_hand_derived():
    merges = train_bpe(SENNRICH, num_merges=4)
    # round 1: ('e','s')=9 ties ('s','t</w>')=9 -> lexicographic min
    # round 2: ('es','t</w>')=9; round 3: ('l','o')=7; round 4: three-way
    # tie at 6 between ('n','e'), ('e','w'), ('w','est</w>') -> ('e','w')
    assert merges == {("e", "s"): 0, ("es", "t</w>"): 1,
                      ("l", "o"): 2, ("e", "w"): 3}


def test_encode_word_applies_ranks_in_order():
    merges = train_bpe(SENNRICH, num_merges=4)
    assert encode_word("newest", merges) == ["n", "ew", "est</w>"]
    assert encode_word("lowest", merges) == ["lo", "w", "est</w>"]  # unseen
    assert encode_word("low", merges) == ["lo", "w</w>"]
    assert encode_word("zz", merges) == ["z", "z</w>"]


def test_tiny_two_word_trainer():
    merges = train_bpe({"aa": 4, "ab": 2}, num_merges=5)  # exhausts pairs
    assert merges == {("a", "a</w>"): 0, ("a", "b</w>"): 1}
    assert encode_word("aab", merges) == ["a", "ab</w>"]


DOCS = [
    (0, "the low low bird"),
    (1, "newest widest lower"),
    (2, "the newest newest low"),
    (3, ""),
]


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    return rd.from_items(
        [{"doc_id": d, "text": t} for d, t in DOCS]).repartition(2)


def test_word_counts_distributed(docs_ds):
    got = {r["word"]: r["n"]
           for r in word_counts(docs_ds, num_buckets=4).take_all()}
    want = Counter(w for _, t in DOCS for w in t.split() if w)
    assert got == dict(want)


def test_encode_docs_matches_per_word(docs_ds):
    wc = {r["word"]: r["n"]
          for r in word_counts(docs_ds, num_buckets=4).take_all()}
    merges = train_bpe(wc, num_merges=6)
    out = encode_docs(docs_ds, merges).to_pandas().set_index("doc_id")
    for did, text in DOCS:
        words = [w for w in text.lower().split() if w]
        assert out.loc[did, "n_words"] == len(words)
        assert out.loc[did, "n_subtokens"] == sum(
            len(encode_word(w, merges)) for w in words)
    # identical word multisets -> identical signature; different -> not
    assert out.loc[3, "n_subtokens"] == 0 and out.loc[3, "tok_fnv"] == 0


def test_bpe_token_stats_end_to_end(docs_ds):
    out = bpe_token_stats(docs_ds, num_merges=8,
                          num_buckets=4).to_pandas()
    assert len(out) == len(DOCS)
    # fertility >= 1 subtoken per word for non-empty docs
    ne = out[out["n_words"] > 0]
    assert (ne["n_subtokens"] >= ne["n_words"]).all()


def test_encode_with_capped_cache(monkeypatch):
    """A word cache capped below a batch's distinct words gives the same
    rows as an uncapped one, on a cold and on a warm cache."""
    import pyarrow as pa

    from gdal_ray.stages import bpe

    merges = train_bpe(SENNRICH, num_merges=4)
    batch = pa.table({"doc_id": [d for d, _ in DOCS],
                      "text": [t for _, t in DOCS]})
    want = bpe._Encode(merges, "doc_id", "text")(batch)
    monkeypatch.setattr(bpe, "_CACHE_CAP", 2)
    enc = bpe._Encode(merges, "doc_id", "text")
    assert enc(batch).equals(want)
    assert enc(batch).equals(want)
    assert len(enc.cache) <= 2
