"""Text-analysis stages for the documents table (engine additions for
large-scale training-data pipelines; no GDAL counterpart).

All stages are callable classes: regexes/tables compiled once per
instance, batches processed vectorized with pandas string kernels. Most run
as actor pools; ``PIIRedact`` is mapped as an instance, so it runs as tasks
(the pickled instance carries its patterns to each task).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

__all__ = ["TextStats", "LangId", "Fingerprint", "RepetitionStats",
           "GopherNgramStats", "DolmaSignals", "PIIRedact", "C4LineFilter"]

_STOPWORDS = {
    "the", "and", "of", "a", "to", "in", "is", "it", "that", "for", "on", "as",
    "with", "was", "at", "by", "an", "be", "this", "are", "or", "from",
}

# tiny per-language character/word profiles for the n-gram heuristic
_LANG_PROFILES = {
    "en": {"the", "and", "ing", "ion", "is", "of"},
    "de": {"der", "und", "sch", "ein", "ich", "die"},
    "fr": {"les", "des", "ent", "que", "une", "est"},
    "es": {"los", "las", "que", "ión", "una", "del"},
}


class TextStats:
    """text -> n_tokens, n_chars_check, punct_ratio, stopword_ratio, quality.

    ``n_tokens`` counts maximal runs of non-space characters — expressible
    in ANSI SQL (length-based), so this column is oracle-checkable.
    """

    def __init__(self):
        # ASCII character classes throughout: matches RE2 (\w = [0-9A-Za-z_])
        # so every column has an exact DuckDB twin (q_text_analysis oracle)
        self.word = re.compile(r"[^ \t\n\r]+")
        # explicit whitespace list (RE2's \s has no \v, Python's does):
        # both sides treat \v as punctuation
        self.punct = re.compile(r"[^\w \t\n\f\r]", re.ASCII)
        self.token = re.compile(r"\w+", re.ASCII)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        batch["n_tokens"] = text.str.count(self.word.pattern).astype("int64")
        batch["n_chars_check"] = text.str.len().astype("int64")
        batch["n_punct"] = text.str.count(self.punct.pattern).astype("int64")
        # vectorized stopword ratio: explode token lists once, set-membership
        # and per-row aggregation as pandas kernels (no per-row lambda)
        toks = text.str.lower().str.findall(self.token)
        ex = toks.explode()
        n_tok = ex.notna().groupby(level=0).sum()
        n_stop = ex.isin(_STOPWORDS).groupby(level=0).sum()
        batch["stopword_ratio"] = (
            (n_stop / n_tok.clip(lower=1)).reindex(batch.index).fillna(0.0)
        )
        # simple composite quality score in [0, 1]
        length_score = np.clip(batch["n_chars_check"] / 500.0, 0, 1)
        punct_score = 1.0 - np.clip(
            batch["n_punct"] / batch["n_chars_check"].clip(lower=1) / 0.3, 0, 1
        )
        batch["quality"] = (length_score + punct_score + batch["stopword_ratio"].clip(0, 1)) / 3.0
        return batch


class LangId:
    """Character-trigram language-ID heuristic -> lang_pred column.

    Vectorized: per profile entry one compiled ``str.contains`` pass over the
    whole batch (trigram = substring containment; word = token-boundary
    containment via char-class lookarounds), then one argmax over the
    (batch, n_langs) score matrix. Semantics identical to the per-row set
    intersection: a length-3 profile entry scores 1 iff it appears anywhere,
    any entry scores +2 iff it appears as a whole token; first-max language
    in profile order wins, score 0 -> 'unk'."""

    _CHCLS = "a-zäöüéèêáíóúñç"

    def __init__(self):
        self.token = re.compile(r"[a-zäöüéèêáíóúñç]{2,}", re.IGNORECASE)
        self.langs = list(_LANG_PROFILES)
        self.tri = {
            lang: [re.compile(re.escape(p)) for p in prof if len(p) == 3]
            for lang, prof in _LANG_PROFILES.items()
        }
        self.word = {
            lang: [
                re.compile(rf"(?<![{self._CHCLS}]){re.escape(p)}(?![{self._CHCLS}])")
                for p in prof
            ]
            for lang, prof in _LANG_PROFILES.items()
        }

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("").str.lower()
        scores = np.zeros((len(batch), len(self.langs)), dtype=np.int64)
        for j, lang in enumerate(self.langs):
            for pat in self.tri[lang]:
                scores[:, j] += t.str.contains(pat, regex=True).to_numpy()
            for pat in self.word[lang]:
                scores[:, j] += 2 * t.str.contains(pat, regex=True).to_numpy()
        best = np.argmax(scores, axis=1)  # first max -> profile order
        pred = np.asarray(self.langs, dtype=object)[best]
        pred[scores.max(axis=1) == 0] = "unk"
        batch["lang_pred"] = pred
        return batch


class Fingerprint:
    """Rolling-hash document fingerprint (FNV-1a 64-bit over utf-8 bytes).

    Vectorized ACROSS the batch: texts are packed into one (n, maxlen)
    uint8 matrix and the rolling recurrence iterates over byte COLUMNS
    (maxlen steps of whole-batch numpy ops) instead of per-row Python
    byte loops — same hash values, ~batch-size-fold fewer interpreter ops."""

    BASE = np.uint64(1099511628211)
    SEED = np.uint64(14695981039346656037)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        enc = [(t or "").encode("utf-8") for t in batch["text"]]
        n = len(enc)
        lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n)
        maxlen = int(lens.max()) if n else 0
        mat = np.zeros((n, maxlen), dtype=np.uint8)
        for i, e in enumerate(enc):
            mat[i, : len(e)] = np.frombuffer(e, dtype=np.uint8)
        h = np.full(n, self.SEED, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(maxlen):
                active = j < lens
                h = np.where(active, (h ^ mat[:, j].astype(np.uint64)) * self.BASE, h)
        batch["fingerprint"] = h.view(np.int64)
        return batch


class RepetitionStats:
    """Gopher-style repetition metrics (Rae et al. 2021 quality rules):
    duplicate-line count and the duplicate-line CHARACTER fraction
    (characters in occurrences beyond a line's first, over all line
    characters), plus the top word-bigram character fraction.

    The line metrics are exact-integer: the fraction is quantized as
    ``dup_chars * 10000 // total_chars`` so the DuckDB twin
    (string_split(chr(10)) + GROUP BY + integer division) matches
    bit-for-bit with no float rounding to tie-break. Splitting uses
    bare \n on both sides (python str.split('\n') == string_split(t,
    chr(10)), empty pieces kept)."""

    def __init__(self, sep: str = "\n", unit: str = "line"):
        import re as _re

        self.token = _re.compile(r"\w+", _re.ASCII)
        # sep="\n\n", unit="para" gives Gopher's duplicate-PARAGRAPH
        # metrics with identical integer math (columns n_dup_paras /
        # dup_para_char_frac_q)
        self.sep = sep
        self.unit = unit

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        text = batch["text"].fillna("")
        lines = text.str.split(self.sep)
        ex = lines.explode()
        g = (
            pd.DataFrame({"row": ex.index, "line": ex.to_numpy()})
            .groupby(["row", "line"], sort=False)
            .size()
            .rename("c")
            .reset_index()
        )
        g["len"] = g["line"].str.len().astype("int64")
        g["dupchars"] = (g["c"] - 1) * g["len"]
        g["chars"] = g["c"] * g["len"]
        g["duplines"] = g["c"] - 1
        agg = g.groupby("row")[["dupchars", "chars", "duplines"]].sum()
        agg = agg.reindex(range(len(batch))).fillna(0).astype("int64")
        batch[f"n_dup_{self.unit}s"] = agg["duplines"]
        batch[f"dup_{self.unit}_char_frac_q"] = (
            agg["dupchars"] * 10000 // agg["chars"].clip(lower=1)
        )
        # top word-bigram char fraction (rows-only; pytest-pinned)
        toks = text.str.lower().str.findall(self.token)

        def top2(tl):
            if len(tl) < 2:
                return 0.0
            big = {}
            for a, b in zip(tl, tl[1:]):
                big[(a, b)] = big.get((a, b), 0) + 1
            (a, b), c = max(big.items(), key=lambda kv: (kv[1], kv[0]))
            return c * (len(a) + len(b)) / max(sum(len(t) for t in tl), 1)

        batch["top_bigram_char_frac"] = toks.map(top2)
        return batch


class GopherNgramStats:
    """The full Gopher n-gram repetition rule set (Rae et al. 2021,
    Table A1), complementing RepetitionStats' line metrics:

    - ``top_frac_q_{2,3,4}``: characters of the most frequent n-gram
      (count x its token characters) over all token characters. The
      winner breaks count ties lexicographically on the space-joined
      n-gram, so the value is deterministic and SQL-twinnable.
    - ``dup_frac_q_{5..10}``: characters covered by tokens lying inside
      ANY n-gram that occurs more than once — overlap counted ONCE (the
      paper's "taking care not to count characters ... more than once"),
      via a union of [i, i+n) start intervals.

    All fractions are exact integers quantized as
    ``chars * 10000 // total_token_chars`` (separators excluded), so the
    DuckDB twin (lead() n-gram keys + windowed interval union) matches
    bit-for-bit. Tokens are ``[a-z0-9_]+`` of lower(text); docs with no
    tokens emit all zeros. Work per doc is a handful of numpy ops over
    its token array (no per-token Python)."""

    TOP_NS = (2, 3, 4)
    DUP_NS = (5, 6, 7, 8, 9, 10)

    def __init__(self):
        self.token = re.compile(r"[a-z0-9_]+", re.ASCII)

    @staticmethod
    def _ngrams(toks: np.ndarray, n: int) -> np.ndarray:
        m = len(toks)
        ngr = toks[: m - n + 1]
        for k in range(1, n):
            ngr = np.char.add(np.char.add(ngr, " "), toks[k: m - n + 1 + k])
        return ngr

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        toklists = batch["text"].fillna("").str.lower().str.findall(self.token)
        n_rows = len(batch)
        cols = {f"top_frac_q_{n}": np.zeros(n_rows, np.int64)
                for n in self.TOP_NS}
        cols.update({f"dup_frac_q_{n}": np.zeros(n_rows, np.int64)
                     for n in self.DUP_NS})
        for i, tl in enumerate(toklists):
            m = len(tl)
            if m == 0:
                continue
            toks = np.asarray(tl, dtype=str)
            lens = np.char.str_len(toks).astype(np.int64)
            total = int(lens.sum())
            if total == 0:
                continue
            for n in self.TOP_NS:
                if m < n:
                    continue
                ngr = self._ngrams(toks, n)
                uniq, counts = np.unique(ngr, return_counts=True)
                best = int(np.argmax(counts))  # first max = lexicographic min
                chars = int(counts[best]) * (len(uniq[best]) - (n - 1))
                cols[f"top_frac_q_{n}"][i] = chars * 10000 // total
            cum = np.concatenate([[0], np.cumsum(lens)])
            for n in self.DUP_NS:
                if m < n:
                    continue
                ngr = self._ngrams(toks, n)
                uniq, inv, counts = np.unique(
                    ngr, return_inverse=True, return_counts=True)
                starts = counts[inv] > 1  # start positions of dup n-grams
                if not starts.any():
                    continue
                # union of [i, i+n): token j covered iff a dup start lies
                # in [j-n+1, j] (clipped) — windowed OR via cumsum diffs
                cs = np.concatenate([[0], np.cumsum(starts.astype(np.int64))])
                j = np.arange(m)
                hi = np.minimum(j, m - n) + 1
                lo = np.maximum(j - n + 1, 0)
                covered = (cs[hi] - cs[lo]) > 0
                chars_cov = int(lens[covered].sum())
                cols[f"dup_frac_q_{n}"][i] = chars_cov * 10000 // total
        for k, v in cols.items():
            batch[k] = v
        return batch


class C4LineFilter:
    """C4 line-level quality filtering (Raffel et al., 2020 §2.2): keep a
    line iff it ends in terminal punctuation (``. ! ? "``), has at least
    ``min_words`` whitespace-delimited words, contains no curly brace and
    none of the blocklist substrings ('lorem ipsum', 'javascript',
    case-insensitive); keep the DOCUMENT iff at least ``min_kept_lines``
    lines survive (C4's >=3-sentence rule, lines as the sentence proxy).

    Emits per doc: ``filtered`` (kept lines re-joined with \\n),
    ``n_lines``, ``n_kept``, ``kept_chars`` and ``keep_doc`` (0/1 int64).
    Line split is bare \\n on both sides (python split == DuckDB
    string_split(chr(10))), and every per-line predicate is expressible
    in RE2/ANSI SQL, so the count/keep columns have an exact DuckDB twin.
    """

    def __init__(self, min_words: int = 5, min_kept_lines: int = 3):
        self.min_words = min_words
        self.min_kept_lines = min_kept_lines
        self.term = re.compile(r'[.!?"]$')
        self.word = re.compile(r"[^ \t]+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        text = batch["text"].fillna("")
        ex = text.str.split("\n").explode()
        low = ex.str.lower()
        keep = (
            ex.str.contains(self.term, regex=True)
            & (ex.str.count(self.word.pattern) >= self.min_words)
            & ~ex.str.contains("{", regex=False)
            & ~low.str.contains("lorem ipsum", regex=False)
            & ~low.str.contains("javascript", regex=False)
        )
        df = pd.DataFrame({"row": ex.index.to_numpy(), "line": ex.to_numpy(),
                           "keep": keep.to_numpy(),
                           "chars": ex.str.len().to_numpy()})
        agg = df.groupby("row").agg(
            n_lines=("keep", "size"), n_kept=("keep", "sum"))
        agg["kept_chars"] = (
            (df["chars"] * df["keep"]).groupby(df["row"]).sum())
        kept_text = (df[df["keep"]].groupby("row")["line"]
                     .agg("\n".join))
        agg = agg.reindex(range(len(batch))).fillna(0)
        batch["n_lines"] = agg["n_lines"].astype("int64")
        batch["n_kept"] = agg["n_kept"].astype("int64")
        batch["kept_chars"] = agg["kept_chars"].astype("int64")
        batch["keep_doc"] = (
            batch["n_kept"] >= self.min_kept_lines).astype("int64")
        batch["filtered"] = kept_text.reindex(range(len(batch))).fillna("")
        return batch


class DolmaSignals:
    """Dolma-style per-document quality signals (Soldaini et al. 2024
    taggers), each an exact integer quantized ``x * 10000 // denom`` so
    the DuckDB twin matches bit-for-bit:

    - ``mean_wlen_q``: total word characters over word count (words =
      maximal non-space runs, the TextStats convention);
    - ``caps_word_frac_q``: fraction of words that are ALL-CAPS
      (``^[A-Z]{2,}$``);
    - ``symbol_ratio_q``: '#' and ellipsis-char occurrences per word;
    - ``ellipsis_line_frac_q``: fraction of lines ending in '...' or the
      single-char ellipsis;
    - ``bullet_line_frac_q``: fraction of lines starting with '-', '*'
      or the bullet char.
    """

    def __init__(self):
        self.word = re.compile(r"[^ \t\n\r]+")
        self.caps = re.compile(r"[A-Z][A-Z]+", re.ASCII)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        text = batch["text"].fillna("")
        words = text.str.findall(self.word)
        ex = words.explode().dropna()
        rows = ex.index
        wlen = ex.str.len().groupby(rows).sum()
        n_w = ex.groupby(rows).size()
        is_caps = ex.str.fullmatch(self.caps).groupby(rows).sum()
        n_words = n_w.reindex(range(len(batch))).fillna(0).astype("int64")
        total_wchars = wlen.reindex(range(len(batch))).fillna(0).astype(
            "int64")
        n_caps = is_caps.reindex(range(len(batch))).fillna(0).astype("int64")
        n_sym = (text.str.count("#", flags=re.ASCII)
                 + text.str.count("…")).astype("int64")
        lines = text.str.split("\n").explode()
        lr = lines.index
        end_ell = (lines.str.endswith("...")
                   | lines.str.endswith("…")).groupby(lr).sum()
        # ltrim spaces/tabs only (DuckDB ltrim parity)
        start_bul = lines.str.lstrip(" \t").str.startswith(
            ("-", "*", "•")).groupby(lr).sum()
        n_lines = lines.groupby(lr).size().reindex(
            range(len(batch))).fillna(1).astype("int64")
        denom_w = n_words.clip(lower=1)
        batch["mean_wlen_q"] = total_wchars * 10000 // denom_w
        batch["caps_word_frac_q"] = n_caps * 10000 // denom_w
        batch["symbol_ratio_q"] = n_sym * 10000 // denom_w
        batch["ellipsis_line_frac_q"] = (
            end_ell.reindex(range(len(batch))).fillna(0).astype("int64")
            * 10000 // n_lines)
        batch["bullet_line_frac_q"] = (
            start_bul.reindex(range(len(batch))).fillna(0).astype("int64")
            * 10000 // n_lines)
        return batch


class PIIRedact:
    """PII scrubbing (emails / IPv4 addresses / phone numbers), the
    standard pre-training redaction pass.

    Patterns are ASCII-only and RE2-compatible (no backrefs, no
    lookaround), so every column has an exact DuckDB twin
    (regexp_extract_all / regexp_replace ... 'g'). Semantics are pinned
    for parity: each pattern is COUNTED against the ORIGINAL text, then
    redaction applies sequentially email -> phone -> ip (the replacement
    tokens contain no digits or '@', so later patterns can never match
    inside an earlier replacement). ``redacted_md5`` is the md5 hex
    digest of the utf-8 redacted text — a value-exact cross-check of the
    full string transform without shipping the text twice.
    """

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+"
    PHONE = r"\b\d\d\d[- ]\d\d\d[- ]\d\d\d\d\b"
    IP = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"

    def __init__(self):
        self.email = re.compile(self.EMAIL, re.ASCII)
        self.phone = re.compile(self.PHONE, re.ASCII)
        self.ip = re.compile(self.IP, re.ASCII)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        t = batch["text"].fillna("")
        batch["n_emails"] = t.str.count(self.EMAIL, flags=re.ASCII).astype("int64")
        batch["n_phones"] = t.str.count(self.PHONE, flags=re.ASCII).astype("int64")
        batch["n_ips"] = t.str.count(self.IP, flags=re.ASCII).astype("int64")
        red = (
            t.str.replace(self.email, "<EMAIL>", regex=True)
            .str.replace(self.phone, "<PHONE>", regex=True)
            .str.replace(self.ip, "<IP>", regex=True)
        )
        batch["redacted"] = red
        batch["redacted_md5"] = [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in red
        ]
        return batch
