"""Pass-fail detectors.

Exhaustive properties look for each candidate as a substring of the
translation, both in `model.match_form`. Contrastive properties compare the
translation's n-grams to correct and foil candidates via embedding cosine
similarity, where n is the token count of the candidate under consideration.

Contrastive scoring works on a batch of cases in two phases. The plan
tokenizes each candidate once, builds each distinct translation's n-grams
once per distinct n (twin systems often share outputs), and collects the
distinct texts. `CachedEmbedder` embeds the texts it has not stored yet, in
chunks of EMBED_BATCH_SIZE, into one array of L2-normalized rows. The
score phase multiplies a case's gram rows by its candidate rows, one product
per distinct n, and takes the max over grams. A gram whose vector equals the
candidate's scores exactly 1.0, and scores are clipped to [-1, 1]. Each
detector takes a table; one case is a one-element table.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import DataInvariantError, ProviderError
from .model import CandidateSet, ContrastivePair, match_form

TOKENIZER_MODES = ("whitespace", "character")

# Texts per inner `embed` call when the store fills missing rows.
EMBED_BATCH_SIZE = 256


class Embedder(Protocol):
    """Maps m texts to one (m, d) float64 array; d is constant per session."""

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


@dataclass(frozen=True)
class TokenizerConfig:
    """How translations and candidates are split into tokens.

    Whitespace mode suits space-segmented languages; character mode is for
    non-segmented scripts, where n becomes a character count.
    """

    mode: str = "whitespace"
    strip_edge_punct: bool = True

    def __post_init__(self) -> None:
        if self.mode not in TOKENIZER_MODES:
            raise DataInvariantError(f"unknown tokenizer mode {self.mode!r}")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_edges(token: str) -> str:
    # Letters and numbers, which is all isalnum() accepts, are never punctuation.
    if token[:1].isalnum() and token[-1:].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str, tok: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split text into tokens per the tokenizer config."""
    if tok.mode == "character":
        stripped = text.strip()
        if tok.strip_edge_punct:
            stripped = _strip_edges(stripped)
        return list(stripped)
    tokens = text.split()
    if tok.strip_edge_punct:
        tokens = [s for t in tokens if (s := _strip_edges(t))]
    return tokens


def _windows(toks: list[str], n: int, tok: TokenizerConfig) -> list[str]:
    sep = "" if tok.mode == "character" else " "
    if len(toks) < n:
        return [sep.join(toks)]
    return [sep.join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def ngrams(text: str, n: int, tok: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """All contiguous n-token windows of text, rejoined as strings.

    A text with fewer than n tokens yields one gram: the whole tokenized
    text. This keeps short translations comparable instead of auto-failing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _windows(tokenize(text, tok), n, tok)


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _contains(haystack: str, needle: str) -> bool:
    """Whether `needle` occurs in `haystack` with a non-word character or an edge on each side."""
    start = 0
    while True:
        i = haystack.find(needle, start)
        if i < 0:
            return False
        before_ok = i == 0 or not _is_word_char(haystack[i - 1])
        j = i + len(needle)
        after_ok = j >= len(haystack) or not _is_word_char(haystack[j])
        if before_ok and after_ok:
            return True
        start = i + 1


def match_exhaustive(
    entries: Sequence[CandidateSet | None],
    translations: Sequence[str | None],
    *,
    token_boundary: bool = False,
) -> tuple[list[bool | None], list[str | None]]:
    """Per case of one system's `translations`: its pass bit and matched
    candidate, None where the case's entry or translation is None. A case
    passes iff some candidate occurs in its translation, both in match form;
    the first such candidate is the match. `token_boundary=True` also requires a
    non-word character or an edge on each side of the match."""
    passes, matched = [None] * len(entries), [None] * len(entries)
    for k, (entry, text) in enumerate(zip(entries, translations, strict=True)):
        if entry is not None and text is not None:
            folded = match_form(text)
            passes[k] = False
            for i, key in enumerate(entry.folded):
                if key in folded and (not token_boundary or _contains(folded, key)):
                    passes[k], matched[k] = True, entry.candidates[i]
                    break
    return passes, matched


class CachedEmbedder:
    """Array store of embeddings: one L2-normalized row per distinct text.

    `embed` sends the texts not stored yet to the inner embedder in chunks of
    EMBED_BATCH_SIZE. Rows whose raw vectors are equal share a class id, so
    equal vectors can score exactly 1.0. A zero or non-finite vector is a
    ProviderError naming its text.
    """

    def __init__(self, inner: Embedder) -> None:
        self._inner = inner
        self._row: dict[str, int] = {}
        self._class_of: dict[bytes, int] = {}
        self._vectors = np.empty((0, 0))
        self._classes = np.empty(0, dtype=np.intp)

    @property
    def vectors(self) -> np.ndarray:
        """The (m, d) normalized rows, in the order texts were first stored."""
        return self._vectors[: len(self._row)]

    @property
    def classes(self) -> np.ndarray:
        """Per row, the id of its raw vector; equal ids mean equal vectors."""
        return self._classes[: len(self._row)]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Row numbers of `texts` in `vectors`, storing every new text first."""
        missing = [t for t in dict.fromkeys(texts) if t not in self._row]
        for start in range(0, len(missing), EMBED_BATCH_SIZE):
            self._append(missing[start : start + EMBED_BATCH_SIZE], len(missing) - start)
        return np.fromiter((self._row[t] for t in texts), dtype=np.intp, count=len(texts))

    def _append(self, texts: list[str], pending: int) -> None:
        """Store the rows of `texts`, the first chunk of `pending` new texts."""
        vectors = self._inner.embed(texts)
        if len(vectors) != len(texts):
            raise DataInvariantError(
                f"embedder returned {len(vectors)} vectors for {len(texts)} texts"
            )
        m = len(self._row)
        dim = self._vectors.shape[1] if m else vectors.shape[1]
        if vectors.shape[1] != dim:
            raise DataInvariantError(f"embedding dim changed from {dim} to {vectors.shape[1]}")
        raw = np.add(vectors, 0.0, order="C")  # C order for the row view; -0.0 -> 0.0
        norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
        for i in np.flatnonzero(~(np.isfinite(norms) & (norms > 0))):
            problem = "all zero" if norms[i] == 0 else "not finite"
            raise ProviderError(f"embedding of {texts[i]!r} is {problem}")
        if m + len(texts) > len(self._vectors):
            # Room for every pending text at once: one copy per `embed` call,
            # and at least doubling, so many small calls stay linear.
            capacity = max(m + pending, 2 * len(self._vectors))
            grown, classes = np.empty((capacity, dim)), np.empty(capacity, dtype=np.intp)
            if m:
                grown[:m], classes[:m] = self.vectors, self.classes
            self._vectors, self._classes = grown, classes
        self._vectors[m : m + len(texts)] = raw / norms[:, None]
        class_of = self._class_of
        keys = raw.view(f"V{raw.itemsize * dim}").ravel().tolist()  # each row's bytes
        self._classes[m : m + len(texts)] = [class_of.setdefault(k, len(class_of)) for k in keys]
        self._row.update(zip(texts, range(m, m + len(texts))))


def max_sim(
    translations: Sequence[str],
    candidates: Sequence[Sequence[str]],
    embedder: Embedder | CachedEmbedder,
    tok: TokenizerConfig = TokenizerConfig(),
) -> np.ndarray:
    """For each i and each c in `candidates[i]`, flattened in that order: the
    maximum cosine similarity between c and any n-gram of `translations[i]`,
    with n equal to c's token count.

    The batch makes one `embed` call on the store; a plain embedder is
    wrapped in a store that lives for this call only.
    """
    if isinstance(translations, str) or any(isinstance(c, str) for c in candidates):
        raise TypeError("max_sim takes a list of translations and one list of candidates each")
    n_of: dict[str, int] = {}
    ids: dict[str, int] = {}  # distinct text -> its index in the store call
    grams: dict[tuple[str, int], list[int]] = {}  # (translation, n) -> gram ids; twins share
    cand_ids: list[int] = []
    plan: list[tuple[list[int], list[int]]] = []  # (gram ids, flat indices of their candidates)
    for translation, cands in zip(translations, candidates, strict=True):
        by_n: dict[int, list[int]] = {}
        for cand in cands:
            if not cand:
                raise ValueError("candidate must be nonempty")
            n = n_of.get(cand)
            if n is None:
                n = n_of[cand] = len(tokenize(cand, tok)) or 1
            by_n.setdefault(n, []).append(len(cand_ids))
            cand_ids.append(ids.setdefault(cand, len(ids)))
        toks = None  # tokenized at most once, and only for a translation not seen before
        for n, idx in by_n.items():
            gram_ids = grams.get((translation, n))
            if gram_ids is None:
                if toks is None:
                    toks = tokenize(translation, tok)
                gram_ids = grams[translation, n] = [
                    ids.setdefault(g, len(ids)) for g in _windows(toks, n, tok)
                ]
            plan.append((gram_ids, idx))
    store = embedder if isinstance(embedder, CachedEmbedder) else CachedEmbedder(embedder)
    rows = store.embed(list(ids))
    vectors, classes = store.vectors, store.classes
    cand_rows = rows[cand_ids]
    out = np.empty(len(cand_ids))
    for gram_ids, idx in plan:
        g, c = rows[gram_ids], cand_rows[idx]
        sims = vectors[g] @ vectors[c].T
        sims[classes[g][:, None] == classes[c]] = 1.0
        out[idx] = sims.max(axis=0)
    return np.clip(out, -1.0, 1.0, out=out)


def judge_contrastive(
    translations: Sequence[str],
    pairs: Sequence[ContrastivePair],
    embedder: Embedder | CachedEmbedder,
    tok: TokenizerConfig = TokenizerConfig(),
) -> list[list[float]]:
    """One [sim_correct, sim_foil] score pair per (translation, pair): the
    translation's closest similarity to the correct candidates and to the
    foils. It passes iff sim_correct >= sim_foil; ties pass."""
    if not translations:
        return []
    sims = max_sim(translations, [p.correct + p.foil for p in pairs], embedder, tok)
    # Where each pair's correct and foil scores start: the running sum of the list sizes.
    sizes = [n for pair in pairs for n in (len(pair.correct), len(pair.foil))]
    bounds = np.cumsum(sizes) - sizes
    return np.maximum.reduceat(sims, bounds).reshape(-1, 2).tolist()
