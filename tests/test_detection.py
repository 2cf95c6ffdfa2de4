"""Detectors: substring matching, n-grams, cosine, contrastive similarity."""
from __future__ import annotations

import random
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtbehave.detection import (
    EMBED_BATCH_SIZE,
    CachedEmbedder,
    TokenizerConfig,
    judge_contrastive,
    match_exhaustive,
    max_sim,
    ngrams,
    tokenize,
)
from mtbehave.errors import DataInvariantError, ProviderError
from mtbehave.model import CandidateSet, ContrastivePair
from mtbehave.providers import HashEmbedder

from conftest import (
    ConstantEmbedder,
    CountingEmbedder,
    reference_cosine,
    reference_hash_vector,
    reference_max_sim,
)

WS = TokenizerConfig()
CHARS = TokenizerConfig(mode="character")


def naive_match(translation: str, candidates: CandidateSet) -> bool:
    """Independent oracle: fold-and-scan substring containment."""
    folded = translation.casefold()
    return any(c.casefold() in folded for c in candidates.candidates)


class TestMatchExhaustive:
    def test_miles_pass(self):
        cset = CandidateSet(value="miles", candidates=("Meilen", "mi"))
        [passed], [matched] = match_exhaustive([cset], ["Ich lief 3 Meilen."])
        assert passed
        assert matched == "Meilen"

    def test_km_fails(self):
        cset = CandidateSet(value="miles", candidates=("Meilen", "mi"))
        assert match_exhaustive([cset], ["Ich lief 3 km."])[0] == [False]

    def test_empty_translation_fails(self):
        assert match_exhaustive([CandidateSet(value="x", candidates=("x",))], [""])[0] == [False]

    def test_only_the_translation_is_folded_per_call(self):
        class Counted(str):
            folds = 0

            def casefold(self):
                Counted.folds += 1
                return str.casefold(self)

        cset = CandidateSet(value="miles", candidates=(Counted("MEILEN"), Counted("Mi")))
        translation = Counted("Ich lief 3 km.")
        Counted.folds = 0
        assert match_exhaustive([cset], [translation])[0] == [False]
        assert Counted.folds == 1

    def test_decimal_formats_both_pass(self):
        cset = CandidateSet(value="4200.4", candidates=("4200,4", "4.200,4"))
        assert match_exhaustive([cset], ["Das Unternehmen erhielt 4200,4€."])[0] == [True]
        assert match_exhaustive([cset], ["Das Unternehmen erhielt 4.200,4€."])[0] == [True]

    def test_case_insensitive(self):
        cset = CandidateSet(value="miles", candidates=("MEILEN",))
        assert match_exhaustive([cset], ["ich lief drei meilen"])[0] == [True]

    @pytest.mark.parametrize("token_boundary", [False, True])
    @pytest.mark.parametrize(
        "candidate, translation",
        [
            ("Müller", "Herr Mu\u0308ller kam."),  # NFD: u + combining diaeresis
            ("1 000", "Es kamen 1\u202f000 Gäste."),  # CLDR's thousands separator
            ("5 km", "Noch 5\u00a0km bis Bonn."),  # no-break space
        ],
        ids=["nfd", "narrow-no-break-space", "no-break-space"],
    )
    def test_other_form_of_a_candidate_matches(self, candidate, translation, token_boundary):
        cset = CandidateSet(value="v", candidates=(candidate,))
        result = match_exhaustive([cset], [translation], token_boundary=token_boundary)
        assert result == ([True], [candidate])  # the candidate keeps its own spelling

    @pytest.mark.parametrize("token_boundary", [False, True])
    def test_base_letter_does_not_match_its_decomposed_accent(self, token_boundary):
        cset = CandidateSet(value="v", candidates=("Mu",))
        result = match_exhaustive([cset], ["Mu\u0308ller"], token_boundary=token_boundary)
        assert result[0] == [False]

    def test_units_superscript_does_not_match_its_compatibility_form(self):
        # NFKC would map "m²" to "m2"; a units property must tell them apart.
        cset = CandidateSet(value="square meters", candidates=("m²",))
        assert match_exhaustive([cset], ["Die Wohnung hat 80 m2."])[0] == [False]
        assert match_exhaustive([cset], ["Die Wohnung hat 80 m²."])[0] == [True]

    def test_matched_candidate_is_first_in_set_order(self):
        cset = CandidateSet(value="miles", candidates=("eile", "Meilen"))
        _, [matched] = match_exhaustive([cset], ["Ich lief 3 Meilen."])
        assert matched == "eile"  # occurs inside "Meilen"

    def test_token_boundary_mode_rejects_inner_match(self):
        cset = CandidateSet(value="miles", candidates=("mi",))
        assert match_exhaustive([cset], ["Ich trinke Milch."])[0] == [True]
        assert match_exhaustive([cset], ["Ich trinke Milch."], token_boundary=True)[0] == [False]
        assert match_exhaustive([cset], ["Ich lief 3 mi."], token_boundary=True)[0] == [True]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20240817)
        alphabet = "abßÄ😀 .,"
        for _ in range(2000):
            translation = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            cands = []
            for _ in range(rng.randint(1, 4)):
                cand = "".join(rng.choice(alphabet.strip()) for _ in range(rng.randint(1, 4)))
                if cand.strip():
                    cands.append(cand)
            if not cands:
                continue
            try:
                cset = CandidateSet(value="v", candidates=tuple(cands))
            except DataInvariantError:
                continue
            assert match_exhaustive([cset], [translation])[0] == [naive_match(translation, cset)]

    def test_monotone_in_candidate_set(self):
        small = CandidateSet(value="v", candidates=("Meilen",))
        large = CandidateSet(value="v", candidates=("Meilen", "mi"))
        for text in ("Ich lief 3 Meilen.", "Ich lief 3 km.", "nur mi hier"):
            if match_exhaustive([small], [text])[0] == [True]:
                assert match_exhaustive([large], [text])[0] == [True]

    @given(st.text(max_size=40))
    def test_case_change_invariance(self, text):
        cset = CandidateSet(value="v", candidates=("Meilen", "mi"))
        assert (
            match_exhaustive([cset], [text])[0]
            == match_exhaustive([cset], [text.upper()])[0]
            == match_exhaustive([cset], [text.lower()])[0]
        )

    @pytest.mark.parametrize("token_boundary", [False, True])
    def test_table_equals_one_case_calls(self, token_boundary):
        rng = random.Random(f"table-{token_boundary}")
        words = ("mi", "Meilen", "Milch", "km", "MI.", "3")
        sets = [CandidateSet("miles", ("Meilen", "mi")), CandidateSet("km", ("km",)), None]
        entries = [rng.choice(sets) for _ in range(60)]
        rows = [
            [
                None if rng.random() < 0.2 else " ".join(rng.choices(words, k=rng.randint(0, 4)))
                for _ in entries
            ]
            for _ in range(3)
        ]
        table = [match_exhaustive(entries, row, token_boundary=token_boundary) for row in rows]
        for row, (bits, found) in zip(rows, table):
            for entry, text, passed, candidate in zip(entries, row, bits, found, strict=True):
                if entry is None or text is None:
                    assert (passed, candidate) == (None, None)
                    continue
                assert ([passed], [candidate]) == match_exhaustive(
                    [entry], [text], token_boundary=token_boundary
                )
        assert {True, False, None} <= {bit for bits, _ in table for bit in bits}

    def test_table_row_of_another_length_rejected(self):
        with pytest.raises(ValueError):
            match_exhaustive([CandidateSet("v", ("x",))] * 2, ["x"])


class TestTokenizeAndNgrams:
    def test_fig3_bigram_present(self):
        grams = ngrams("Estoy muy emocionado por el concierto", 2, WS)
        assert "muy emocionado" in grams

    def test_short_text_fallback(self):
        assert ngrams("ab", 5, WS) == ["ab"]

    def test_unigrams(self):
        assert ngrams("a b c", 1, WS) == ["a", "b", "c"]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            ngrams("a b", 0, WS)

    def test_edge_punct_stripped(self):
        assert tokenize("¡Hola, mundo!", WS) == ["Hola", "mundo"]

    def test_punct_only_token_dropped(self):
        assert tokenize("a — b", WS) == ["a", "b"]

    def test_strip_disabled_keeps_punct(self):
        tok = TokenizerConfig(strip_edge_punct=False)
        assert tokenize("Hola, mundo!", tok) == ["Hola,", "mundo!"]

    def test_character_mode_windows(self):
        grams = ngrams("猫が好き", 2, CHARS)
        assert grams == ["猫が", "が好", "好き"]

    def test_character_mode_short_fallback(self):
        assert ngrams("猫", 3, CHARS) == ["猫"]

    def test_empty_text_single_empty_gram(self):
        assert ngrams("", 2, WS) == [""]

    def test_no_alphanumeric_character_is_punctuation(self):
        # The edge-stripping fast path keeps a token whose first and last
        # characters are isalnum(); that is exact only if none of them is P*.
        both = [
            f"U+{cp:04X}"
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert both == []

    @pytest.mark.parametrize("mode", ["whitespace", "character"])
    def test_tokens_equal_the_character_by_character_strip(self, mode):
        texts = [
            "«Hallo», sagte er. (3.5) ¿Qué? ¡Sí! 'tis x' -- ...",
            "naïve café e\u0301 \u0301abc a\u0301, Ωmega² ½ ٣٤٥ ²³",
            "Привет,мир 東京タワー。 日本語「テスト」 abcДЖ中文 x_y _x_ 3rd",
            "\u00a0a\u200bb\u200b \u2018quoted\u2019 \u05d0\u05b8,",
        ]

        def reference(token):
            start, end = 0, len(token)
            while start < end and unicodedata.category(token[start]).startswith("P"):
                start += 1
            while end > start and unicodedata.category(token[end - 1]).startswith("P"):
                end -= 1
            return token[start:end]

        tok = TokenizerConfig(mode=mode)
        for text in texts:
            if mode == "character":
                expected = list(reference(text.strip()))
            else:
                expected = [s for t in text.split() if (s := reference(t))]
            assert tokenize(text, tok) == expected


class VectorEmbedder:
    """Embeds each text as the vector given for it."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return np.array([self.vectors[t] for t in texts], dtype=np.float64)


def kernel_cosine(a, b) -> float:
    """Cosine of two vectors as the contrastive kernel computes it: the
    one-token translation "a" against the one-token candidate "b"."""
    return max_sim(["a"], [["b"]], VectorEmbedder({"a": a, "b": b}))[0]


class TestCosine:
    def test_identical_is_exactly_one(self):
        v = (0.3, -0.4, 0.5)
        assert kernel_cosine(v, v) == 1.0
        assert max_sim(["a"], [["a"]], VectorEmbedder({"a": v})).tolist() == [1.0]

    def test_orthogonal_is_zero(self):
        assert kernel_cosine((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_opposite_is_minus_one(self):
        v = (0.6, -0.8)
        assert kernel_cosine(v, tuple(-x for x in v)) == -1.0

    def test_dimension_mismatch(self):
        store = CachedEmbedder(VectorEmbedder({"a": (1.0,), "b": (1.0, 2.0)}))
        store.embed(["a"])
        with pytest.raises(DataInvariantError, match="dim changed from 1 to 2"):
            max_sim(["a"], [["b"]], store)

    def test_zero_vector_rejected(self):
        with pytest.raises(ProviderError, match="all zero"):
            kernel_cosine((0.0, 0.0), (1.0, 0.0))

    def test_scale_invariant(self):
        a, b = (1.0, 2.0, 3.0), (0.5, -1.0, 2.0)
        assert kernel_cosine(a, b) == pytest.approx(kernel_cosine(tuple(4 * x for x in a), b), abs=1e-12)
        assert kernel_cosine(a, b) == pytest.approx(reference_cosine(a, b), abs=1e-12)

    def test_clipped_to_unit_interval(self):
        rng = random.Random(5)
        for _ in range(200):
            a = tuple(rng.uniform(-1, 1) for _ in range(3))
            b = tuple(x * rng.choice((1.0, -1.0)) + rng.uniform(-1e-9, 1e-9) for x in a)
            assert -1.0 <= kernel_cosine(a, b) <= 1.0


class TestMaxSim:
    def test_identical_single_token_is_one(self, hash_embedder):
        assert max_sim(["Glück"], [["glück"]], hash_embedder).tolist() == [1.0]

    def test_contained_candidate_is_one(self, hash_embedder):
        sims = max_sim(["ich wünsche dir viel Glück heute"], [["viel Glück"]], hash_embedder)
        assert sims.tolist() == [1.0]

    def test_short_translation_uses_whole_text(self, hash_embedder):
        brute = reference_cosine(
            hash_embedder.embed(["kurz"])[0],
            hash_embedder.embed(["drei lange Wörter"])[0],
        )
        sims = max_sim(["kurz"], [["drei lange Wörter"]], hash_embedder)
        assert sims.tolist() == pytest.approx([brute], abs=1e-12)

    def test_equals_brute_force_randomized(self, hash_embedder):
        rng = random.Random(7)
        words = ["der", "die", "das", "Glück", "Bein", "läuft", "heute", "morgen"]
        for _ in range(300):
            translation = " ".join(rng.choice(words) for _ in range(rng.randint(0, 8)))
            candidate = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
            brute = reference_max_sim(translation, candidate, hash_embedder, WS)
            sims = max_sim([translation], [[candidate]], hash_embedder)
            assert sims.tolist() == pytest.approx([brute], abs=1e-12)

    def test_empty_candidate_rejected(self, hash_embedder):
        with pytest.raises(ValueError):
            max_sim(["text"], [[""]], hash_embedder)

    def test_batch_equals_one_item_calls(self, hash_embedder):
        translations = ["viel Glück heute", "", "brich dir ein Bein", "Glück"]
        candidates = [["viel Glück", "Bein"], ["Glück"], ["dir ein Bein", "x"], ["a b c d"]]
        batch = max_sim(translations, candidates, hash_embedder)
        single = [
            max_sim([t], [[c]], hash_embedder)[0]
            for t, cs in zip(translations, candidates)
            for c in cs
        ]
        assert batch.tolist() == pytest.approx(single, abs=1e-12)


class TestJudgeContrastive:
    def pair(self):
        return ContrastivePair(
            value="break a leg",
            correct=("viel Glück", "alles Gute"),
            foil=("brich dir ein Bein",),
        )

    def test_correct_verbatim_passes_with_one(self, hash_embedder):
        [scores] = judge_contrastive(["ich wünsche dir viel Glück"], [self.pair()], hash_embedder)
        assert scores[0] >= scores[1]
        assert scores is not None
        assert scores[0] == 1.0

    def test_foil_verbatim_fails(self, hash_embedder):
        [scores] = judge_contrastive(
            ["brich dir ein Bein auf der Bühne"], [self.pair()], hash_embedder
        )
        assert scores[1] == 1.0
        assert scores[0] < 1.0
        assert not scores[0] >= scores[1]

    def test_decomposed_translation_scores_as_its_composed_form(self):
        pair = ContrastivePair("break a leg", ("viel Glück",), ("Bein brechen",))
        embedder = HashEmbedder(dim=32)
        [nfd] = judge_contrastive(["viel Glu\u0308ck"], [pair], embedder)
        [nfc] = judge_contrastive(["viel Glück"], [pair], embedder)
        assert nfd[0] == 1.0
        assert nfd == nfc

    def test_exact_tie_passes(self):
        [scores] = judge_contrastive(["was auch immer"], [self.pair()], ConstantEmbedder())
        assert scores[0] == scores[1]
        assert scores[0] >= scores[1]

    def test_verdict_invariant_scores_present(self, hash_embedder):
        [scores] = judge_contrastive(["irgendein Text"], [self.pair()], hash_embedder)
        assert scores is not None and len(scores) == 2

    def test_candidate_permutation_invariance(self, hash_embedder):
        pair = self.pair()
        flipped = ContrastivePair(
            value=pair.value, correct=tuple(reversed(pair.correct)), foil=pair.foil
        )
        for text in ("viel Glück", "brich dir ein Bein", "ganz anders"):
            [a] = judge_contrastive([text], [pair], hash_embedder)
            [b] = judge_contrastive([text], [flipped], hash_embedder)
            assert a[0] == b[0] and a[1] == b[1]

    def test_pure_given_fixed_embedder(self, hash_embedder):
        first = judge_contrastive(["viel Glück heute"], [self.pair()], hash_embedder)
        second = judge_contrastive(["viel Glück heute"], [self.pair()], hash_embedder)
        assert first == second


class TestHashEmbedder:
    def test_fold_equal_texts_identical_vectors(self, hash_embedder):
        a, b = hash_embedder.embed(["Viel Glück", "viel glück"])
        assert np.array_equal(a, b)

    def test_fold_distinct_texts_distinct_vectors(self, hash_embedder):
        a, b = hash_embedder.embed(["viel Glück", "brich dir ein Bein"])
        assert not np.array_equal(a, b)

    def test_unit_norm(self, hash_embedder):
        (vec,) = hash_embedder.embed(["irgendwas"])
        assert sum(x * x for x in vec) == pytest.approx(1.0, abs=1e-12)

    def test_dim(self):
        assert len(HashEmbedder(dim=8).embed(["x"])[0]) == 8

    @pytest.mark.parametrize("texts", [[], ["x"], ["a", "b", "a"]])
    def test_one_float64_row_per_text(self, texts):
        vectors = HashEmbedder(dim=5).embed(texts)
        assert isinstance(vectors, np.ndarray) and vectors.dtype == np.float64
        assert vectors.shape == (len(texts), 5)

    @pytest.mark.parametrize("dim", [1, 3, 4, 5, 16, 32, 33, 100])
    def test_equals_scalar_reference_bit_for_bit(self, dim):
        rng = random.Random(dim)
        alphabet = "abc XYZ äöüß 日本語 \u0301\n\t!"
        texts = ["", "Viel Glück"] + [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in range(300)
        ]
        expected = np.array([reference_hash_vector(t, dim) for t in texts])
        assert np.array_equal(HashEmbedder(dim).embed(texts), expected)

    def test_empty_batch(self, hash_embedder):
        assert np.array_equal(hash_embedder.embed([]), np.empty((0, hash_embedder.dim)))


class TestCachedEmbedder:
    def test_each_text_embedded_once(self):
        counting = CountingEmbedder(HashEmbedder(dim=8))
        cached = CachedEmbedder(counting)
        cached.embed(["a", "b", "a"])
        assert counting.texts_embedded == 2
        cached.embed(["b", "c"])
        assert counting.texts_embedded == 3

    def test_results_match_inner(self):
        counting = CountingEmbedder(HashEmbedder(dim=8))
        cached = CachedEmbedder(counting)
        rows = cached.embed(["x", "y", "x"])
        assert rows.tolist() == [0, 1, 0]
        inner = np.array(HashEmbedder(dim=8).embed(["x", "y"]))
        expected = inner / np.linalg.norm(inner, axis=1, keepdims=True)
        np.testing.assert_allclose(cached.vectors[rows[:2]], expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(cached.vectors, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_dim_change_rejected(self):
        class Changing:
            def __init__(self):
                self.calls = 0

            def embed(self, texts):
                self.calls += 1
                dim = 4 if self.calls == 1 else 5
                return np.ones((len(texts), dim))

        cached = CachedEmbedder(Changing())
        cached.embed(["a"])
        with pytest.raises(DataInvariantError):
            cached.embed(["b"])

    def test_filled_in_chunks(self):
        counting = CountingEmbedder(HashEmbedder(dim=8))
        cached = CachedEmbedder(counting)
        texts = [f"t{i}" for i in range(2 * EMBED_BATCH_SIZE + 1)]
        assert cached.embed(texts).tolist() == list(range(len(texts)))
        assert [len(c) for c in counting.calls] == [EMBED_BATCH_SIZE, EMBED_BATCH_SIZE, 1]
        cached.embed(texts[::-1])
        assert len(counting.calls) == 3

    def test_equal_vectors_share_a_class(self):
        cached = CachedEmbedder(
            VectorEmbedder({"a": (1.0, 2.0), "b": (1.0, 2.0), "c": (2.0, 4.0), "d": (-0.0, 1.0),
                            "e": (0.0, 1.0)})
        )
        rows = cached.embed(["a", "b", "c", "d", "e"])
        classes = cached.classes[rows].tolist()
        assert classes[0] == classes[1] != classes[2]
        assert classes[3] == classes[4]

    def test_wrong_vector_count_rejected(self):
        class Short:
            def embed(self, texts):
                return np.ones((1, 1))

        with pytest.raises(DataInvariantError, match="1 vectors for 2 texts"):
            CachedEmbedder(Short()).embed(["a", "b"])

    @pytest.mark.parametrize(
        "vector, problem",
        [((0.0, 0.0), "all zero"), ((float("nan"), 1.0), "not finite"),
         ((float("inf"), 1.0), "not finite"), ((1e200, 1e200), "not finite")],
    )
    def test_bad_vector_is_a_provider_error_naming_the_text(self, vector, problem):
        # A zero vector used to end in a raw ValueError from the scalar cosine,
        # and a NaN made that cosine return exactly 1.0: a silent pass.
        embedder = VectorEmbedder(
            {"viel Glück": (1.0, 0.0), "Bein": (0.0, 1.0), "Glück": vector, "viel": (1.0, 1.0)}
        )
        pair = ContrastivePair(value="break a leg", correct=("Glück",), foil=("Bein",))
        with pytest.raises(ProviderError, match=f"'Glück' is {problem}"):
            judge_contrastive(["viel Glück"], [pair], embedder)


class TestJudgeContrastiveBatch:
    def test_empty_batch(self, hash_embedder):
        assert judge_contrastive([], [], hash_embedder) == []

    def test_equals_one_item_calls(self, hash_embedder):
        pairs = [
            ContrastivePair(value="a", correct=("viel Glück", "alles Gute"), foil=("Bein",)),
            ContrastivePair(value="b", correct=("schlafen",), foil=("den Sack", "Sack schlagen")),
        ]
        texts = ["ich wünsche dir viel Glück", "er will den Sack schlagen"]
        batch = judge_contrastive(texts, pairs, hash_embedder)
        single = [judge_contrastive([t], [p], hash_embedder)[0] for t, p in zip(texts, pairs)]
        for (sim_correct, sim_foil), s in zip(batch, single, strict=True):
            assert (sim_correct >= sim_foil) == (s[0] >= s[1])
            assert (sim_correct, sim_foil) == pytest.approx(tuple(s), abs=1e-12)
        assert [c >= f for c, f in single] == [True, False]
