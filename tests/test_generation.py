"""Suite and candidate generation: prompts, parsing, filtering, the loop."""
from __future__ import annotations

import pytest

from mtbehave.config import load_config
from mtbehave.errors import ConfigError, DataInvariantError, NoCandidatesError, ProviderError
from mtbehave.generation import (
    DEFAULT_TARGET_COUNT,
    filter_sentences,
    generate_contrastive_pair,
    generate_exhaustive_candidates,
    generate_suite,
    generation_stats,
    is_multi_sentence,
    normalize_sentence,
    parse_item_list,
    render_candidate_prompt,
    render_contrastive_prompts,
    render_source_prompt,
)

from conftest import ScriptedLlm, make_spec
from test_providers import StubResponse, StubSession


class TestRenderSourcePrompt:
    def test_demos_appear_verbatim(self, units_spec):
        prompt = render_source_prompt(units_spec)
        for demo in units_spec.demos:
            assert demo in prompt

    def test_property_in_first_line(self):
        spec = make_spec(prop_id="idioms", name="idiom", detector="exhaustive")
        prompt = render_source_prompt(spec)
        assert "one B = idiom" in prompt.splitlines()[0]

    def test_ends_with_itemizing_instruction(self, units_spec):
        prompt = render_source_prompt(units_spec)
        assert prompt.rstrip().endswith("Now write 10 more diverse sentences itemizing them with '-':")

    def test_zero_demos_rejected_at_construction(self):
        with pytest.raises(DataInvariantError):
            make_spec(demos=())

    def test_too_few_demos_for_slots(self):
        spec = make_spec(demos=("only one [demo] here.",))
        with pytest.raises(ConfigError, match="demo"):
            render_source_prompt(spec)

    def test_rendering_is_stable(self, units_spec):
        assert render_source_prompt(units_spec) == render_source_prompt(units_spec)

    def test_demo_holding_a_slot_name_inserted_verbatim(self):
        demos = ("I ran 3 [miles] {value}.", "A [b] {demo_3} c.", "D [e] {property} f.")
        prompt = render_source_prompt(make_spec(demos=demos))
        for demo in demos:
            assert f"- {demo}\n" in prompt


# Inserted texts that hold a slot name, a brace or a backslash.
AWKWARD = ["{value}", "{property}", "a {tgt_lang} b", "{demo_1}", "{sentence}", "{x}",
           "a } b {", "C:\\new", "\\1"]


class TestFillOnce:
    """Each slot is filled in one pass: inserted text is never read as a slot."""

    @pytest.mark.parametrize("value", AWKWARD)
    def test_candidate_value_inserted_verbatim(self, units_spec, value):
        expected = render_candidate_prompt(units_spec, "\x00").replace("\x00", value)
        assert render_candidate_prompt(units_spec, value) == expected

    @pytest.mark.parametrize("text", AWKWARD)
    def test_contrastive_value_and_sentence_inserted_verbatim(self, idioms_spec, text):
        sentence = f"He said {text} today."
        correct, foil = render_contrastive_prompts(idioms_spec, text, sentence)
        expected = render_contrastive_prompts(idioms_spec, "\x00", "\x01")
        assert correct == expected[0].replace("\x01", sentence).replace("\x00", text)
        assert foil == expected[1].replace("\x00", text)

    def test_value_named_sentence_is_not_the_sentence(self, idioms_spec):
        sentence = "He kicked the bucket yesterday."
        correct, foil = render_contrastive_prompts(idioms_spec, "{sentence}", sentence)
        assert "figurative translation of: {sentence}" in correct
        assert "{sentence}" in foil and sentence not in foil

    @pytest.mark.parametrize(
        "template, text, message",
        [
            ("candidate", "{value} in {sentence}", "placeholder {sentence} was not filled"),
            ("candidate", "{value} like {demo_1}", "demo slot {demo_1} has no matching demo"),
            ("source", "- {demo_1}\n- {demo_4}", "demo slot {demo_4} has no matching demo"),
            ("source", "- {demo_0}\n- {demo_1}", "demo slot {demo_0} has no matching demo"),
            ("source", "{property}: {value}", "placeholder {value} was not filled"),
        ],
        ids=["candidate-sentence", "candidate-demo", "source-demo-4", "source-demo-0",
             "source-value"],
    )
    def test_slot_the_call_gives_no_text_is_a_config_error(self, template, text, message):
        if template == "source":
            with pytest.raises(ConfigError) as info:
                render_source_prompt(make_spec(source_prompt=text))
        else:
            with pytest.raises(ConfigError) as info:
                render_candidate_prompt(make_spec(candidate_prompt=text), "v")
        assert str(info.value) == f"property units {template} prompt: {message}"


class TestParseItemList:
    def test_basic(self):
        assert parse_item_list("- A\n- B") == (["A", "B"], 0)

    def test_chatter_dropped(self):
        assert parse_item_list("Sure! Here:\n- A") == (["A"], 1)

    def test_empty(self):
        assert parse_item_list("") == ([], 0)

    def test_indented_items_and_blanks(self):
        assert parse_item_list("  - A\n\n- B\nnot an item\n-not one either") == (["A", "B"], 2)


class TestFilterSentences:
    def test_duplicate_rejected(self):
        seen: set[str] = set()
        accepted, rejections = filter_sentences(
            ["I ran 3 [miles] today.", "I ran 3 [miles] today."], seen
        )
        assert len(accepted) == 1
        assert rejections == [("I ran 3 [miles] today.", "duplicate")]

    def test_duplicate_normalization(self):
        seen: set[str] = set()
        accepted, rejections = filter_sentences(
            ["I ran 3 [miles] today.", "  i RAN  3 [miles]   today. "], seen
        )
        assert len(accepted) == 1
        assert rejections[0][1] == "duplicate"

    def test_multi_sentence_rejected(self):
        seen: set[str] = set()
        accepted, rejections = filter_sentences(["She ran [5] km. It was fun."], seen)
        assert accepted == []
        assert rejections == [("She ran [5] km. It was fun.", "multi_sentence")]

    def test_currency_before_number_accepted(self):
        seen: set[str] = set()
        accepted, rejections = filter_sentences(["I saved [USD] 40."], seen)
        assert len(accepted) == 1 and rejections == []
        assert accepted == [("I saved [USD] 40.", "USD")]

    def test_parse_failures_become_reasons(self):
        seen: set[str] = set()
        _, rejections = filter_sentences(
            ["no value here.", "two [a] values [b].", "open [only.", "empty [] one."], seen
        )
        assert [r for _, r in rejections] == [
            "no_value",
            "multi_value",
            "unbalanced",
            "empty_value",
        ]

    def test_refilter_against_fresh_state_accepts_everything(self):
        items = ["I ran 3 [miles] today.", "She lifted 40 [kilograms] yesterday."]
        accepted, _ = filter_sentences(list(items), set())
        again, rejections = filter_sentences([raw for raw, _ in accepted], set())
        assert [raw for raw, _ in again] == [raw for raw, _ in accepted]
        assert rejections == []

    def test_refilter_against_updated_state_rejects_only_duplicates(self):
        items = ["I ran 3 [miles] today.", "She lifted 40 [kilograms] yesterday."]
        seen: set[str] = set()
        accepted, _ = filter_sentences(items, seen)
        again, rejections = filter_sentences([raw for raw, _ in accepted], seen)
        assert again == []
        assert all(reason == "duplicate" for _, reason in rejections)

    def test_multi_sentence_detector(self):
        assert is_multi_sentence("One. Two.")
        assert not is_multi_sentence("Only 3.5 km to go.")
        assert not is_multi_sentence("Ends with a mark.")
        assert is_multi_sentence("Really? Yes.")

    def test_normalize(self):
        assert normalize_sentence("  A   B ") == "a b"
        assert normalize_sentence("\u00a0A\u202f\u3000B ") == "a b"
        assert normalize_sentence("Mu\u0308ller kam.") == normalize_sentence("MÜLLER kam.")

    def test_duplicate_in_another_unicode_form_rejected(self):
        seen: set[str] = set()
        accepted, rejections = filter_sentences(
            ["Ask [Müller] today.", "Ask [Mu\u0308ller] today."], seen
        )
        assert accepted == [("Ask [Müller] today.", "Müller")]
        assert rejections == [("Ask [Mu\u0308ller] today.", "duplicate")]


def batch(*sentences: str) -> str:
    return "\n".join(f"- {s}" for s in sentences)


def unique_batch(start: int, count: int = 10) -> str:
    return batch(*(f"Case number [{i}] looks fine." for i in range(start, start + count)))


class TestGenerateSuite:
    def test_ten_valid_items(self, units_spec):
        llm = ScriptedLlm([unique_batch(0, 10)])
        cases, genlog = generate_suite(units_spec, 10, llm)
        assert len(cases) == 10
        kept_pct, _ = generation_stats(genlog)
        assert kept_pct == 1.0
        assert [c.id for c in cases] == [f"units-{i:05d}" for i in range(10)]

    def test_half_duplicates(self, units_spec):
        def dup_batch(start: int) -> str:
            items = []
            for i in range(start, start + 5):
                sentence = f"Value [{i}] appears once."
                items += [sentence, sentence]
            return batch(*items)

        llm = ScriptedLlm([dup_batch(0), dup_batch(5)])
        cases, genlog = generate_suite(units_spec, 10, llm)
        assert len(cases) == 10
        assert genlog["rejected_by_reason"] == {"duplicate": genlog["kept"]}

    def test_deterministic_given_fixture(self, units_spec):
        responses = [unique_batch(0), unique_batch(7)]
        first = generate_suite(units_spec, 15, ScriptedLlm(list(responses)))
        second = generate_suite(units_spec, 15, ScriptedLlm(list(responses)))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_same_prompt_reissued_every_batch(self, units_spec):
        llm = ScriptedLlm([unique_batch(0), unique_batch(10), unique_batch(20)])
        generate_suite(units_spec, 25, llm)
        prompts = set(llm.calls)
        assert len(prompts) == 1
        assert len(llm.calls) == 3

    def test_sampling_parameters_sent(self, units_spec, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "providers:\n  llm: {kind: http, url: http://llm/chat, "
            "temperature: 0.3, presence_penalty: 1.0}\n",
            encoding="utf-8",
        )
        llm = load_config(str(path)).build_llm()
        session = llm._session = StubSession([StubResponse({"text": unique_batch(0, 10)})])
        generate_suite(units_spec, 5, llm)
        sent = session.calls[0]["json"]
        assert list(sent) == ["messages", "temperature", "presence_penalty"]
        assert (sent["temperature"], sent["presence_penalty"]) == (0.3, 1.0)

    def test_max_batches_exceeded(self, units_spec):
        llm = ScriptedLlm([unique_batch(0, 4)])  # sticks: later batches all duplicates
        with pytest.raises(ProviderError, match=r"^property units: 4/10 cases after 5 batches$"):
            generate_suite(units_spec, 10, llm)

    def test_truncates_to_target(self, units_spec):
        llm = ScriptedLlm([unique_batch(0, 10)])
        cases, genlog = generate_suite(units_spec, 7, llm)
        assert len(cases) == 7
        assert genlog["truncated"] == 3
        assert genlog["kept"] == 10  # filter stats reflect the full batch

    def test_emitted_reconciles_per_batch(self, units_spec):
        mixed = batch(
            "Fine value [1] here.",
            "Fine value [1] here.",
            "No value at all.",
            "Two [a] and [b].",
            "Fine value [2] here.",
        )
        llm = ScriptedLlm([mixed, unique_batch(10)])
        _, genlog = generate_suite(units_spec, 5, llm)
        for stats in genlog["batches"]:
            assert stats["emitted"] == stats["kept"] + sum(stats["rejected_by_reason"].values())

    def test_cases_satisfy_invariants(self, units_spec):
        llm = ScriptedLlm([unique_batch(0, 10)])
        cases, _ = generate_suite(units_spec, 10, llm)
        for case in cases:
            s, e = case.value_span
            assert case.source[:s] + "[" + case.value + "]" + case.source[e:] == case.raw
            assert case.source[s:e] == case.value

    def test_default_production_target(self):
        assert DEFAULT_TARGET_COUNT == 1000


class TestExhaustiveCandidates:
    def test_split_and_keep(self, units_spec):
        prompt = render_candidate_prompt(units_spec, "kilometers")
        llm = ScriptedLlm(by_prompt={prompt: "kilómetros|km"})
        cset = generate_exhaustive_candidates("kilometers", units_spec, llm)
        assert cset.candidates == ("kilómetros", "km")

    def test_na_raises(self, units_spec):
        prompt = render_candidate_prompt(units_spec, "impossible")
        llm = ScriptedLlm(by_prompt={prompt: "NA"})
        with pytest.raises(NoCandidatesError) as info:
            generate_exhaustive_candidates("impossible", units_spec, llm)
        assert info.value.reason == "unanswerable"
        assert str(info.value) == "candidate generation for value 'impossible' answered NA"

    def test_trim_and_fold_dedupe(self, units_spec):
        prompt = render_candidate_prompt(units_spec, "x")
        llm = ScriptedLlm(by_prompt={prompt: "a| a |A"})
        cset = generate_exhaustive_candidates("x", units_spec, llm)
        assert cset.candidates == ("a",)

    def test_entries_of_one_match_form_are_one_candidate(self, units_spec):
        prompt = render_candidate_prompt(units_spec, "5 km")
        llm = ScriptedLlm(by_prompt={prompt: "5 km | 5\u00a0km | 5\u202fKM | 5 Kilometer"})
        cset = generate_exhaustive_candidates("5 km", units_spec, llm)
        assert cset.candidates == ("5 km", "5 Kilometer")

    def test_empty_after_parse(self, units_spec):
        prompt = render_candidate_prompt(units_spec, "x")
        llm = ScriptedLlm(by_prompt={prompt: " | | "})
        with pytest.raises(NoCandidatesError, match="parsed to an empty list") as info:
            generate_exhaustive_candidates("x", units_spec, llm)
        assert info.value.reason == "empty_after_parse"

    def test_empty_value_rejected(self, units_spec):
        with pytest.raises(ValueError):
            generate_exhaustive_candidates("", units_spec, ScriptedLlm(["x"]))


class TestContrastivePairs:
    def test_correct_and_foil(self, idioms_spec):
        sentence = "She told him to break a leg before the audition."
        correct_prompt, foil_prompt = render_contrastive_prompts(
            idioms_spec, "break a leg", sentence
        )
        assert sentence in correct_prompt
        assert "break a leg" in foil_prompt
        llm = ScriptedLlm(
            by_prompt={
                correct_prompt: "viel Glück|alles Gute",
                foil_prompt: "brich dir ein Bein|breche dir ein Bein",
            }
        )
        pair = generate_contrastive_pair("break a leg", sentence, idioms_spec, llm)
        assert "viel Glück" in pair.correct
        assert "brich dir ein Bein" in pair.foil

    def test_na_on_either_side(self, idioms_spec):
        sentence = "Some sentence."
        correct_prompt, foil_prompt = render_contrastive_prompts(idioms_spec, "x y", sentence)
        llm = ScriptedLlm(by_prompt={correct_prompt: "NA", foil_prompt: "whatever"})
        with pytest.raises(NoCandidatesError) as info:
            generate_contrastive_pair("x y", sentence, idioms_spec, llm)
        assert info.value.reason == "unanswerable"
        assert str(info.value) == "candidate generation for value 'x y' answered NA (correct)"

    def test_overlap_kept_only_in_correct(self, idioms_spec):
        sentence = "Some sentence."
        correct_prompt, foil_prompt = render_contrastive_prompts(idioms_spec, "x y", sentence)
        llm = ScriptedLlm(
            by_prompt={correct_prompt: "X|good one", foil_prompt: "x|literal one"}
        )
        pair = generate_contrastive_pair("x y", sentence, idioms_spec, llm)
        assert "X" in pair.correct
        assert all(f.casefold() != "x" for f in pair.foil)

    def test_decomposed_foil_overlaps_its_composed_correct(self, idioms_spec):
        sentence = "Some sentence."
        correct_prompt, foil_prompt = render_contrastive_prompts(idioms_spec, "x y", sentence)
        llm = ScriptedLlm(
            by_prompt={correct_prompt: "Glück", foil_prompt: "Glu\u0308ck|literal one"}
        )
        pair = generate_contrastive_pair("x y", sentence, idioms_spec, llm)
        assert (pair.correct, pair.foil) == (("Glück",), ("literal one",))

    def test_all_foils_overlapping_rejected(self, idioms_spec):
        sentence = "Some sentence."
        correct_prompt, foil_prompt = render_contrastive_prompts(idioms_spec, "x y", sentence)
        llm = ScriptedLlm(by_prompt={correct_prompt: "same", foil_prompt: "SAME"})
        with pytest.raises(NoCandidatesError, match="every foil overlaps") as info:
            generate_contrastive_pair("x y", sentence, idioms_spec, llm)
        assert info.value.reason == "empty_after_parse"


def make_genlog(batches, value_counts) -> dict:
    """The `generation_stats` fields of a `genlog.json` mapping, from
    (emitted, kept, rejected_by_reason) per batch."""
    return {
        "emitted": sum(emitted for emitted, _, _ in batches),
        "kept": sum(kept for _, kept, _ in batches),
        "batches": [
            {"emitted": e, "kept": k, "chatter": 0, "rejected_by_reason": r} for e, k, r in batches
        ],
        "value_counts": value_counts,
    }


class TestGenerationStats:
    def test_worked_example(self):
        genlog = make_genlog([(100, 80, {"duplicate": 20})], {f"v{i}": 2 for i in range(40)})
        kept_pct, unique_pct = generation_stats(genlog)
        assert kept_pct == 0.8
        assert unique_pct == 0.5

    def test_all_kept_all_distinct(self):
        genlog = make_genlog([(10, 10, {})], {f"v{i}": 1 for i in range(10)})
        assert generation_stats(genlog) == (1.0, 1.0)

    def test_currencies_like_ratios(self):
        # 5 distinct values over 96 kept of 144 emitted: kept ~66.8%, unique ~5.2%
        genlog = make_genlog(
            [(144, 96, {"duplicate": 48})], {"EUR": 20, "USD": 20, "GBP": 20, "JPY": 20, "CHF": 16}
        )
        kept_pct, unique_pct = generation_stats(genlog)
        assert kept_pct == pytest.approx(0.668, abs=0.005)
        assert unique_pct == pytest.approx(0.052, abs=0.001)

    def test_zero_emitted_rejected(self):
        with pytest.raises(DataInvariantError):
            generation_stats(make_genlog([(0, 0, {})], {}))
