"""Adapters, caching, evaluation routing, reports, and the annotation loop."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mtbehave.providers as providers
from mtbehave.detection import EMBED_BATCH_SIZE, CachedEmbedder, TokenizerConfig, ngrams, tokenize
from mtbehave.errors import ConfigError, DataInvariantError, ProviderError
from mtbehave.metrics import ResampleConfig
from mtbehave.model import (
    CandidateSet,
    ContrastivePair,
    TestCase,
    save_translations,
)
from mtbehave.providers import HashEmbedder

from mtbehave.runner import (
    AdapterSpec,
    CommandMtAdapter,
    FileMtAdapter,
    HttpMtAdapter,
    TranslationCache,
    apply_candidate_edits,
    build_report,
    evaluate,
    render_report,
    sample_for_annotation,
    translate_all,
)

from conftest import CountingEmbedder, evaluate_records, make_spec, reference_max_sim
from test_providers import StubResponse, StubSession


def make_suite(raws: list[str], prop_id: str = "units") -> list[TestCase]:
    return [TestCase(f"{prop_id}-{i:05d}", prop_id, raw) for i, raw in enumerate(raws)]


class CountingAdapter:
    def __init__(self, system_id="fixture", fn=None):
        self.system_id = system_id
        self.cache_name = system_id
        self.fn = fn or (lambda s: s)
        self.calls = 0

    def translate(self, sources):
        self.calls += 1
        return [self.fn(s) for s in sources]


def split(suite, row):
    """One system's `translate_all` row as its records and failures."""
    pairs = list(zip(suite, row, strict=True))
    return SimpleNamespace(
        records=[SimpleNamespace(case_id=c.id, translation=t) for c, t in pairs if t is not None],
        failures=[SimpleNamespace(case_id=c.id) for c, t in pairs if t is None],
    )


def per_suite(suites, row):
    """One system's `translate_all` row over several suites, cut into each suite's `split`."""
    starts = [sum(map(len, suites[:j])) for j in range(len(suites))]
    return [split(s, row[lo : lo + len(s)]) for s, lo in zip(suites, starts)]


SUITE = make_suite(
    ["I ran 3 [miles] today.", "The bulb uses 60 [watts].", "It is 5 [inches] long."]
)


class TestAdapterSpec:
    def test_kind_requires_its_field(self):
        with pytest.raises(ConfigError):
            AdapterSpec(system_id="x", kind="http")
        with pytest.raises(ConfigError):
            AdapterSpec(system_id="x", kind="command")
        with pytest.raises(ConfigError):
            AdapterSpec(system_id="x", kind="file")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            AdapterSpec(system_id="x", kind="carrier-pigeon", command="x")

    def test_http_requires_a_language_pair(self):
        with pytest.raises(ConfigError, match="kind 'http' requires a language_pair"):
            AdapterSpec(system_id="x", kind="http", endpoint="http://mt/x")
        with pytest.raises(ConfigError, match="kind 'http' requires a language_pair"):
            AdapterSpec(
                system_id="x", kind="http", endpoint="http://mt/x", language_pair=("en", "")
            )
        assert AdapterSpec(system_id="x", kind="command", command="cat").language_pair == ("", "")

    @pytest.mark.parametrize("system_id", ["../sys", "a/b", ".", "..", ".x", "-x", "a b", ""])
    def test_id_must_be_a_plain_file_name(self, system_id):
        with pytest.raises(ConfigError, match="is not a plain file name"):
            AdapterSpec(system_id=system_id, kind="command", command="cat")


class TestTranslateAll:
    def test_identity_adapter_echoes_sources(self):
        result = split(SUITE, translate_all([SUITE], [CountingAdapter()])[0])
        assert [r.translation for r in result.records] == [c.source for c in SUITE]
        assert [r.case_id for r in result.records] == [c.id for c in SUITE]
        assert result.failures == []

    def test_sources_sent_without_brackets(self):
        seen = []

        class Spy(CountingAdapter):
            def translate(self, sources):
                seen.extend(sources)
                return list(sources)

        translate_all([SUITE], [Spy()])
        assert all("[" not in s and "]" not in s for s in seen)

    def test_warm_cache_no_adapter_calls(self, tmp_path):
        cache = TranslationCache(tmp_path)
        adapter = CountingAdapter()
        translate_all([SUITE], [adapter], cache)
        assert adapter.calls == 1
        again = CountingAdapter()
        result = split(SUITE, translate_all([SUITE], [again], TranslationCache(tmp_path))[0])
        assert again.calls == 0
        assert [r.translation for r in result.records] == [c.source for c in SUITE]

    def test_empty_translation_is_a_record_cached_and_served_warm(self, tmp_path):
        adapter = CountingAdapter(fn=lambda source: "")
        [translated] = translate_all([SUITE[:1]], [adapter], TranslationCache(tmp_path))
        result = split(SUITE[:1], translated)
        assert [r.translation for r in result.records] == [""]
        assert result.failures == []
        [line] = (tmp_path / "fixture.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["translation"] == ""
        again = CountingAdapter()
        [translated] = translate_all([SUITE[:1]], [again], TranslationCache(tmp_path))
        result = split(SUITE[:1], translated)
        assert again.calls == 0
        assert [r.translation for r in result.records] == [""]

    def test_cache_keyed_by_system(self, tmp_path):
        cache = TranslationCache(tmp_path)
        translate_all([SUITE], [CountingAdapter(system_id="a")], cache)
        other = CountingAdapter(system_id="b")
        translate_all([SUITE], [other], cache)
        assert other.calls == 1

    @pytest.mark.parametrize("cut", [2, 12], ids=["mid-json", "mid-utf8"])
    def test_torn_cache_tail_is_dropped_and_retranslated(self, tmp_path, caplog, cut):
        def german(source):
            return source + " übersetzt"

        translate_all([SUITE], [CountingAdapter(fn=german)], TranslationCache(tmp_path))
        path = tmp_path / "fixture.jsonl"
        path.write_bytes(path.read_bytes()[:-cut])  # an append interrupted mid-entry
        adapter = CountingAdapter(fn=german)
        result = split(SUITE, translate_all([SUITE], [adapter], TranslationCache(tmp_path))[0])
        assert adapter.calls == 1 and result.failures == []
        assert "torn" in caplog.text
        fresh = TranslationCache(tmp_path)
        assert [fresh.get("fixture", c.source) for c in SUITE] == [german(c.source) for c in SUITE]

    def test_unterminated_last_line_is_torn_even_when_it_parses(self, tmp_path, caplog):
        translate_all([SUITE[:2]], [CountingAdapter()], TranslationCache(tmp_path))
        path = tmp_path / "fixture.jsonl"
        path.write_bytes(path.read_bytes()[:-1])  # a complete entry whose LF was never written
        adapter = CountingAdapter()
        translate_all([SUITE], [adapter], TranslationCache(tmp_path))
        assert "torn" in caplog.text
        assert path.read_bytes().count(b"\n") == len(SUITE)
        again = CountingAdapter()
        result = split(SUITE, translate_all([SUITE], [again], TranslationCache(tmp_path))[0])
        assert again.calls == 0
        assert [r.translation for r in result.records] == [c.source for c in SUITE]

    def test_one_cache_append_per_batch(self, tmp_path, monkeypatch):
        raws = [f"It is {i} [inches] long." for i in range(50)]
        suite = make_suite(raws + raws[:1])  # a repeated source is cached once
        path = tmp_path / "fixture.jsonl"
        opens = []
        real_open = open

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file) == str(path):
                opens.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        translate_all([suite], [CountingAdapter()], TranslationCache(tmp_path))
        assert opens == ["a"]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        assert [json.loads(line)["translation"] for line in lines] == [c.source for c in suite[:50]]

    def test_malformed_cache_line_is_a_load_error(self, tmp_path):
        translate_all([SUITE], [CountingAdapter()], TranslationCache(tmp_path))
        path = tmp_path / "fixture.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[0] = lines[0][:-3]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataInvariantError, match=":1"):
            translate_all([SUITE], [CountingAdapter()], TranslationCache(tmp_path))

    @pytest.mark.parametrize("translation", [3, None, ["x"]])
    def test_non_string_cached_translation_is_a_load_error(self, tmp_path, translation):
        translate_all([SUITE], [CountingAdapter()], TranslationCache(tmp_path))
        path = tmp_path / "fixture.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        lines[1] = json.dumps({**row, "translation": translation}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataInvariantError, match=re.escape(f"{path}:2: ")):
            translate_all([SUITE], [CountingAdapter()], TranslationCache(tmp_path))

    def test_adapter_error_records_all_pending(self):
        class Broken(CountingAdapter):
            def translate(self, sources):
                raise ProviderError("boom")

        result = split(SUITE, translate_all([SUITE], [Broken()])[0])
        assert result.records == []
        assert len(result.failures) == len(SUITE)

    def test_short_adapter_output_fails_the_cases_left(self):
        class Short(CountingAdapter):
            def translate(self, sources):
                return list(sources[:1])

        result = split(SUITE, translate_all([SUITE], [Short()])[0])
        assert [r.case_id for r in result.records] == [SUITE[0].id]
        assert [f.case_id for f in result.failures] == [c.id for c in SUITE[1:]]

    def test_long_adapter_output_fails_every_pending_case_uncached(self, tmp_path, caplog):
        class Long(CountingAdapter):
            def translate(self, sources):
                return list(sources) + ["extra"]

        cache = TranslationCache(tmp_path)
        translate_all([SUITE[:1]], [CountingAdapter()], cache)  # the first case is cached
        result = split(SUITE, translate_all([SUITE], [Long()], cache)[0])
        assert [r.case_id for r in result.records] == [SUITE[0].id]
        assert [f.case_id for f in result.failures] == [c.id for c in SUITE[1:]]
        # The reason every failure shares is logged.
        assert "system fixture: returned 3 translations for 2 inputs" in caplog.text
        assert len((tmp_path / "fixture.jsonl").read_text(encoding="utf-8").splitlines()) == 1

    def test_file_adapter_missing_case_recorded(self, tmp_path):
        path = tmp_path / "translations.jsonl"
        save_translations([(SUITE[0].id, "offline", "Ich lief 3 Meilen.")], path)
        adapter = FileMtAdapter(AdapterSpec(system_id="offline", kind="file", path=str(path)))
        result = split(SUITE, translate_all([SUITE], [adapter])[0])
        assert len(result.records) == 1
        failed = {f.case_id for f in result.failures}
        assert failed == {SUITE[1].id, SUITE[2].id}

    def test_empty_suite_rejected(self):
        with pytest.raises(DataInvariantError):
            translate_all([[]], [CountingAdapter()])

    @pytest.mark.parametrize("translation", [3, None])
    def test_file_adapter_non_string_translation_is_a_load_error(self, tmp_path, translation):
        path = tmp_path / "translations.jsonl"
        row = {"case_id": SUITE[0].id, "system_id": "offline", "translation": translation}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(DataInvariantError, match=re.escape(f"{path}:1: ")):
            FileMtAdapter(AdapterSpec(system_id="offline", kind="file", path=str(path)))

    def test_file_adapter_edit_is_read_despite_the_cache(self, tmp_path):
        path = tmp_path / "translations.jsonl"
        spec = AdapterSpec(system_id="offline", kind="file", path=str(path))
        for texts in (["old A", "old B"], ["new A", "new B"]):
            save_translations(
                [(c.id, "offline", t) for c, t in zip(SUITE[:2], texts)], path
            )
            cache = TranslationCache(tmp_path / "cache")
            result = split(SUITE[:2], translate_all([SUITE[:2]], [FileMtAdapter(spec)], cache)[0])
            assert [r.translation for r in result.records] == texts
        assert not (tmp_path / "cache").exists()

    def test_file_adapter_cases_with_one_source_keep_their_own_text(self, tmp_path):
        suite = make_suite(["I ran 3 [miles] today.", "I ran 3 [miles] today."])
        path = tmp_path / "translations.jsonl"
        save_translations(
            [
                (suite[0].id, "offline", "Ich lief 3 Meilen."),
                (suite[1].id, "offline", "Ich bin 3 Meilen gelaufen."),
            ],
            path,
        )
        spec = AdapterSpec(system_id="offline", kind="file", path=str(path))
        for _ in range(2):
            cache = TranslationCache(tmp_path / "cache")
            result = split(suite, translate_all([suite], [FileMtAdapter(spec)], cache)[0])
            assert [r.translation for r in result.records] == [
                "Ich lief 3 Meilen.",
                "Ich bin 3 Meilen gelaufen.",
            ]

    def test_file_adapter_duplicate_case_rejected(self, tmp_path):
        path = tmp_path / "translations.jsonl"
        save_translations(
            [
                (SUITE[0].id, "offline", "Ich lief 3 Meilen."),
                (SUITE[0].id, "other", "Ich lief 3 km."),
                (SUITE[0].id, "offline", "Ich lief 3 km."),
            ],
            path,
        )
        spec = AdapterSpec(system_id="offline", kind="file", path=str(path))
        with pytest.raises(DataInvariantError, match=f"{SUITE[0].id}.*'offline'") as info:
            FileMtAdapter(spec)
        assert str(path) in str(info.value)
        # The same case for another system is not a duplicate.
        other = FileMtAdapter(AdapterSpec(system_id="other", kind="file", path=str(path)))
        assert other.translate_cases(SUITE[:1]) == ["Ich lief 3 km."]


class TestTranslateSystems:
    SUITES = [SUITE, make_suite(["Add 2 [cups] of flour.", "Walk 4 [blocks] north."], "recipes")]

    def test_one_call_per_adapter_covers_every_suite(self, tmp_path):
        adapters = [CountingAdapter("a"), CountingAdapter("b", fn=str.upper)]
        results = translate_all(self.SUITES, adapters, TranslationCache(tmp_path / "c1"))
        assert [a.calls for a in adapters] == [1, 1]
        for adapter, result in zip(adapters, results):
            for suite, part in zip(self.SUITES, per_suite(self.SUITES, result)):
                alone = translate_all([suite], [CountingAdapter(adapter.system_id, adapter.fn)])[0]
                assert part == split(suite, alone)

    def test_cache_lines_follow_suite_then_case_order_in_one_append(self, tmp_path, monkeypatch):
        path = tmp_path / "a.jsonl"
        opens = []
        real_open = open

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file) == str(path):
                opens.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        translate_all(self.SUITES, [CountingAdapter("a")], TranslationCache(tmp_path))
        assert opens == ["a"]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["translation"] for line in lines] == [
            case.source for suite in self.SUITES for case in suite
        ]

    def test_adapter_error_fails_that_system_in_every_suite(self, caplog):
        class Broken(CountingAdapter):
            def translate(self, sources):
                raise ProviderError("boom")

        results = translate_all(self.SUITES, [CountingAdapter("good"), Broken("bad")])
        good, broken = (per_suite(self.SUITES, result) for result in results)
        assert [len(r.records) for r in good] == [len(s) for s in self.SUITES]
        assert [r.records for r in broken] == [[], []]
        assert [[f.case_id for f in r.failures] for r in broken] == [
            [c.id for c in suite] for suite in self.SUITES
        ]
        assert "system bad: boom" in caplog.text
        # One failure line for the system, over both suites.
        [line] = [r.getMessage() for r in caplog.records if "failed translation" in r.getMessage()]
        assert line == "system bad: 5/5 cases failed translation and are excluded"

    def test_lookup_equals_get_per_source(self, tmp_path):
        cache = TranslationCache(tmp_path)
        cache.put("a", [("one", "eins"), ("two", "")])
        sources = ["two", "three", "one", "two"]
        fresh = TranslationCache(tmp_path)
        assert fresh.lookup("a", sources) == [fresh.get("a", s) for s in sources]
        assert fresh.lookup("a", sources) == ["", None, "eins", ""]

    def test_any_empty_suite_rejected(self):
        with pytest.raises(DataInvariantError):
            translate_all([SUITE, []], [CountingAdapter()])


class TestCacheFingerprint:
    HTTP = AdapterSpec(
        system_id="mt", kind="http", endpoint="http://mt/x", language_pair=("en", "de")
    )

    def test_cache_file_is_named_by_system_and_fingerprint(self, tmp_path):
        spec = AdapterSpec(system_id="sys", kind="command", command="cat")
        translate_all([SUITE], [CommandMtAdapter(spec)], TranslationCache(tmp_path))
        [path] = tmp_path.iterdir()
        assert re.fullmatch(r"sys\.[0-9a-f]{16}\.jsonl", path.name)
        assert path.name == f"{spec.cache_name}.jsonl"

    def test_editing_a_command_retranslates(self, tmp_path):
        spec = AdapterSpec(system_id="sys", kind="command", command="cat")
        translate_all([SUITE], [CommandMtAdapter(spec)], TranslationCache(tmp_path))
        edited = dataclasses.replace(spec, command="tr a-z A-Z")
        [translated] = translate_all([SUITE], [CommandMtAdapter(edited)], TranslationCache(tmp_path))
        result = split(SUITE, translated)
        assert [r.translation for r in result.records] == [c.source.upper() for c in SUITE]

    @pytest.mark.parametrize(
        "field, value",
        [("kind", "command"), ("endpoint", "http://mt/y"), ("command", "tac"),
         ("language_pair", ("en", "fr"))],
    )
    def test_every_output_field_changes_the_name(self, field, value):
        base = dataclasses.replace(self.HTTP, command="cat")
        edited = dataclasses.replace(base, **{field: value})
        assert edited.cache_name != base.cache_name
        assert edited.cache_name.startswith("mt.")

    def test_superseded_matches_system_ids_exactly(self, tmp_path):
        a = AdapterSpec(system_id="a", kind="command", command="cat")
        ab = AdapterSpec(system_id="a.b", kind="command", command="cat")
        stored = AdapterSpec(system_id="f", kind="file", path="f.jsonl")
        other = dataclasses.replace(ab, command="tac").cache_name
        names = [
            f"{a.cache_name}.jsonl", f"{ab.cache_name}.jsonl",  # read now
            f"{other}.jsonl", "a.jsonl", "a.0123456789abcdef.jsonl",  # superseded
            "a.b.jsonl.bak", "a.0123456789ABCDEF.jsonl", "a.012345.jsonl",  # not cache names
            "f.jsonl", "f.0123456789abcdef.jsonl", "z.0123456789abcdef.jsonl",  # not cached ids
        ]
        for name in names:
            (tmp_path / name).write_text("", encoding="utf-8")
        cache = TranslationCache(tmp_path)
        assert cache.superseded([a, ab, stored]) == sorted(names[2:5])
        # With only `a` configured, a.b's files are another system's, not a's.
        assert cache.superseded([a]) == ["a.0123456789abcdef.jsonl", "a.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_superseded_without_a_cache_directory(self, tmp_path):
        spec = AdapterSpec(system_id="a", kind="command", command="cat")
        assert TranslationCache(tmp_path / "absent").superseded([spec]) == []

    def test_editing_batch_size_still_hits_the_cache(self, tmp_path):
        session = StubSession([StubResponse({"translations": ["eins", "zwei", "drei"]})])
        translate_all([SUITE], [HttpMtAdapter(self.HTTP, session)], TranslationCache(tmp_path))
        edited = dataclasses.replace(self.HTTP, batch_size=1)
        offline = StubSession([])  # any request would fail on the empty script
        [translated] = translate_all([SUITE], [HttpMtAdapter(edited, offline)], TranslationCache(tmp_path))
        result = split(SUITE, translated)
        assert offline.calls == []
        assert [r.translation for r in result.records] == ["eins", "zwei", "drei"]


class TestCommandAdapter:
    def test_cat_is_identity(self):
        adapter = CommandMtAdapter(AdapterSpec(system_id="id", kind="command", command="cat"))
        out = adapter.translate(["hello there", "zweite Zeile"])
        assert out == ["hello there", "zweite Zeile"]

    def test_transforming_command(self):
        adapter = CommandMtAdapter(
            AdapterSpec(system_id="upper", kind="command", command="tr a-z A-Z")
        )
        assert adapter.translate(["miles"]) == ["MILES"]

    def test_failing_command(self):
        adapter = CommandMtAdapter(
            AdapterSpec(system_id="bad", kind="command", command="false")
        )
        with pytest.raises(ProviderError):
            adapter.translate(["x"])

    def test_line_count_mismatch(self):
        adapter = CommandMtAdapter(
            AdapterSpec(system_id="swallow", kind="command", command="head -n 1")
        )
        with pytest.raises(ProviderError, match="lines"):
            adapter.translate(["a", "b", "c"])

    def test_line_breaks_inside_a_source_are_flattened(self):
        adapter = CommandMtAdapter(AdapterSpec(system_id="id", kind="command", command="cat"))
        assert adapter.translate(["a\rb", "def"]) == ["a b", "def"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=4))
    def test_cat_round_trips_any_unicode(self, sources):
        def flattened(text):
            return "".join(" " if len(f"a{ch}b".splitlines()) > 1 else ch for ch in text)

        adapter = CommandMtAdapter(AdapterSpec(system_id="id", kind="command", command="cat"))
        assert adapter.translate(sources) == [flattened(s) for s in sources]

    def test_missing_binary(self):
        adapter = CommandMtAdapter(
            AdapterSpec(system_id="none", kind="command", command="definitely-not-a-binary-xyz")
        )
        with pytest.raises(ProviderError):
            adapter.translate(["x"])

    def test_output_that_is_not_utf8_fails_every_case(self, caplog):
        # tr writes the byte 0xff for each "a": not UTF-8, so no line can be trusted.
        spec = AdapterSpec(system_id="bytes", kind="command", command="tr a '\\377'")
        with caplog.at_level("WARNING", logger="mtbehave.runner"):
            result = split(SUITE, translate_all([SUITE], [CommandMtAdapter(spec)])[0])
        assert result.records == []
        assert [f.case_id for f in result.failures] == [c.id for c in SUITE]
        assert re.search(r"system bytes: command .* wrote invalid UTF-8", caplog.text)


class TestHttpAdapter:
    def test_contract_and_batching(self):
        session = StubSession(
            [
                StubResponse({"translations": ["eins", "zwei"]}),
                StubResponse({"translations": ["drei"]}),
            ]
        )
        spec = AdapterSpec(
            system_id="http",
            kind="http",
            endpoint="http://mt/translate",
            language_pair=("en", "de"),
            batch_size=2,
        )
        adapter = HttpMtAdapter(spec, session=session)
        out = adapter.translate(["one", "two", "three"])
        assert out == ["eins", "zwei", "drei"]
        assert session.calls[0]["json"] == {"texts": ["one", "two"], "src": "en", "tgt": "de"}
        assert session.calls[1]["json"] == {"texts": ["three"], "src": "en", "tgt": "de"}

    def test_failed_batch_yields_nones(self, monkeypatch):
        import requests

        delays = []
        monkeypatch.setattr(providers.time, "sleep", delays.append)
        session = StubSession([requests.ConnectionError("down")] * 3)
        spec = AdapterSpec(
            system_id="http", kind="http", endpoint="http://mt/x", language_pair=("en", "de"),
            batch_size=8,
        )
        adapter = HttpMtAdapter(spec, session=session)
        assert adapter.translate(["a", "b"]) == [None, None]
        assert delays == [0.5, 1.0]

    def test_body_without_translations_yields_nones(self):
        session = StubSession(
            [StubResponse({"error": "quota"}), StubResponse({"translations": ["drei"]})]
        )
        spec = AdapterSpec(
            system_id="http", kind="http", endpoint="http://mt/x", language_pair=("en", "de"),
            batch_size=2,
        )
        adapter = HttpMtAdapter(spec, session=session)
        assert adapter.translate(["one", "two", "three"]) == [None, None, "drei"]
        assert len(session.calls) == 2  # a malformed body is not retried

    def test_wrong_translation_count_fails_its_batch_uncached(self, tmp_path, caplog):
        session = StubSession(
            [StubResponse({"translations": ["eins"]}), StubResponse({"translations": ["drei"]})]
        )
        spec = AdapterSpec(
            system_id="http", kind="http", endpoint="http://mt/x", language_pair=("en", "de"),
            batch_size=2,
        )
        with caplog.at_level("WARNING", logger="mtbehave.runner"):
            [translated] = translate_all([SUITE], [HttpMtAdapter(spec, session)], TranslationCache(tmp_path))
            result = split(SUITE, translated)
        assert [r.translation for r in result.records] == ["drei"]
        assert [f.case_id for f in result.failures] == [c.id for c in SUITE[:2]]
        assert "http://mt/x returned 1 translations for 2 texts" in caplog.text
        cache = TranslationCache(tmp_path)
        assert [cache.get(spec.cache_name, c.source) for c in SUITE] == [None, None, "drei"]

    def test_non_string_translation_fails_its_batch_uncached(self, tmp_path, caplog):
        session = StubSession(
            [StubResponse({"translations": [None, 3]}), StubResponse({"translations": ["drei"]})]
        )
        spec = AdapterSpec(
            system_id="http", kind="http", endpoint="http://mt/x", language_pair=("en", "de"),
            batch_size=2,
        )
        with caplog.at_level("WARNING", logger="mtbehave.runner"):
            [translated] = translate_all([SUITE], [HttpMtAdapter(spec, session)], TranslationCache(tmp_path))
            result = split(SUITE, translated)
        assert [r.translation for r in result.records] == ["drei"]
        assert [f.case_id for f in result.failures] == [c.id for c in SUITE[:2]]
        assert "a translation is not a string" in caplog.text
        cache = TranslationCache(tmp_path)
        assert [cache.get(spec.cache_name, c.source) for c in SUITE] == [None, None, "drei"]


UNIT_CANDIDATES = {
    "miles": CandidateSet(value="miles", candidates=("Meilen", "mi")),
    "watts": CandidateSet(value="watts", candidates=("Watt", "W")),
    "inches": CandidateSet(value="inches", candidates=("Zoll", "in")),
}


def records_for(suite, texts, system_id="sys"):
    """Translation rows (case_id, system_id, translation) of `texts` over `suite`."""
    return [(c.id, system_id, t) for c, t in zip(suite, texts)]


class TestEvaluate:
    def test_identity_on_value_preserving_property(self, units_spec):
        # echo adapter: source contains the value, so every case passes when
        # the candidate set contains the value itself
        suite = make_suite(["Keep [Alice Johnson] intact.", "Meet [Bob Lee] now."], "names")
        spec = make_spec(prop_id="names", name="person name")
        candidates = {
            "Alice Johnson": CandidateSet(value="Alice Johnson", candidates=("Alice Johnson",)),
            "Bob Lee": CandidateSet(value="Bob Lee", candidates=("Bob Lee",)),
        }
        translations = records_for(suite, [c.source for c in suite])
        result = evaluate_records(spec, suite, candidates, translations)
        assert all(passed for _, _, passed, _, _ in result.verdicts)

    def test_empty_translations_all_fail(self, units_spec):
        translations = records_for(SUITE, ["", "", ""])
        result = evaluate_records(units_spec, SUITE, UNIT_CANDIDATES, translations)
        assert [passed for _, _, passed, _, _ in result.verdicts] == [False, False, False]

    def test_missing_candidates_reported_not_dropped(self, units_spec):
        candidates = dict(UNIT_CANDIDATES)
        del candidates["watts"]
        translations = records_for(SUITE, [c.source for c in SUITE])
        result = evaluate_records(units_spec, SUITE, candidates, translations)
        assert len(result.verdicts) == 2
        assert len(result.missing) == 1
        assert list(result.missing) == ["watts"]
        assert result.missing["watts"] == [SUITE[1].id]

    def test_contrastive_routing_records_scores(self, idioms_spec, hash_embedder):
        suite = make_suite(["He said [break a leg] loudly."], "idioms")
        candidates = {
            "break a leg": ContrastivePair(
                value="break a leg",
                correct=("viel Glück",),
                foil=("brich dir ein Bein",),
            )
        }
        translations = records_for(suite, ["ich wünsche dir viel Glück"])
        result = evaluate_records(idioms_spec, suite, candidates, translations, embedder=hash_embedder)
        _, _, passed, _, scores = result.verdicts[0]
        assert scores is not None
        assert passed

    def test_contrastive_without_embedder_rejected(self, idioms_spec):
        suite = make_suite(["He said [break a leg] loudly."], "idioms")
        candidates = {
            "break a leg": ContrastivePair(
                value="break a leg", correct=("viel Glück",), foil=("Bein",)
            )
        }
        translations = records_for(suite, ["whatever"])
        with pytest.raises(ConfigError):
            evaluate_records(idioms_spec, suite, candidates, translations)

    def test_wrong_candidate_kind_rejected(self, units_spec):
        candidates = {
            "miles": ContrastivePair(value="miles", correct=("a",), foil=("b",)),
            "watts": UNIT_CANDIDATES["watts"],
            "inches": UNIT_CANDIDATES["inches"],
        }
        translations = records_for(SUITE, [c.source for c in SUITE])
        with pytest.raises(DataInvariantError, match="miles"):
            evaluate_records(units_spec, SUITE, candidates, translations)

    def test_row_of_another_length_rejected(self, units_spec):
        with pytest.raises(DataInvariantError, match="3 cases"):
            evaluate(units_spec, SUITE, UNIT_CANDIDATES, [["x", "y"]])

    def test_untranslated_case_is_neither_judged_nor_missing(self, units_spec):
        candidates = {"miles": UNIT_CANDIDATES["miles"]}  # watts and inches have none
        rows = [["Ich lief 3 Meilen.", None, "5 Zoll"], ["3 km", None, None]]
        passes, details, missing = evaluate(units_spec, SUITE, candidates, rows)
        assert passes == [[True, None, None], [False, None, None]]
        assert details == [["Meilen", None, None], [None, None, None]]
        assert list(missing.items()) == [("inches", [SUITE[2].id])]


CFG = ResampleConfig(k=200, alpha=0.05, seed=11)


class CoarseEmbedder:
    """Three well-separated vectors picked by the folded text: many distinct
    texts share a vector, so exact ties are common."""

    TABLE = ((1.0, 0.0, 0.5), (0.2, 1.0, -0.3), (-0.7, 0.4, 1.0))

    def embed(self, texts):
        return np.array([self.TABLE[sum(map(ord, t.casefold())) % 3] for t in texts])


WORDS = ("viel", "Glück", "GLÜCK", "Bein", "brich", "dir", "ein", "heute", "gut!", "«läuft»", "猫が")


def _phrase(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def contrastive_fixture(rng: random.Random, n_cases: int, systems=("a", "b")):
    """A suite with one contrastive pair per case and random translations per
    system: short ones, ones holding a correct (upper-cased, so its grams are
    only fold-equal) and a foil verbatim, and free ones."""
    suite = make_suite([f"Case {i} is [v{i}] here." for i in range(n_cases)], "idioms")
    candidates = {}
    for case in suite:
        while True:
            correct = tuple(_phrase(rng, 1, 3) for _ in range(rng.randint(1, 3)))
            foil = tuple(_phrase(rng, 1, 3) for _ in range(rng.randint(1, 3)))
            try:
                candidates[case.value] = ContrastivePair(case.value, correct, foil)
                break
            except DataInvariantError:  # a correct and a foil fold equal
                continue
    records = []
    for system in systems:
        texts = []
        for case in suite:
            pair = candidates[case.value]
            kind = rng.randrange(3)
            if kind == 0:
                texts.append(_phrase(rng, 0, 2))
            elif kind == 1:
                texts.append(
                    f"{_phrase(rng, 0, 3)} {rng.choice(pair.correct).upper()} "
                    f"{rng.choice(pair.foil)} {_phrase(rng, 0, 3)}"
                )
            else:
                texts.append(_phrase(rng, 0, 10))
        records.append(records_for(suite, texts, system_id=system))
    return suite, candidates, records


class TestContrastiveBatch:
    @pytest.mark.parametrize("mode", ["whitespace", "character"])
    @pytest.mark.parametrize("embedder", [HashEmbedder(dim=16), CoarseEmbedder()], ids=["hash", "coarse"])
    def test_equals_scalar_reference_randomized(self, idioms_spec, mode, embedder):
        tok = TokenizerConfig(mode=mode)
        suite, candidates, per_system = contrastive_fixture(random.Random(f"{mode}"), 120)
        value_of = {case.id: case.value for case in suite}
        seen = {"tie": 0, "pass": 0, "fail": 0, "short": 0}
        for records in per_system:
            result = evaluate_records(
                idioms_spec, suite, candidates, records, embedder=embedder, tokenizer=tok
            )
            assert [v[0] for v in result.verdicts] == [case_id for case_id, _, _ in records]
            for (_, _, passed, _, scores), (case_id, _, translation) in zip(
                result.verdicts, records
            ):
                pair = candidates[value_of[case_id]]
                sim_correct, sim_foil = (
                    max(reference_max_sim(translation, c, embedder, tok) for c in side)
                    for side in (pair.correct, pair.foil)
                )
                assert passed == (sim_correct >= sim_foil)
                assert scores == pytest.approx((sim_correct, sim_foil), abs=1e-12)
                seen["tie"] += sim_correct == sim_foil
                seen["pass" if passed else "fail"] += 1
                n_max = max(len(tokenize(c, tok)) for c in pair.correct + pair.foil)
                seen["short"] += len(tokenize(translation, tok)) < n_max
        assert all(seen.values()), seen

    def test_each_text_embedded_once_in_chunked_calls(self, idioms_spec):
        suite, candidates, per_system = contrastive_fixture(random.Random(3), 300)
        value_of = {case.id: case.value for case in suite}
        counting = CountingEmbedder(HashEmbedder(dim=8))
        store = CachedEmbedder(counting)
        stored: set[str] = set()
        for records in per_system:
            texts = set()
            for case_id, _, translation in records:
                pair = candidates[value_of[case_id]]
                for cand in pair.correct + pair.foil:
                    texts.add(cand)
                    texts.update(ngrams(translation, len(tokenize(cand)) or 1))
            new = texts - stored
            before = len(counting.calls)
            evaluate_records(idioms_spec, suite, candidates, records, embedder=store)
            calls = counting.calls[before:]
            assert sorted(t for call in calls for t in call) == sorted(new)
            assert len(calls) <= math.ceil(len(new) / EMBED_BATCH_SIZE)
            stored |= new
        assert len(counting.calls[0]) == EMBED_BATCH_SIZE

    def test_peak_memory_of_a_1000_case_evaluate(self, idioms_spec):
        suite, candidates, (records,) = contrastive_fixture(random.Random(9), 1000, ("a",))
        rows = [[translation for _, _, translation in records]]
        embedder = HashEmbedder(dim=32)
        tracemalloc.start()
        try:
            evaluate(idioms_spec, suite, candidates, rows, embedder=embedder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured 2.8 MiB with Python 3.11: plan, rows and one chunk in flight.
        # Keeping each text's vector as a float tuple peaked at 2.9 MiB, and
        # doubling the rows array per chunk instead of sizing it per call at 3.6.
        assert peak < 3.25 * 2**20


def verdicts_for(suite, system_id, passes):
    """One system's pass row over SUITE: the bits of `suite`'s cases, None for the rest."""
    bits = {c.id: bool(p) for c, p in zip(suite, passes)}
    return {system_id: [bits.get(c.id) for c in SUITE]}


class TestBuildReport:
    def test_single_system_all_pass(self, units_spec):
        verdicts = verdicts_for(SUITE, "sys", [1, 1, 1])
        report = build_report(units_spec, SUITE, verdicts, CFG)
        stat = report["systems"]["sys"]
        assert stat["mpr"] == 1.0
        assert stat["ci"] == [1.0, 1.0]
        assert stat["n"] == 3 and stat["values"] == 3

    def test_identical_systems_tie(self, units_spec):
        verdicts = verdicts_for(SUITE, "a", [1, 0, 1]) | verdicts_for(SUITE, "b", [1, 0, 1])
        report = build_report(units_spec, SUITE, verdicts, CFG)
        (comparison,) = report["comparisons"]
        assert comparison["p_value"] == 0.5
        assert not comparison["significant"]
        assert comparison["winner"] is None

    def test_three_systems_three_comparisons(self, units_spec):
        verdicts = (
            verdicts_for(SUITE, "a", [1, 1, 1])
            | verdicts_for(SUITE, "b", [1, 0, 1])
            | verdicts_for(SUITE, "c", [0, 0, 0])
        )
        report = build_report(units_spec, SUITE, verdicts, CFG)
        assert len(report["comparisons"]) == 3
        pairs = {(c["a"], c["b"]) for c in report["comparisons"]}
        assert pairs == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_clear_winner(self, units_spec):
        verdicts = verdicts_for(SUITE, "good", [1, 1, 1]) | verdicts_for(SUITE, "bad", [0, 0, 0])
        report = build_report(units_spec, SUITE, verdicts, CFG)
        (comparison,) = report["comparisons"]
        assert comparison["winner"] == "good"
        assert comparison["p_value"] == 0.0
        assert comparison["significant"]

    def test_restricts_to_common_cases(self, units_spec):
        verdicts = verdicts_for(SUITE, "a", [1, 1, 1]) | verdicts_for(SUITE[:2], "b", [1, 1])
        report = build_report(units_spec, SUITE, verdicts, CFG)
        assert all(s["n"] == 2 for s in report["systems"].values())
        assert report["metadata"]["excluded_case_counts"] == {"a": 1}

    def test_zero_verdicts_rejected(self, units_spec):
        with pytest.raises(DataInvariantError):
            build_report(units_spec, SUITE, {}, CFG)

    def test_system_without_a_pass_bit_is_left_out(self, units_spec):
        verdicts = verdicts_for(SUITE, "a", [1, 0, 1]) | verdicts_for([], "failed", [])
        report = build_report(units_spec, SUITE, verdicts, CFG)
        assert list(report["systems"]) == ["a"]
        with pytest.raises(DataInvariantError, match="zero verdicts"):
            build_report(units_spec, SUITE, verdicts_for([], "failed", []), CFG)

    def test_row_of_another_length_rejected(self, units_spec):
        with pytest.raises(DataInvariantError, match="3 cases"):
            build_report(units_spec, SUITE, {"a": [True, False]}, CFG)

    def test_no_common_case_rejected(self, units_spec):
        verdicts = verdicts_for(SUITE[:1], "a", [1]) | {"b": [None, True, True]}
        with pytest.raises(DataInvariantError, match="no case is covered"):
            build_report(units_spec, SUITE, verdicts, CFG)

    def test_deterministic(self, units_spec):
        verdicts = verdicts_for(SUITE, "a", [1, 0, 1]) | verdicts_for(SUITE, "b", [0, 1, 1])
        first = build_report(units_spec, SUITE, verdicts, CFG)
        second = build_report(units_spec, SUITE, verdicts, CFG)
        assert first == second

    def test_render_report_three_decimals(self, units_spec):
        verdicts = verdicts_for(SUITE, "sys", [1, 1, 0])
        text = render_report(build_report(units_spec, SUITE, verdicts, CFG))
        assert "Property: units" in text
        assert "[0." in text and "]" in text


class TestSampleForAnnotation:
    def make_verdicts(self, n_pass, n_fail):
        """One system's pass bits: n_pass passes, then n_fail fails."""
        return [i < n_pass for i in range(n_pass + n_fail)]

    def test_full_strata(self):
        passed = self.make_verdicts(300, 300)
        passes, fails = sample_for_annotation(passed, k=100, seed=1)
        assert len(passes) == 100 and len(fails) == 100
        assert all(passed[i] for i in passes)
        assert not any(passed[i] for i in fails)

    def test_short_stratum_returned_whole(self, caplog):
        verdicts = self.make_verdicts(50, 3)
        with caplog.at_level("WARNING"):
            passes, fails = sample_for_annotation(verdicts, k=5, seed=1)
        assert len(passes) == 5 and len(fails) == 3
        assert "3 fail" in caplog.text

    def test_seed_reproducible(self):
        verdicts = self.make_verdicts(200, 200)
        assert sample_for_annotation(verdicts, 20, seed=9) == sample_for_annotation(
            verdicts, 20, seed=9
        )

    def test_without_replacement(self):
        passes, fails = sample_for_annotation(self.make_verdicts(120, 120), k=100, seed=2)
        assert len(set(passes)) == 100
        assert len(set(fails)) == 100


class TestApplyCandidateEdits:
    def base(self):
        return {"miles": CandidateSet(value="miles", candidates=("Meilen", "mi"))}

    def test_add(self):
        updated, audit = apply_candidate_edits(self.base(), [("miles", ("Meile",), ())])
        assert updated["miles"].candidates == ("Meilen", "mi", "Meile")
        assert audit == ["miles: added 'Meile'"]

    def test_remove_last_rejected(self):
        candidates = {"x": CandidateSet(value="x", candidates=("only",))}
        with pytest.raises(DataInvariantError, match="last candidate"):
            apply_candidate_edits(candidates, [("x", (), ("only",))])

    def test_remove_nonexistent_rejected(self):
        with pytest.raises(DataInvariantError, match="not present"):
            apply_candidate_edits(self.base(), [("miles", (), ("km",))])

    def test_unknown_value_rejected(self):
        with pytest.raises(DataInvariantError, match="unknown value"):
            apply_candidate_edits(self.base(), [("nope", ("x",), ())])

    def test_contrastive_target_rejected(self):
        candidates = {"i": ContrastivePair(value="i", correct=("a",), foil=("b",))}
        with pytest.raises(DataInvariantError, match="contrastive"):
            apply_candidate_edits(candidates, [("i", ("c",), ())])

    def test_duplicate_add_skipped(self):
        updated, audit = apply_candidate_edits(self.base(), [("miles", ("MEILEN",), ())])
        assert updated["miles"].candidates == ("Meilen", "mi")
        assert "skipped" in audit[0]

    def test_fn_fix_flips_fail_to_pass_only(self, units_spec):
        # 2 fails under the initial sets; adding the missing candidate flips
        # exactly the affected case and never un-passes another
        translations = records_for(SUITE, ["Ich lief 3 Meilen.", "Es sind 60 Watt.", "5 Teile."])
        before = evaluate_records(units_spec, SUITE, UNIT_CANDIDATES, translations).verdicts
        assert [v[2] for v in before] == [True, True, False]
        updated, _ = apply_candidate_edits(UNIT_CANDIDATES, [("inches", ("Teile",), ())])
        after = evaluate_records(units_spec, SUITE, updated, translations).verdicts
        assert [v[2] for v in after] == [True, True, True]
        for old, new in zip(before, after):
            assert new[2] >= old[2]
