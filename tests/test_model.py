"""Domain types: bracket parsing, invariants, JSONL round-trips, the file boundary."""
from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import mtbehave
from mtbehave.errors import BracketParseError, ConfigError, DataInvariantError
from mtbehave.model import (
    CandidateSet,
    ContrastivePair,
    PropertySpec,
    TestCase,
    _append,
    _cache_line,
    _iter_jsonl,
    _list_dir,
    _read_text,
    _translation_line,
    _verdict_line,
    _write_atomic,
    _write_jsonl,
    load_candidates,
    load_suite,
    load_translations,
    load_verdicts,
    match_form,
    parse_bracketed,
    save_candidates,
    save_suite,
    save_translations,
    save_verdicts,
)

from conftest import make_spec


def parse_error(raw: str) -> BracketParseError:
    """The error `parse_bracketed(raw)` raises, whose message leads with its reason."""
    with pytest.raises(BracketParseError) as info:
        parse_bracketed(raw)
    assert (info.value.raw, str(info.value)) == (raw, f"{info.value.reason}: {raw!r}")
    return info.value


class TestParseBracketed:
    def test_decimal_example(self):
        source, value, span = parse_bracketed("The company received [4200.4]€.")
        assert source == "The company received 4200.4€."
        assert value == "4200.4"
        assert span == (21, 27)
        assert source[21:27] == "4200.4"

    def test_no_brackets(self):
        assert parse_error("No brackets here.").reason == "no_value"

    def test_two_values(self):
        assert parse_error("She paid [5] for [3] apples.").reason == "multi_value"

    @pytest.mark.parametrize(
        "raw",
        ["Unbalanced [only open.", "Unbalanced only close].", "Wrong ]order[ here."],
    )
    def test_unbalanced(self, raw):
        assert parse_error(raw).reason == "unbalanced"

    @pytest.mark.parametrize("raw", ["An [] empty value.", "A [  ] blank value."])
    def test_empty_value(self, raw):
        assert parse_error(raw).reason == "empty_value"

    def test_value_at_start_and_end(self):
        _, _, span = parse_bracketed("[USD] is a currency")
        assert span == (0, 3)
        source, _, (s, _) = parse_bracketed("the price is 5 [EUR]")
        assert source[s:] == "EUR"

    def test_unicode_span_counts_scalars(self):
        source, _, (s, e) = parse_bracketed("He sent 🎉 and [😊] to everyone.")
        assert source[s:e] == "😊"

    @given(
        prefix=st.text(alphabet=st.characters(exclude_characters="[]"), max_size=30),
        value=st.text(alphabet=st.characters(exclude_characters="[]"), min_size=1, max_size=10),
        suffix=st.text(alphabet=st.characters(exclude_characters="[]"), max_size=30),
    )
    def test_reconstruction_roundtrip(self, prefix, value, suffix):
        if not value.strip():
            return
        raw = f"{prefix}[{value}]{suffix}"
        source, parsed_value, (s, e) = parse_bracketed(raw)
        assert source[s:e] == parsed_value
        assert source[:s] + "[" + parsed_value + "]" + source[e:] == raw
        assert len(source) == len(raw) - 2


def make_case(case_id="units-00000", raw="I ran 3 [miles] today.") -> TestCase:
    return TestCase(case_id, "units", raw)


BRACKET_FREE = st.characters(exclude_characters="[]")


class TestInvariants:
    def test_reconstruction_holds(self):
        case = make_case()
        s, e = case.value_span
        assert case.source[:s] + "[" + case.value + "]" + case.source[e:] == case.raw

    def test_span_mismatch_rejected(self):
        # A case's span comes from its raw line, so a disagreeing one can only be read.
        with pytest.raises(ValueError, match="units-00000"):
            TestCase.from_dict({**make_case().to_dict(), "value_span": [0, 5]})

    def test_empty_value_rejected(self):
        for raw in ("a [] c", "a [ ] c"):
            with pytest.raises(DataInvariantError):
                TestCase(id="x", property_id="p", raw=raw)

    @given(
        prefix=st.text(alphabet=BRACKET_FREE, max_size=30),
        value=st.text(alphabet=BRACKET_FREE, min_size=1, max_size=10),
        suffix=st.text(alphabet=BRACKET_FREE, max_size=30),
    )
    @example(prefix="a ", value=" ", suffix=" c")
    def test_parts_derive_from_raw(self, prefix, value, suffix):
        raw = f"{prefix}[{value}]{suffix}"
        if not value.strip():
            with pytest.raises(BracketParseError, match="empty_value"):
                TestCase("p-00000", "p", raw)
            return
        case = TestCase("p-00000", "p", raw)
        # Each stored part is the one raw parses to, so existing suites load unchanged.
        assert case.to_dict() == {
            "id": "p-00000",
            "property_id": "p",
            "raw": raw,
            "source": prefix + value + suffix,
            "value": value,
            "value_span": [len(prefix), len(prefix) + len(value)],
        }
        assert TestCase.from_dict(case.to_dict()) == case
        for bad in (prefix + value + suffix, raw + "]", f"{raw}[{value}]", f"]{raw}["):
            with pytest.raises(BracketParseError):
                TestCase("p-00000", "p", bad)

    def test_candidate_set_rejects_duplicates_after_folding(self):
        with pytest.raises(DataInvariantError):
            CandidateSet(value="miles", candidates=("Meilen", "meilen"))

    def test_candidate_set_folded_is_derived_not_compared(self):
        cset = CandidateSet(value="street", candidates=("Straße", "STRASSE-Ecke", "ß"))
        assert cset.folded == ("strasse", "strasse-ecke", "ss")
        assert cset == CandidateSet(value="street", candidates=("Straße", "STRASSE-Ecke", "ß"))
        assert "folded" not in repr(cset)
        assert cset.to_dict() == {"value": "street", "candidates": ["Straße", "STRASSE-Ecke", "ß"]}

    @pytest.mark.parametrize(
        "entries",
        [("Müller", "Mu\u0308ller"), ("5 km", "5\u00a0km"), ("1 000", "1\u202f000")],
        ids=["nfd", "no-break-space", "narrow-no-break-space"],
    )
    def test_candidate_set_rejects_duplicates_in_another_form(self, entries):
        with pytest.raises(DataInvariantError, match="duplicate entry"):
            CandidateSet(value="v", candidates=entries)

    def test_contrastive_pair_rejects_overlap_in_another_form(self):
        with pytest.raises(DataInvariantError, match="overlap"):
            ContrastivePair(value="v", correct=("viel Glück",), foil=("viel\u00a0Glu\u0308ck",))

    def test_candidate_set_rejects_blank(self):
        with pytest.raises(DataInvariantError):
            CandidateSet(value="miles", candidates=("Meilen", "  "))

    def test_contrastive_pair_rejects_overlap(self):
        with pytest.raises(DataInvariantError):
            ContrastivePair(
                value="break a leg",
                correct=("viel Glück",),
                foil=("brich dir ein Bein", "VIEL GLÜCK"),
            )

    def test_contrastive_pair_rejects_empty_side(self):
        with pytest.raises(DataInvariantError):
            ContrastivePair(value="x", correct=(), foil=("y",))

    def test_property_spec_contrastive_needs_foil(self):
        with pytest.raises(DataInvariantError):
            make_spec(detector="contrastive", foil_prompt="")

    def test_property_spec_needs_demo(self):
        with pytest.raises(DataInvariantError):
            make_spec(demos=())


class TestMatchForm:
    @given(st.text(alphabet=st.characters(max_codepoint=0x7F)))
    def test_ascii_is_only_case_folded(self, text):
        assert match_form(text) == text.casefold()

    @pytest.mark.parametrize(
        "text, form",
        [
            ("Mu\u0308LLER", "müller"),  # NFD becomes NFC, then the fold
            ("1\u202f000\u00a0€", "1 000 €"),  # each non-ASCII space becomes U+0020
            ("a\u2003\u3000b", "a  b"),  # one for one: a run is not collapsed
            ("80 m²", "80 m²"),  # NFC keeps compatibility characters
        ],
    )
    def test_non_ascii(self, text, form):
        assert match_form(text) == form


class TestSuiteIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_suite(path) == []

    def test_roundtrip_single_case(self, tmp_path):
        case = make_case()
        path = tmp_path / "suite.jsonl"
        save_suite([case], path)
        assert load_suite(path) == [case]

    def test_roundtrip_preserves_order(self, tmp_path):
        cases = [make_case(f"units-{i:05d}", f"I ran {i} [miles] today.") for i in range(5)]
        path = tmp_path / "suite.jsonl"
        save_suite(cases, path)
        assert load_suite(path) == cases

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        save_suite([make_case()], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(DataInvariantError, match=":2"):
            load_suite(path)

    @pytest.mark.parametrize(
        "line",
        [
            json.dumps({**make_case().to_dict(), "value_span": 5}).encode(),
            json.dumps({**make_case().to_dict(), "value_span": [1]}).encode(),
            "{\"id\": \"f\u00fc".encode()[:-1],  # torn inside the two-byte "ü"
            json.dumps({**make_case().to_dict(), "id": 5}).encode(),
            json.dumps({"id": "p-00000", "property_id": "p", "raw": "a [ ] c",
                        "source": "a   c", "value": " ", "value_span": [2, 3]}).encode(),
            json.dumps({**make_case().to_dict(), "value": "mile"}).encode(),
            json.dumps({**make_case().to_dict(), "source": "I ran 3 km today."}).encode(),
        ],
        ids=["span-not-a-list", "span-too-short", "torn-utf8", "id-not-a-string",
             "blank-value", "value-disagrees-with-raw", "source-disagrees-with-raw"],
    )
    def test_malformed_record_is_a_load_error(self, tmp_path, line):
        path = tmp_path / "suite.jsonl"
        path.write_bytes(line + b"\n")
        with pytest.raises(DataInvariantError, match="suite.jsonl:1") as info:
            load_suite(path)
        assert info.value.exit_code == 3

    def test_invariant_violation_names_case(self, tmp_path):
        # The file-level form of test_span_mismatch_rejected.
        path = tmp_path / "suite.jsonl"
        row = make_case().to_dict()
        row["value_span"] = [0, 5]
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(DataInvariantError, match="suite.jsonl:1: .*units-00000"):
            load_suite(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        save_suite([make_case(), make_case()], path)
        with pytest.raises(DataInvariantError, match="units-00000"):
            load_suite(path)

    def test_utf8_lf_on_disk(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        save_suite([make_case(raw="He sent [😊] to everyone.")], path)
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert "😊".encode("utf-8") in blob


class TestCandidatesIO:
    def test_roundtrip_both_kinds(self, tmp_path):
        entries = [
            CandidateSet(value="miles", candidates=("Meilen", "mi")),
            ContrastivePair(
                value="break a leg", correct=("viel Glück",), foil=("brich dir ein Bein",)
            ),
        ]
        path = tmp_path / "candidates.jsonl"
        save_candidates(entries, path)
        loaded = load_candidates(path)
        assert list(loaded) == ["miles", "break a leg"]
        assert loaded["miles"] == entries[0]
        assert loaded["break a leg"] == entries[1]

    def test_duplicate_value_rejected(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        entry = CandidateSet(value="miles", candidates=("Meilen",))
        save_candidates([entry, entry], path)
        with pytest.raises(DataInvariantError, match="miles"):
            load_candidates(path)

    def test_unrecognized_shape_rejected(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"value": "x"}\n', encoding="utf-8")
        with pytest.raises(DataInvariantError, match=":1"):
            load_candidates(path)

    def test_non_string_candidate_is_a_load_error(self, tmp_path):
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"value": "x", "candidates": [1]}\n', encoding="utf-8")
        with pytest.raises(DataInvariantError, match=":1"):
            load_candidates(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"value": "km", "candidates": "km"}',
            '{"value": "five", "correct": "fünf", "foil": ["fünf Dollar"]}',
            '{"value": "five", "correct": ["fünf"], "foil": "x"}',
        ],
    )
    def test_string_in_place_of_a_list_is_a_load_error(self, tmp_path, line):
        # A string would otherwise be split into its characters.
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"value": "m", "candidates": ["Meter"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataInvariantError, match=f"{path}:2: malformed record"):
            load_candidates(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"value": "v", "candidates": ["km", "KM"]}',
            '{"value": "v", "candidates": ["5 km", "5\\u00a0km"]}',
            '{"value": "v", "candidates": ["km", " "]}',
            '{"value": "v", "correct": ["fünf"], "foil": ["FÜNF"]}',
        ],
        ids=["case-fold-duplicate", "form-duplicate", "blank", "overlap"],
    )
    def test_broken_entry_invariant_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "candidates.jsonl"
        path.write_text('{"value": "m", "candidates": ["Meter"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataInvariantError, match=f"{path}:2: malformed record"):
            load_candidates(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"value": "five", "correct": [""], "foil": ["x"]}',
            '{"value": "five", "correct": ["fünf"], "foil": ["x", "  "]}',
        ],
    )
    def test_blank_contrastive_entry_rejected(self, tmp_path, line):
        path = tmp_path / "candidates.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataInvariantError, match="blank entry"):
            load_candidates(path)


class TestJsonlEncoder:
    @pytest.mark.parametrize(
        "row",
        [
            {"source": "Grüße, 北京 \U0001f600", "value": "€"},
            {"text": 'quote " backslash \\ tab \t nl \n ctl \x01 ls \u2028', "": None},
            {"scores": [0.1, 1e-300, -2.5e10, 1.0, float("nan"), float("inf"), float("-inf")],
             "pass": True},
            {"nested": [[1, [2, {"k": ["é", 3.25]}]], []], "empty": {}},
        ],
    )
    def test_shared_encoder_matches_json_dumps(self, tmp_path, row):
        path = tmp_path / "rows.jsonl"
        _write_jsonl([row, {"n": 1}, row], path)  # model._ENCODER serves every row
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in [row, {"n": 1}, row])
        assert path.read_bytes() == expected.encode("utf-8")


def reference_records(blob: bytes, path) -> list:
    """What a per-line json.loads(bytes) makes of a JSONL file."""
    out = []
    for lineno, line in enumerate(blob.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else "not UTF-8"
            raise DataInvariantError(f"{path}:{lineno}: invalid JSON ({reason})") from exc
        if not isinstance(obj, dict):
            raise DataInvariantError(f"{path}:{lineno}: expected a JSON object")
        out.append((lineno, obj))
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
JSON_PADDING = st.text(alphabet=" \t\r", max_size=3)


# Text for every case of the JSON string writer: quotes, backslashes, C0 controls,
# DEL, U+2028 and U+2029, and characters outside the BMP.
ROW_TEXT = st.text(
    st.sampled_from('"\\\x7f\u2028\u2029\U0001f600\U0010ffffaé北')
    | st.characters(max_codepoint=0x1F)
    | st.characters(exclude_categories=("Cs",)),
    max_size=12,
)
SCORES = st.sampled_from([-0.0, 0.0, 5e-324, 1.0, -1.0, 0.1 + 0.2]) | st.floats()


def dumps_line(row: dict) -> str:
    return json.dumps(row, ensure_ascii=False) + "\n"


class TestRowFormatters:
    """The rows written per (case, system) are the lines json.dumps would give."""

    @given(case_id=ROW_TEXT, system_id=ROW_TEXT, translation=ROW_TEXT)
    def test_translation_row(self, case_id, system_id, translation):
        row = {"case_id": case_id, "system_id": system_id, "translation": translation}
        assert _translation_line(case_id, system_id, translation) == dumps_line(row)

    @given(key=ROW_TEXT, translation=ROW_TEXT)
    def test_cache_row(self, key, translation):
        row = {"source_sha256": key, "translation": translation}
        assert _cache_line(key, translation) == dumps_line(row)

    @example(case_id="c", passed=True, matched='"M"\\', scores=None)
    @example(case_id="c", passed=False, matched=None, scores=(-0.0, 5e-324))
    @example(case_id="c", passed=True, matched=None, scores=(1.0, -1.0))
    @example(case_id="c", passed=False, matched="x", scores=(0.1 + 0.2, float("nan")))
    @given(
        case_id=ROW_TEXT,
        passed=st.booleans(),
        matched=st.none() | ROW_TEXT,
        scores=st.none() | st.tuples(SCORES, SCORES),
    )
    def test_verdict_row(self, case_id, passed, matched, scores):
        row = {"case_id": case_id, "system_id": "sys", "pass": passed}
        if matched is not None:
            row["matched_candidate"] = matched
        if scores is not None:
            row["scores"] = list(scores)
        assert _verdict_line(case_id, "sys", passed, matched, scores) == dumps_line(row)


class TestJsonlDecoder:
    @given(
        lines=st.lists(
            st.tuples(
                st.booleans(),
                JSON_PADDING,
                st.dictionaries(st.text(), JSON_VALUES, max_size=4),
                st.booleans(),
                JSON_PADDING,
                st.sampled_from(["\n", "\r\n"]),
            ),
            max_size=6,
        ),
        blank=st.sampled_from(["", "\n", " \t\r\n", "\x0b\x0c\n"]),
    )
    def test_matches_per_line_json_loads(self, tmp_path_factory, lines, blank):
        blob = "".join(
            ("\ufeff" if bom else "") + left + json.dumps(obj, ensure_ascii=ascii) + right + end
            for bom, left, obj, ascii, right, end in lines
        ).encode("utf-8") + blank.encode("utf-8")
        path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
        path.write_bytes(blob)
        assert list(_iter_jsonl(path)) == reference_records(blob, path)

    @pytest.mark.parametrize(
        "blob",
        [
            b'{"a": 1}\n\xff{"b": 2}\n',
            b'{"a": "f\xc3"}\n',  # torn inside the two-byte "\u00fc"
            b"\xef\xbb\xbf\n",
            b'{"a": 1} {"b": 2}\n',
            b'{"a": 1}\x0c\n',
            b'{"a": [{}\n{}]}\n{}, {}\n',  # valid only if the lines were joined
            b'{"a": 1}\n{"b": \n',
            b"[1, 2]\n",
            b'"text"\n',
        ],
        ids=["not-utf8", "torn-utf8", "bom-only", "extra-data", "extra-form-feed",
             "unsound-join", "truncated", "array", "string"],
    )
    def test_errors_match_per_line_json_loads(self, tmp_path, blob):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(blob)
        with pytest.raises(DataInvariantError) as expected:
            reference_records(blob, path)
        with pytest.raises(DataInvariantError) as info:
            list(_iter_jsonl(path))
        assert str(info.value) == str(expected.value)

    def test_lone_surrogate_is_not_utf8(self, tmp_path):
        # json.loads(bytes) lets an encoded lone surrogate through; no UTF-8
        # writer could save the string again.
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"a": "\xed\xa0\x80"}\n')
        with pytest.raises(DataInvariantError, match=r"bad.jsonl:1: invalid JSON \(not UTF-8\)"):
            list(_iter_jsonl(path))

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_path_is_a_load_error(self, tmp_path, make):
        path = tmp_path / "suite.jsonl"
        if make == "directory":
            path.mkdir()
        with pytest.raises(DataInvariantError, match=rf"{path}: cannot read \(\w"):
            load_suite(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [b'{"old": 1}\n', None])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, existing):
        path = tmp_path / "out" / "verdicts.jsonl"
        if existing is not None:
            path.parent.mkdir()
            path.write_bytes(existing)

        def rows():
            yield {"case_id": "a"}
            yield {"case_id": "b"}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            _write_jsonl(rows(), path)
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing
        assert [p.name for p in path.parent.iterdir()] == ([path.name] if existing else [])

    def test_chunks_are_streamed_into_a_temporary_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"old\n")
        seen = []

        def chunks():
            yield "new "
            seen.append(path.read_bytes())  # the target is untouched mid-write
            yield "text\n"

        _write_atomic(path, chunks())
        assert seen == [b"old\n"]
        assert path.read_bytes() == b"new text\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestTranslationAndVerdictIO:
    def test_translation_roundtrip(self, tmp_path):
        rows = [("units-00000", "sysa", "Ich lief 3 Meilen.")]
        path = tmp_path / "translations.jsonl"
        save_translations(rows, path)
        assert load_translations(path) == rows

    def test_verdict_roundtrip_exhaustive(self, tmp_path):
        verdicts = [
            ("units-00000", "sysa", True, "Meilen", None),
            ("units-00001", "sysa", False, None, None),
        ]
        path = tmp_path / "verdicts.jsonl"
        save_verdicts(verdicts, path)
        assert load_verdicts(path) == verdicts

    def test_verdict_roundtrip_contrastive(self, tmp_path):
        verdicts = [("idioms-00000", "sysa", True, None, (0.9, 0.4))]
        path = tmp_path / "verdicts.jsonl"
        save_verdicts(verdicts, path)
        loaded = load_verdicts(path)
        assert loaded == verdicts
        assert loaded[0][4] == (0.9, 0.4)

    @pytest.mark.parametrize("translation", ["3", "null", '["x"]', "{}"])
    def test_non_string_translation_is_a_load_error(self, tmp_path, translation):
        path = tmp_path / "translations.jsonl"
        path.write_text(
            '{"case_id": "a", "system_id": "s", "translation": "ok"}\n'
            f'{{"case_id": "b", "system_id": "s", "translation": {translation}}}\n',
            encoding="utf-8",
        )
        expected = re.escape(f"{path}:2: ") + ".*'translation' must be a string"
        with pytest.raises(DataInvariantError, match=expected):
            load_translations(path)

    @pytest.mark.parametrize("passed", ['"false"', '"true"', "0", "1", "null"])
    def test_pass_must_be_a_json_boolean(self, tmp_path, passed):
        path = tmp_path / "verdicts.jsonl"
        path.write_text(
            '{"case_id": "a", "system_id": "s", "pass": false}\n'
            f'{{"case_id": "b", "system_id": "s", "pass": {passed}}}\n',
            encoding="utf-8",
        )
        expected = re.escape(f"{path}:2: ") + ".*'pass' must be true or false"
        with pytest.raises(DataInvariantError, match=expected):
            load_verdicts(path)

    @pytest.mark.parametrize(
        "scores",
        ['["x", 0.5]', "3", "[null, 0.5]", '"12"', "[true, false]", '["0.5", "0.25"]',
         "[0.5]", "[0.5, 0.25, 1]", f"[1{'0' * 400}, 0.5]"],
        ids=lambda scores: scores[:20],
    )
    def test_score_that_is_not_a_number_is_a_load_error(self, tmp_path, scores):
        path = tmp_path / "verdicts.jsonl"
        path.write_text(
            '{"case_id": "a", "system_id": "s", "pass": true, "scores": [0.5, 0.25]}\n'
            f'{{"case_id": "b", "system_id": "s", "pass": true, "scores": {scores}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataInvariantError, match=re.escape(f"{path}:2: malformed record")):
            load_verdicts(path)

    def test_verdict_json_uses_pass_key(self):
        assert json.loads(_verdict_line("c", "s", True, "x")) == {
            "case_id": "c",
            "system_id": "s",
            "pass": True,
            "matched_candidate": "x",
        }


class TestPropertySpecRoundtrip:
    def test_spec_is_immutable(self, units_spec):
        with pytest.raises(AttributeError):
            units_spec.id = "other"

    @pytest.mark.parametrize("prop_id", ["../escaped", "a/b", ".", "..", ".x", "-x", ""])
    def test_id_must_be_a_plain_file_name(self, prop_id):
        with pytest.raises(DataInvariantError, match="is not a plain file name"):
            make_spec(prop_id=prop_id)


# Calls that reach the filesystem: the `open` builtin, these methods on any
# object but a packaged resource, these `os` functions and anything of `shutil`.
_FILE_METHODS = {
    "open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "unlink",
    "touch", "rename", "rmdir", "iterdir", "glob", "rglob",
}
_OS_FUNCTIONS = {
    "listdir", "scandir", "truncate", "replace", "remove", "unlink", "rename",
    "mkdir", "makedirs", "rmdir", "walk",
}


def _is_packaged_resource(node: ast.AST) -> bool:
    """Whether an expression reads through `importlib.resources.files(...)`."""
    return any(
        isinstance(n, ast.Attribute) and n.attr == "files"
        and isinstance(n.value, ast.Name) and n.value.id == "resources"
        for n in ast.walk(node)
    )


def _file_calls(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}") for a in node.names
                      if a.name in _OS_FUNCTIONS]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found += [(node.lineno, "import shutil") for name in names if name == "shutil"]
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(fn, ast.Attribute):
            is_os = isinstance(fn.value, ast.Name) and fn.value.id == "os"
            if is_os and fn.attr in _OS_FUNCTIONS:
                found.append((node.lineno, f"os.{fn.attr}"))
            elif fn.attr in _FILE_METHODS and not _is_packaged_resource(fn.value):
                found.append((node.lineno, f".{fn.attr}"))
    return sorted(found)


class TestFileBoundary:
    def test_only_model_calls_the_filesystem(self):
        package = Path(mtbehave.__file__).parent
        found = [
            f"{path.name}:{lineno}: {call}"
            for path in sorted(package.glob("*.py")) if path.name != "model.py"
            for lineno, call in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert found == []

    def test_the_check_sees_each_kind_of_call(self):
        source = (
            "from os import scandir\n"
            "open(p)\np.read_text()\np.mkdir()\nos.listdir(d)\nos.truncate(p, 0)\n"
            "resources.files('x').joinpath('y').read_text()\ns.replace('a', 'b')\n"
            "import shutil\nfrom shutil import rmtree\nos.makedirs(d)\nos.remove(p)\n"
            "p.touch()\np.rename(q)\nd.rmdir()\nd.iterdir()\nd.glob('*')\n"
        )
        assert [call for _, call in _file_calls(ast.parse(source))] == [
            "from os import scandir", "open", ".read_text", ".mkdir", "os.listdir", "os.truncate",
            "import shutil", "import shutil", "os.makedirs", "os.remove",
            ".touch", ".rename", ".rmdir", ".iterdir", ".glob",
        ]

    def test_read_text_reads_line_endings_as_lf(self, tmp_path):
        path = tmp_path / "template.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert _read_text(path) == path.read_text(encoding="utf-8") == "a\nb\nc\n"

    def test_read_errors_take_the_callers_class_and_label(self, tmp_path):
        with pytest.raises(ConfigError, match=rf"^config file {tmp_path}: cannot read \(Is a"):
            _read_text(tmp_path, ConfigError, "config file ")
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"ab\xff")
        with pytest.raises(DataInvariantError, match=rf"^{path} is not UTF-8 \(byte 2\)$"):
            _read_text(path)

    def test_list_dir(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"")
        assert _list_dir(tmp_path) == ["a.txt"]
        assert _list_dir(tmp_path / "absent") == []
        with pytest.raises(DataInvariantError, match=r"a.txt: cannot read \(Not a directory\)"):
            _list_dir(tmp_path / "a.txt")

    def test_append_to_a_directory_is_a_load_error(self, tmp_path):
        path = tmp_path / "audit.log"
        _append(path, "one\n")
        _append(path, "two\n")
        assert path.read_bytes() == b"one\ntwo\n"
        with pytest.raises(DataInvariantError, match=rf"^{tmp_path}: cannot write \(Is a directory\)"):
            _append(tmp_path, "x\n")

    @pytest.mark.parametrize("parent", ["file", "file/sub"])
    def test_write_under_a_file_is_a_load_error(self, tmp_path, parent):
        (tmp_path / "file").write_bytes(b"keep")
        path = tmp_path / parent / "report.json"
        with pytest.raises(DataInvariantError, match=rf"^{path}: cannot write \("):
            _write_atomic(path, ["{}"])
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_bytes() == b"keep"
