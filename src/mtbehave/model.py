"""Core domain types and the JSONL formats every other module consumes.

All types are immutable value objects: safe to share across threads.
Files are UTF-8, one JSON object per line, LF endings.
"""
from __future__ import annotations

import codecs
import errno
import itertools
import json
import math
import os
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from .errors import BracketParseError, ConfigError, DataInvariantError, MtBehaveError

DETECTOR_KINDS = ("exhaustive", "contrastive")
# Property and system ids name files and directories, so each must be a plain
# file name: a letter, digit or "_", then those, "." or "-"; never "." or "..".
_PLAIN_NAME = re.compile(r"\w[\w.-]*")
_OTHER_SPACE = re.compile(r"[^\S\x00-\x7f]")  # U+00A0, U+202F, U+2000-U+200A, U+3000, ...

T = TypeVar("T")


@dataclass(frozen=True)
class PropertySpec:
    """Declarative description of one tested language property."""

    id: str
    name: str
    detector: str
    source_prompt: str
    candidate_prompt: str
    demos: tuple[str, ...]
    language_pair: tuple[str, str]
    foil_prompt: str | None = None

    def __post_init__(self) -> None:
        if not _PLAIN_NAME.fullmatch(self.id):
            raise DataInvariantError(f"property id {self.id!r} is not a plain file name")
        if self.detector not in DETECTOR_KINDS:
            raise DataInvariantError(
                f"property {self.id}: unknown detector {self.detector!r}"
            )
        if self.detector == "contrastive" and not self.foil_prompt:
            raise DataInvariantError(
                f"property {self.id}: contrastive detector requires a foil_prompt"
            )
        if len(self.demos) < 1:
            raise DataInvariantError(f"property {self.id}: at least one demo required")
        object.__setattr__(self, "demos", tuple(self.demos))
        object.__setattr__(self, "language_pair", tuple(self.language_pair))


def _check_spec(obj, context: str, needs: Mapping[str, str | None], **at_least: float) -> None:
    """`obj.kind` must be a key of `needs` and the field it maps to, if any, nonempty;
    each field named in `at_least` must be at least its value there."""
    if obj.kind not in needs:
        raise ConfigError(f"{context}: kind must be one of {tuple(needs)}, got {obj.kind!r}")
    if needs[obj.kind] and not getattr(obj, needs[obj.kind]):
        raise ConfigError(f"{context}: kind {obj.kind!r} requires a {needs[obj.kind]}")
    for name, low in at_least.items():
        if getattr(obj, name) < low:
            raise ConfigError(f"{context}: {name!r} must be >= {low}, got {getattr(obj, name)}")


def match_form(text: str) -> str:
    """NFC (Unicode UAX #15), each non-ASCII whitespace character as U+0020, case-folded:
    two texts are the same text iff their forms are equal. ASCII needs only the fold."""
    if text.isascii():
        return text.casefold()
    return _OTHER_SPACE.sub(" ", unicodedata.normalize("NFC", text)).casefold()


def parse_bracketed(raw: str) -> tuple[str, str, tuple[int, int]]:
    """Parse one generated line into (source, value, span).

    `raw` is the line with any leading "- " item marker already removed.
    The returned source is `raw` minus the two bracket characters, and
    the span locates the value inside that stripped sentence.
    """
    opens = raw.count("[")
    closes = raw.count("]")
    if opens != closes:
        raise BracketParseError("unbalanced", raw)
    if opens == 0:
        raise BracketParseError("no_value", raw)
    if opens > 1:
        raise BracketParseError("multi_value", raw)
    i = raw.index("[")
    j = raw.index("]")
    if j < i:
        raise BracketParseError("unbalanced", raw)
    value = raw[i + 1 : j]
    if not value.strip():
        raise BracketParseError("empty_value", raw)
    return raw[:i] + value + raw[j + 1 :], value, (i, i + len(value))


@dataclass(frozen=True)
class TestCase:
    """One source sentence with a single tagged property value.

    `source`, `value` and `value_span` are `parse_bracketed(raw)`, so a case
    whose line does not parse cannot be built. Spans are half-open
    [start, end) intervals in Unicode scalar values.
    """

    __test__ = False  # not a pytest class, despite the name

    id: str
    property_id: str
    raw: str
    source: str = field(init=False)
    value: str = field(init=False)
    value_span: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        source, value, span = parse_bracketed(self.raw)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "value_span", span)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "property_id": self.property_id,
            "raw": self.raw,
            "source": self.source,
            "value": self.value,
            "value_span": list(self.value_span),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TestCase":
        """A suite row's case; its stored source, value and span must be its raw's."""
        case = cls(_str_field(d, "id"), d["property_id"], d["raw"])
        stored = d["source"], d["value"], d["value_span"]
        if stored != (case.source, case.value, [*case.value_span]):
            raise ValueError(f"case {case.id}: source, value or value_span disagrees with raw")
        return case


def _str_field(d: Mapping, key: str) -> str:
    """Field `key` of a record, which must be a JSON string."""
    value = d[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string")
    return value


def _bool_field(d: Mapping, key: str) -> bool:
    """Field `key` of a record, which must be a JSON true or false."""
    value = d[key]
    if not isinstance(value, bool):
        raise TypeError(f"{key!r} must be true or false")
    return value


def _str_list(value, field: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a string is not split into characters."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{field!r} must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class CandidateSet:
    """All (practically all) valid target-language translations of one value."""

    value: str
    candidates: tuple[str, ...]
    # The candidates' match forms, in order; derived, so not saved or compared.
    folded: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise DataInvariantError(f"candidate set for {self.value!r} is empty")
        seen: dict[str, None] = {}  # insertion-ordered, so it is `folded` once all differ
        for cand in self.candidates:
            if not cand or not cand.strip():
                raise DataInvariantError(f"candidate set for {self.value!r} has a blank entry")
            folded = match_form(cand)
            if folded in seen:
                raise DataInvariantError(
                    f"candidate set for {self.value!r} has duplicate entry {cand!r}"
                )
            seen[folded] = None
        object.__setattr__(self, "folded", tuple(seen))

    def to_dict(self) -> dict:
        return {"value": self.value, "candidates": list(self.candidates)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CandidateSet":
        return cls(value=d["value"], candidates=_str_list(d["candidates"], "candidates"))


@dataclass(frozen=True)
class ContrastivePair:
    """Correct-meaning vs. literal-foil translation candidates for one value."""

    value: str
    correct: tuple[str, ...]
    foil: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "correct", tuple(self.correct))
        object.__setattr__(self, "foil", tuple(self.foil))
        if not self.correct or not self.foil:
            raise DataInvariantError(
                f"contrastive pair for {self.value!r} needs nonempty correct and foil lists"
            )
        if any(not c or not c.strip() for c in self.correct + self.foil):
            raise DataInvariantError(f"contrastive pair for {self.value!r} has a blank entry")
        overlap = [f for f in self.foil if match_form(f) in map(match_form, self.correct)]
        if overlap:
            raise DataInvariantError(
                f"contrastive pair for {self.value!r}: correct/foil overlap {overlap!r}"
            )

    def to_dict(self) -> dict:
        return {"value": self.value, "correct": list(self.correct), "foil": list(self.foil)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "ContrastivePair":
        return cls(
            value=d["value"],
            correct=_str_list(d["correct"], "correct"),
            foil=_str_list(d["foil"], "foil"),
        )


CandidateEntry = Union[CandidateSet, ContrastivePair]


# ---------------------------------------------------------------------------
# The file boundary: the package reads and writes files only through these, and
# only here does an OSError or UnicodeDecodeError become an error naming the path:
# a read raises the caller's `error`, a write always a DataInvariantError (exit 3).


@contextmanager
def _file_errors(path: Path, action: str, error: type[MtBehaveError], what: str) -> Iterator[None]:
    """Re-raise an OSError or UnicodeDecodeError from the block as `error`: as
    `<what><path>: cannot <action> (<reason>)` or `<what><path> is not UTF-8 (byte N)`."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{what}{path} is not UTF-8 (byte {exc.start})") from exc
    except OSError as exc:
        raise error(f"{what}{path}: cannot {action} ({exc.strerror})") from exc


def _read_bytes(path: Path) -> bytes:
    with _file_errors(path, "read", DataInvariantError, ""), open(path, "rb") as fh:
        return fh.read()


def _read_text(path: Path, error: type[MtBehaveError] = DataInvariantError, what: str = "") -> str:
    """The UTF-8 text of `path`, CRLF and CR read as LF as `Path.read_text` does."""
    with _file_errors(path, "read", error, what):
        return path.read_text(encoding="utf-8")


def _list_dir(
    path: Path, error: type[MtBehaveError] = DataInvariantError, what: str = ""
) -> list[str]:
    """The names in directory `path`; a directory that does not exist has none."""
    with _file_errors(path, "read", error, what):
        try:
            return os.listdir(path)
        except FileNotFoundError:
            return []


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Stream `chunks` into `path` as UTF-8, replacing the file whole or not at all.

    The chunks go to a temporary file next to `path`, which is renamed over it
    once complete, so an interrupted write leaves the previous file intact.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with _file_errors(path, "write", DataInvariantError, ""):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _check_write_targets(paths: Iterable[Path]) -> None:
    """Fail now, as a later write would: a directory where one of `paths` goes."""
    for path in paths:
        with _file_errors(path, "write", DataInvariantError, ""):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _make_dir(path: Path) -> None:
    with _file_errors(path, "write", DataInvariantError, ""):
        path.mkdir(parents=True, exist_ok=True)


def _append(path: Path, text: str) -> None:
    with _file_errors(path, "write", DataInvariantError, ""):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _truncate(path: Path, size: int) -> None:
    with _file_errors(path, "write", DataInvariantError, ""):
        os.truncate(path, size)


# ---------------------------------------------------------------------------
# JSONL serialization


# One decoder for every JSONL line; json.loads(bytes) would detect the encoding
# and run two whitespace regexes on each line again.
_DECODER = json.JSONDecoder()


def _iter_jsonl(path: Path, data: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each nonblank line of a JSONL file, or
    of its bytes `data` when the caller has read them already.

    Lines split on LF only and are decoded per line as UTF-8 with an optional
    BOM, so a torn multi-byte character fails its own line instead of the
    whole file. JSON whitespace, CR included, may pad an object.
    """
    if data is None:
        data = _read_bytes(path)
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            # The "utf-8-sig" codec, without its per-call Python wrapper.
            text = line.removeprefix(codecs.BOM_UTF8).decode("utf-8").strip(" \t\r")
            obj, end = _DECODER.raw_decode(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else "not UTF-8"
            raise DataInvariantError(f"{path}:{lineno}: invalid JSON ({reason})") from exc
        if not isinstance(obj, dict):
            raise DataInvariantError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, obj


def _load_records(
    path: Path | str, from_dict: Callable[[dict], T], data: bytes | None = None
) -> Iterator[tuple[int, T]]:
    """Yield (line number, from_dict(object)) for each record of a JSONL file,
    parsed from `data` when given.

    A KeyError (missing field), AttributeError, TypeError, ValueError or
    OverflowError (malformed field), or a DataInvariantError (a broken record
    invariant), from `from_dict` becomes a DataInvariantError naming path and line.
    """
    path = Path(path)
    for lineno, obj in _iter_jsonl(path, data):
        try:
            record = from_dict(obj)
        except KeyError as exc:
            raise DataInvariantError(f"{path}:{lineno}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError, DataInvariantError) as exc:
            raise DataInvariantError(f"{path}:{lineno}: malformed record ({exc})") from exc
        yield lineno, record


# One encoder for every JSONL row: json.dumps(row, ensure_ascii=False) would
# build a new one per row. Rows are trees of fresh dicts and lists, so the
# circular-reference check has nothing to find.
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)


# Rows written once per (case, system) are formatted from their fields, with no
# dict and no generic encoder. Strings and floats are written as json.dumps writes
# them, so a line is json.dumps(row, ensure_ascii=False) of a dict of its keys in order.
_json_str = json.encoder.encode_basestring


def _json_float(x: float) -> str:
    """`x` as json writes a float: its repr when finite."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _translation_line(case_id: str, system_id: str, translation: str) -> str:
    return (
        f'{{"case_id": {_json_str(case_id)}, "system_id": {_json_str(system_id)}, '
        f'"translation": {_json_str(translation)}}}\n'
    )


def _verdict_line(case_id: str, system_id: str, passed: bool, matched=None, scores=None) -> str:
    line = (
        f'{{"case_id": {_json_str(case_id)}, "system_id": {_json_str(system_id)}, '
        f'"pass": {"true" if passed else "false"}'
    )
    if matched is not None:
        line += f', "matched_candidate": {_json_str(matched)}'
    if scores is not None:
        line += f', "scores": [{", ".join(map(_json_float, scores))}]'
    return line + "}\n"


def _cache_line(source_sha256: str, translation: str) -> str:
    """One line of a translation cache file."""
    return (
        f'{{"source_sha256": {_json_str(source_sha256)}, '
        f'"translation": {_json_str(translation)}}}\n'
    )


def _write_jsonl(rows: Iterable[dict], path: Path) -> None:
    _write_atomic(path, (_ENCODER.encode(row) + "\n" for row in rows))


def _write_json(obj, path: Path) -> None:
    encoder = json.JSONEncoder(ensure_ascii=False, indent=2)
    _write_atomic(path, itertools.chain(encoder.iterencode(obj), ["\n"]))


def save_suite(cases: Iterable[TestCase], path: Path | str) -> None:
    _write_jsonl((c.to_dict() for c in cases), Path(path))


def load_suite(path: Path | str, data: bytes | None = None) -> list[TestCase]:
    """Load a suite, from its bytes `data` when already read; save/load
    round-trips to structurally equal cases."""
    cases: dict[str, TestCase] = {}
    for lineno, case in _load_records(path, TestCase.from_dict, data):
        if case.id in cases:
            raise DataInvariantError(f"{path}:{lineno}: duplicate case id {case.id!r}")
        cases[case.id] = case
    return list(cases.values())


def save_candidates(entries: Iterable[CandidateEntry], path: Path | str) -> None:
    _write_jsonl((e.to_dict() for e in entries), Path(path))


def _candidate_entry(obj: Mapping) -> CandidateEntry:
    return (CandidateSet if "candidates" in obj else ContrastivePair).from_dict(obj)


def load_candidates(path: Path | str, data: bytes | None = None) -> dict[str, CandidateEntry]:
    """Load candidates keyed by property value, preserving file order, from
    the file's bytes `data` when already read."""
    out: dict[str, CandidateEntry] = {}
    for lineno, entry in _load_records(path, _candidate_entry, data):
        if entry.value in out:
            raise DataInvariantError(f"{path}:{lineno}: duplicate value {entry.value!r}")
        out[entry.value] = entry
    return out


# A translation row is (case_id, system_id, translation) and a verdict row
# (case_id, system_id, passed, matched_candidate, scores): the parameters of
# _translation_line and _verdict_line.


def save_translations(rows: Iterable[tuple], path: Path | str) -> None:
    _write_atomic(Path(path), itertools.starmap(_translation_line, rows))


def load_translations(path: Path | str) -> list[tuple[str, str, str]]:
    keys = ("case_id", "system_id", "translation")  # each a JSON string
    return [row for _, row in _load_records(path, lambda d: tuple(_str_field(d, k) for k in keys))]


def save_verdicts(rows: Iterable[tuple], path: Path | str) -> None:
    _write_atomic(Path(path), itertools.starmap(_verdict_line, rows))


def _verdict_row(d: Mapping) -> tuple:
    """A verdict row; "matched_candidate" and "scores" may be absent or null."""
    matched, scores = d.get("matched_candidate"), d.get("scores")
    if not (matched is None or isinstance(matched, str)):
        raise TypeError("'matched_candidate' must be a string")
    if scores is not None:
        # A JSON number decodes to an int or a float; true and false to bools.
        if not isinstance(scores, list) or len(scores) != 2 or {*map(type, scores)} - {int, float}:
            raise TypeError("'scores' must be a list of two numbers")
        scores = tuple(map(float, scores))
    ids = _str_field(d, "case_id"), _str_field(d, "system_id")
    return *ids, _bool_field(d, "pass"), matched, scores


def load_verdicts(path: Path | str) -> list[tuple]:
    """Verdict rows; save/load round-trips to equal rows, scores as a tuple of floats."""
    return [row for _, row in _load_records(path, _verdict_row)]


def _edit_row(d: Mapping) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """An edits-file line as (value, add, remove); add and remove default to empty."""
    return (
        _str_field(d, "value"),
        _str_list(d.get("add", []), "add"),
        _str_list(d.get("remove", []), "remove"),
    )
