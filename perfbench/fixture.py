"""Seeded fixture generator for the benchmark workloads.

A fixture is everything the program is given for one workload: a config
(the en-de preset's properties and prompts, the replay LLM, the hash
embedder and command-line MT systems), a replay directory, and, for the
rerun workloads, a workspace holding suites and candidate sets plus the
edits file of `apply-edits`. The same (workload, seed) always gives byte-identical files,
wherever they are written.

Each MT system is a character map over ASCII letters and digits (`cat` is
the identity). A candidate set holds the rendering of the value by a seeded
subset of the systems plus renderings no system produces, so every system
passes a controlled share of the values. The oracle recomputes every verdict
from the same maps.

    python3 perfbench/fixture.py --workload paper_cold --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

@dataclass(frozen=True)
class Workload:
    """Shape of one workload; only the contents depend on the seed."""

    properties: tuple[str, ...]
    cases: int  # kept cases per property
    systems: int
    commands: tuple[str, ...]
    edit_property: str = ""  # property whose candidates `apply-edits` changes

    @property
    def rerun(self) -> bool:
        """Starts from a written workspace, and its timed repetitions from a
        warm translation cache."""
        return "generate" not in self.commands


WORKLOADS = {
    "paper_cold": Workload(
        properties=("decimals", "units", "names", "idioms"),
        cases=100,
        systems=4,
        commands=("generate", "candidates", "run"),
    ),
    "exhaustive_rerun": Workload(
        properties=("decimals", "units"),
        cases=1000,
        systems=6,
        commands=("apply-edits", "run"),
        edit_property="decimals",
    ),
}

# Share of values whose candidate set holds system j's rendering (exhaustive),
# and for the contrastive property the shares on the correct and on the foil
# side. `cat` against the lowest rate is always significant; the twin
# systems (see make_systems) always tie. Every rate stays well inside
# (0.05, 0.95).
EXHAUSTIVE_RATES = (0.72, 0.60, 0.45, 0.55, 0.28, 0.28)
CONTRASTIVE_RATES = ((0.55, 0.15), (0.35, 0.25), (0.15, 0.45), (0.15, 0.45))
RATE_JITTER = 0.04
REJECT_EVERY = 10  # one filter reject per ten generated items
KEPT_PER_BATCH = REJECT_EVERY - 1
# Replay files of the paper-scale run (nine properties x 1000 cases: about
# 900 generate batches and 3000 candidate prompts).
PAPER_SCALE_REPLAYS = 3900

WORDS = """
about after again against agency airport almost along already always among
animal annual answer anyone around arrive artist autumn avenue balance banner
barely basket beach became before behind belief beside better beyond bicycle
border bottle branch bridge bright broken brother budget builder button cabinet
camera campus candle canvas carbon career carpet castle casual cattle central
certain chapter charity chicken choice circle client closely coastal coffee
colour column comfort common cookie corner cotton council county course cousin
create credit crisis critic curtain custom damage dancer debate decade defence
degree delay dental desert design detail device dinner direct doctor domain
double dozen drawer dragon during easily eastern editor effort either eleven
empire energy engine enough entire estate evening except expert fabric factor
family farmer father fellow figure finger finish flight flower follow forest
format friend frozen future galaxy garage garden gather gentle giant glance
global golden ground growth guitar handle harbor health height hidden holiday
hollow honest hunter income indeed inside island itself jacket jungle junior
kettle kitchen ladder latest lawyer leader lesson letter library likely linen
liquid listen little lively lovely market master matter meadow member memory
middle minute mirror modern moment monkey mostly mother motion museum narrow
nature nearby needle nephew nicely normal notice number object office orange
output oxygen packet palace parade parent pencil people pepper period person
pillow planet player pocket poetry police potato powder prefer pretty prince
public puzzle rabbit random rarely rather reader recent record region remote
repair report rescue result ribbon rocket rubber saddle sailor salmon sample
school screen season second secret select senior series shadow signal silver
simple singer sister slowly smooth spirit spring square stable statue steady
stream street strong studio summer sunset supply switch symbol tablet talent
target teacher temple tender theory thirty throat ticket timber tomato toward
travel tunnel twelve unable unique update useful valley velvet vessel victim
village violin visual volume walnut wander wealth weekly window winter within
wonder wooden worker writer yellow
""".split()

UNITS = """
miles kilometers watts inches pounds liters gallons meters feet yards ounces
grams kilograms volts amperes hertz joules calories acres hectares knots bars
pascals newtons tons centimeters millimeters decibels lumens kelvin megabytes
gigabytes terabytes horsepower ohms teaspoons pints furlongs fathoms lightyears
""".split()
UNIT_PREFIXES = ("", "kilo", "mega", "micro", "nano", "centi", "milli")
FIRST_NAMES = """
Alice Rafael Mina Laura Omar Clara Anna Ravi Sofia Jonas Lena Mateo Yuki Ingrid
Tomas Amara Felix Nadia Pablo Greta Hugo Leila Oskar Priya Emil Zara Viktor Nora
Dario Ines Malik Elsa Kenji Maya Bruno Hanna Tariq Lucia Anton Selma
""".split()
LAST_NAMES = """
Johnson Ortega Park Bach Haddad Vega Maier Kumar Brandt Weber Silva Tanaka Novak
Larsen Costa Okafor Fischer Moreau Rossi Nilsson Sato Kowalski Duarte Petrov
Lindqvist Mendes Ahmed Keller Varga Horvat Schmidt Castillo Nakamura Berg Quinn
Romero Sokolov Adler Dubois Meyer
""".split()
IDIOM_VERBS = """
break hit spill bite pull cut burn climb cross drop jump kick miss raise ring
shake steal throw turn walk
""".split()
IDIOM_NOUNS = """
leg sack beans bullet ice corner bridge wall line ball bucket boat cake candle
dust fence gun horse iron mark nail road rope storm
""".split()
IDIOM_TAILS = ("", "at both ends", "in the dark", "on the head", "for good", "twice")


def _value(prop: str, rng: random.Random, i: int) -> str:
    """The i-th distinct value of a property. Its form, and so its token
    count, cycles with i, so every seed gets the same mix of forms."""
    if prop == "decimals":
        return f"{rng.randint(0, 9999)}.{rng.randint(1, 99)}"
    if prop == "units":
        if i % 2:
            return rng.choice(UNIT_PREFIXES) + rng.choice(UNITS)
        return f"{rng.choice(UNITS)} per {rng.choice(UNITS)}"
    if prop == "names":
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    if prop == "idioms":
        phrase = f"{rng.choice(IDIOM_VERBS)} the {rng.choice(IDIOM_NOUNS)}"
        return f"{phrase} {IDIOM_TAILS[i % len(IDIOM_TAILS)]}".strip()
    raise ValueError(f"no value generator for property {prop!r}")


def _distinct_values(prop: str, count: int, rng: random.Random) -> list[str]:
    values: dict[str, None] = {}
    for _ in range(100 * count):
        values[_value(prop, rng, len(values))] = None
        if len(values) == count:
            return list(values)
    raise ValueError(f"{prop}: could not draw {count} distinct values")


def _char_map(rng: random.Random) -> dict[str, str]:
    """A permutation of ASCII letters and digits with no fixed point."""
    letters = list(string.ascii_lowercase)
    digits = list(string.digits)
    mapping: dict[str, str] = {}
    for group in (letters, digits):
        shuffled = group[:]
        while any(a == b for a, b in zip(group, shuffled)):
            rng.shuffle(shuffled)
        mapping.update(zip(group, shuffled))
    mapping.update({a.upper(): b.upper() for a, b in mapping.items() if a.isalpha()})
    return mapping


@dataclass
class System:
    """One MT system under test: a `cat`, `tr` or `sed` command, and the same
    character map in Python for the oracle."""

    system_id: str
    tool: str
    src: str = ""
    dst: str = ""

    @property
    def command(self) -> str:
        if self.tool == "tr":
            return f"tr {self.src} {self.dst}"
        if self.tool == "sed":
            return f"sed -e y/{self.src}/{self.dst}/"
        return "cat"

    def translate(self, text: str) -> str:
        return text.translate(str.maketrans(self.src, self.dst))


def _mapped_system(system_id: str, tool: str, rng: random.Random) -> System:
    mapping = _char_map(rng)
    return System(system_id, tool, "".join(mapping), "".join(mapping.values()))


def make_systems(workload: Workload, rng: random.Random) -> list[System]:
    """`cat`, then alternating `tr` and `sed` character maps. The last system
    applies the previous one's map with the other tool: two systems with
    identical output always give one non-significant comparison."""
    systems = [System("sys0", "cat")]
    for j in range(1, workload.systems):
        tool = "tr" if j % 2 else "sed"
        if j == workload.systems - 1 and j >= 2:
            prev = systems[-1]
            systems.append(System(f"sys{j}", tool, prev.src, prev.dst))
        else:
            systems.append(_mapped_system(f"sys{j}", tool, rng))
    return systems


def _sentence(value: str, length: int, rng: random.Random, used: set[str]) -> str:
    """A sentence of `length` tokens (at least the value plus four) with the
    value bracketed; unique per property."""
    value_tokens = len(value.split())
    total = max(length, value_tokens + 4)
    while True:
        before = rng.randint(2, total - value_tokens - 2)
        after = total - value_tokens - before
        words = [rng.choice(WORDS) for _ in range(before + after)]
        words[0] = words[0].capitalize()
        raw = " ".join(words[:before] + [f"[{value}]"] + words[before:]) + "."
        key = " ".join(raw.replace("[", "").replace("]", "").split()).casefold()
        if key not in used:
            used.add(key)
            return raw


def generation_batches(kept: list[str], rng: random.Random) -> list[str]:
    """Replay responses for `generate`: each batch holds KEPT_PER_BATCH kept
    items plus one the filter drops (a duplicate, a line without brackets, or
    two sentences), so the suite is exactly `kept`."""
    batches = []
    for b, start in enumerate(range(0, len(kept), KEPT_PER_BATCH)):
        items = kept[start : start + KEPT_PER_BATCH]
        pos = rng.randint(1, len(items))
        kind = b % 3
        if kind == 0:
            reject = kept[rng.randrange(start + pos)]
        elif kind == 1:
            reject = items[pos - 1].replace("[", "").replace("]", "")
        else:
            reject = f"{items[pos - 1]} Then {rng.choice(WORDS)} {rng.choice(WORDS)} happened."
        items.insert(pos, reject)
        lines = ["Here are ten more sentences:"] + [f"- {item}" for item in items]
        batches.append("\n".join(lines) + "\n")
    return batches


def _rates(workload: Workload, rng: random.Random) -> list[float]:
    if workload.systems > len(EXHAUSTIVE_RATES):
        raise ValueError(f"at most {len(EXHAUSTIVE_RATES)} systems are defined")
    return [p + rng.uniform(-RATE_JITTER, RATE_JITTER) for p in EXHAUSTIVE_RATES[: workload.systems]]


def _dedupe(entries: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for entry in entries:
        if entry.casefold() not in seen:
            seen.add(entry.casefold())
            out.append(entry)
    return out


def _draw(renderings: list[str]) -> list[tuple[str, int]]:
    """Distinct renderings, each with the index of the first system giving
    it: systems with equal output share one draw."""
    first: dict[str, int] = {}
    for i, rendering in enumerate(renderings):
        first.setdefault(rendering, i)
    return list(first.items())


def exhaustive_entry(value: str, systems: list[System], phantoms: list[System],
                     rates: list[float], rng: random.Random) -> list[str]:
    """Candidate set: per distinct system output, that output (at the
    system's rate) or a phantom rendering in its place, plus two phantom
    renderings. The size does not depend on the draws."""
    entries = [r if rng.random() < rates[i] else phantoms[i].translate(value)
               for r, i in _draw([s.translate(value) for s in systems])]
    entries = _dedupe(entries + [s.translate(value) for s in phantoms[-2:]])
    rng.shuffle(entries)
    return entries


def contrastive_entry(value: str, systems: list[System], phantoms: list[System],
                      rng: random.Random) -> tuple[list[str], list[str]]:
    """(correct, foil): each distinct system output lands on the correct
    side, on the foil side, or neither, when a phantom rendering takes its
    place on a random side. Fixed phantom renderings pad both sides, so the
    number of entries does not depend on the draws."""
    correct = [phantoms[-2].translate(value)]
    foil = [phantoms[-1].translate(value), phantoms[-1].translate(value.split()[0])]
    for rendering, i in _draw([s.translate(value) for s in systems]):
        p_correct, p_foil = CONTRASTIVE_RATES[i]
        draw = rng.random()
        if draw < p_correct:
            correct.append(rendering)
        elif draw < p_correct + p_foil:
            foil.append(rendering)
        else:
            (correct if rng.random() < 0.5 else foil).append(phantoms[i].translate(value))
    correct = _dedupe(correct)
    folded = {c.casefold() for c in correct}
    foil = [f for f in _dedupe(foil) if f.casefold() not in folded]
    rng.shuffle(correct)
    rng.shuffle(foil)
    return correct, foil


@dataclass
class PropertyData:
    prop: str
    detector: str
    kept: list[str]  # raw generated items, in suite order
    entries: dict[str, dict]  # value -> candidates.jsonl record
    batches: list[str]


def _property_data(prop: str, detector: str, workload: Workload, systems: list[System],
                   seed: int, tag: str) -> PropertyData:
    rng = random.Random(f"{tag}:{seed}:{prop}")
    per_value = 5 if detector == "contrastive" else 3
    distinct = _distinct_values(prop, max(1, workload.cases // per_value), rng)
    order = distinct + [rng.choice(distinct) for _ in range(workload.cases - len(distinct))]
    rng.shuffle(order)
    # Sentence lengths spread evenly over 10-30 tokens, in seeded order.
    lengths = [10 + (21 * i) // len(order) for i in range(len(order))]
    rng.shuffle(lengths)
    used: set[str] = set()
    kept = [_sentence(v, n, rng, used) for v, n in zip(order, lengths)]
    phantoms = [_mapped_system("", "tr", rng) for _ in range(workload.systems + 2)]
    entries = {}
    if detector == "contrastive":
        for value in distinct:
            correct, foil = contrastive_entry(value, systems, phantoms, rng)
            entries[value] = {"value": value, "correct": correct, "foil": foil}
    else:
        rates = _rates(workload, rng)
        for value in distinct:
            entries[value] = {
                "value": value,
                "candidates": exhaustive_entry(value, systems, phantoms, rates, rng),
            }
    return PropertyData(prop, detector, kept, entries, generation_batches(kept, rng))


def _preset(src: Path) -> tuple[dict, Path]:
    path = src / "mtbehave" / "presets" / "en_de.yaml"
    return yaml.safe_load(path.read_text(encoding="utf-8")), path.parent


def _config(workload: Workload, seed: int, preset: dict, systems: list[System]) -> dict:
    props = {p["id"]: p for p in preset["properties"]}
    return {
        "workspace": "workspace",
        "seed": seed,
        "target_count": workload.cases,
        "stats": {"k": 1000, "alpha": 0.05},
        "tokenizer": {"mode": "whitespace", "strip_edge_punct": True},
        "detection": {"token_boundary": False},
        "providers": {
            "llm": {"kind": "replay", "replay_dir": "replays"},
            "embedder": {"kind": "hash", "dim": 32},
        },
        "properties": [props[p] for p in workload.properties],
        "systems": [{"id": s.system_id, "kind": "command", "command": s.command} for s in systems],
    }


def _write_jsonl(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def suite_rows(data: PropertyData):
    for i, raw in enumerate(data.kept):
        start = raw.index("[")
        value = raw[start + 1 : raw.index("]")]
        yield {
            "id": f"{data.prop}-{i:05d}",
            "property_id": data.prop,
            "raw": raw,
            "source": raw.replace("[", "").replace("]", ""),
            "value": value,
            "value_span": [start, start + len(value)],
        }


def _edits(data: PropertyData, systems: list[System], rng: random.Random) -> list[dict]:
    """One value in ten gets a candidate added and, where the set keeps one,
    a candidate removed."""
    edits = []
    for value in rng.sample(list(data.entries), len(data.entries) // 10):
        current = data.entries[value]["candidates"]
        folded = {c.casefold() for c in current}
        missing = [s.translate(value) for s in systems if s.translate(value).casefold() not in folded]
        remove = [rng.choice(current)] if len(current) > 1 else []
        if missing or remove:
            edits.append({"value": value, "add": missing[:1], "remove": remove})
    return edits


def _pad_replays(replays: Path, spec, data: PropertyData, seed: int) -> None:
    """Fill the replay directory up to PAPER_SCALE_REPLAYS files with candidate
    responses for values outside the suite. The replay provider's cost per
    call grows with the directory, so this keeps it at paper scale."""
    from mtbehave.generation import render_candidate_prompt
    from mtbehave.providers import write_replay_responses

    rng = random.Random(f"pad:{seed}")
    missing = PAPER_SCALE_REPLAYS - sum(1 for _ in replays.iterdir())
    extra = [v for v in _distinct_values(data.prop, missing + len(data.entries), rng)
             if v not in data.entries][:missing]
    for value in extra:
        write_replay_responses(replays, render_candidate_prompt(spec, value), [value])


@dataclass
class Fixture:
    root: Path
    workload: Workload
    systems: list[System]
    config_path: Path
    properties: dict[str, PropertyData]
    edits: list[dict]


def build_fixture(name: str, seed: int, root: Path, src: Path,
                  workload: Workload | None = None) -> Fixture:
    """Write the fixture of workload `name` for `seed` under `root`.

    `src` is the directory holding the `mtbehave` package; the preset and the
    prompt renderers come from there, so replay keys follow the program.
    """
    workload = workload or WORKLOADS[name]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    systems = make_systems(workload, rng)
    preset, preset_dir = _preset(src)
    config = _config(workload, seed, preset, systems)
    for prop in config["properties"]:
        for key in ("source_prompt", "candidate_prompt", "foil_prompt"):
            if key in prop:
                target = root / prop[key]
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(preset_dir / prop[key], target)
    config_path = root / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(config, sort_keys=False, allow_unicode=True), encoding="utf-8"
    )
    detectors = {p["id"]: p.get("detector", "exhaustive") for p in config["properties"]}
    data = [
        _property_data(p, detectors[p], workload, systems, seed, name)
        for p in workload.properties
    ]

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from mtbehave.config import load_config
    from mtbehave.generation import (
        render_candidate_prompt,
        render_contrastive_prompts,
        render_source_prompt,
    )
    from mtbehave.providers import write_replay_responses

    replays = root / "replays"
    replays.mkdir(exist_ok=True)
    specs = load_config(str(config_path))
    for d in data:
        spec = specs.property_by_id(d.prop)
        if "generate" in workload.commands:
            write_replay_responses(replays, render_source_prompt(spec), d.batches)
        if "candidates" in workload.commands:
            first_sentence: dict[str, str] = {}
            for row in suite_rows(d):
                first_sentence.setdefault(row["value"], row["source"])
            for value, entry in d.entries.items():
                if d.detector == "contrastive":
                    correct, foil = render_contrastive_prompts(spec, value, first_sentence[value])
                    write_replay_responses(replays, correct, [" | ".join(entry["correct"])])
                    write_replay_responses(replays, foil, [" | ".join(entry["foil"])])
                else:
                    prompt = render_candidate_prompt(spec, value)
                    write_replay_responses(replays, prompt, [" | ".join(entry["candidates"])])
        if workload.rerun:
            prop_dir = root / "workspace" / d.prop
            _write_jsonl(prop_dir / "suite.jsonl", suite_rows(d))
            _write_jsonl(prop_dir / "candidates.jsonl", d.entries.values())

    if "candidates" in workload.commands:
        _pad_replays(replays, specs.property_by_id(data[0].prop), data[0], seed)

    edits = []
    if workload.edit_property:
        d = next(d for d in data if d.prop == workload.edit_property)
        edits = _edits(d, systems, random.Random(f"{name}:{seed}:edits"))
        _write_jsonl(root / "edits.jsonl", edits)
    return Fixture(root, workload, systems, config_path, {d.prop: d for d in data}, edits)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the fixture to")
    parser.add_argument("--src", default="src", help="directory holding the mtbehave package")
    args = parser.parse_args(argv)
    build_fixture(args.workload, args.seed, Path(args.out), Path(args.src).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
