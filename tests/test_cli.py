"""End-to-end CLI: generate -> candidates -> run -> report, offline."""
from __future__ import annotations

import concurrent.futures
import errno
import hashlib
import importlib
import json
import os
import pkgutil
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mtbehave
from mtbehave import cli, model, runner
from mtbehave.cli import main
from mtbehave.config import RunConfig, load_config
from mtbehave.errors import (
    BracketParseError,
    ConfigError,
    DataInvariantError,
    MtBehaveError,
    NoCandidatesError,
    ProviderError,
)
from mtbehave.generation import (
    render_candidate_prompt,
    render_contrastive_prompts,
    render_source_prompt,
)
from mtbehave.detection import judge_contrastive, match_exhaustive
from mtbehave.model import (
    CandidateSet,
    ContrastivePair,
    TestCase,
    load_candidates,
    load_suite,
    load_translations,
    load_verdicts,
    save_candidates,
    save_suite,
    save_translations,
    save_verdicts,
)
from mtbehave.providers import HashEmbedder, replay_key, write_replay_responses

from conftest import OFFLINE_CONFIG_TEXT as CONFIG_TEXT
from conftest import build_offline_workspace


@pytest.fixture
def workspace(tmp_path):
    return build_offline_workspace(tmp_path)


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestGenerate:
    def test_generates_suites(self, workspace, capsys):
        assert run_cli("generate", "--config", str(workspace)) == 0
        out = capsys.readouterr().out
        assert "names: 6 cases" in out
        config = load_config(str(workspace))
        suite = load_suite(config.property_dir("names") / "suite.jsonl")
        assert len(suite) == 6
        assert suite[0].value == "Rafael Ortega"
        genlog = json.loads(
            (config.property_dir("names") / "genlog.json").read_text(encoding="utf-8")
        )
        assert genlog["emitted"] == genlog["kept"] + sum(
            genlog["rejected_by_reason"].values()
        )

    def test_byte_identical_reruns(self, workspace):
        run_cli("generate", "--config", str(workspace))
        config = load_config(str(workspace))
        suite_path = config.property_dir("names") / "suite.jsonl"
        first = suite_path.read_bytes()
        assert run_cli("generate", "--config", str(workspace)) == 0
        assert suite_path.read_bytes() == first

    def test_unknown_property_exit_1(self, workspace, capsys):
        assert run_cli("generate", "--config", str(workspace), "--property", "nope") == 1
        assert "nope" in capsys.readouterr().err

    def test_repeated_property_exit_1_before_any_call(self, workspace, capsys):
        argv = ["generate", "--config", str(workspace), "--property", "names"]
        assert run_cli(*argv, "--property", "idioms", "--property", "names") == 1
        assert "--property 'names' is given more than once" in capsys.readouterr().err
        assert not load_config(str(workspace)).workspace.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "seed must be >= 0"), ("--target", "0", "target_count must be >= 1")],
    )
    def test_out_of_range_override_exit_1_before_any_write(
        self, workspace, capsys, flag, value, message
    ):
        assert run_cli("generate", "--config", str(workspace), flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not load_config(str(workspace)).workspace.exists()

    def test_missing_replay_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG_TEXT, encoding="utf-8")
        (tmp_path / "replays").mkdir()
        assert run_cli("generate", "--config", str(config_path)) == 2

    def test_non_utf8_replay_file_exit_2_naming_it(self, workspace, capsys):
        config = load_config(str(workspace))
        names = config.property_by_id("names")
        replays = workspace.parent / "replays"
        path = replays / f"{replay_key(render_source_prompt(names))}.000.txt"
        path.write_bytes(b"- [Anna \xff] kam.\n")
        assert run_cli("generate", "--config", str(workspace), "--property", "names") == 2
        assert f"{path} is not UTF-8" in capsys.readouterr().err

    def test_batch_cap_exit_2_before_any_write(self, workspace, capsys):
        # The replay holds 6 names and then repeats them, so 8 are never reached.
        assert run_cli("generate", "--config", str(workspace), "--target", "8",
                       "--property", "names") == 2
        assert capsys.readouterr().err == (
            "provider error: property names: 6/8 cases after 4 batches\n"
        )
        assert not load_config(str(workspace)).workspace.exists()

    def test_target_flag_override(self, workspace):
        assert run_cli("generate", "--config", str(workspace), "--target", "4",
                       "--property", "names") == 0
        config = load_config(str(workspace))
        assert len(load_suite(config.property_dir("names") / "suite.jsonl")) == 4


class TestCandidates:
    def test_writes_both_shapes(self, workspace):
        run_cli("generate", "--config", str(workspace))
        assert run_cli("candidates", "--config", str(workspace)) == 0
        config = load_config(str(workspace))
        names = load_candidates(config.property_dir("names") / "candidates.jsonl")
        assert names["Rafael Ortega"].candidates == ("Rafael Ortega",)
        idioms = load_candidates(config.property_dir("idioms") / "candidates.jsonl")
        entry = idioms["break a leg"]
        assert "viel Glück" in entry.correct
        assert "brich dir ein Bein" in entry.foil

    def test_resume_skips_existing(self, workspace, capsys):
        run_cli("generate", "--config", str(workspace))
        run_cli("candidates", "--config", str(workspace), "--property", "names")
        capsys.readouterr()
        assert run_cli("candidates", "--config", str(workspace), "--property", "names") == 0
        assert "0 new candidate sets" in capsys.readouterr().out

    def test_na_value_flagged(self, workspace, tmp_path, capsys):
        run_cli("generate", "--config", str(workspace))
        config = load_config(str(workspace))
        names = config.property_by_id("names")
        # overwrite one value's replay with NA
        key_prompt = render_candidate_prompt(names, "Anna Maier")
        write_replay_responses(tmp_path / "replays", key_prompt, ["NA"])
        assert run_cli("candidates", "--config", str(workspace), "--property", "names") == 0
        out = capsys.readouterr().out
        assert "NA for 1 values: Anna Maier" in out
        summary = json.loads(
            (config.property_dir("names") / "candidates_summary.json").read_text()
        )
        assert summary["unanswerable"] == ["Anna Maier"]

    def test_empty_after_parse_value_flagged(self, workspace, tmp_path, capsys):
        run_cli("generate", "--config", str(workspace))
        config = load_config(str(workspace))
        names = config.property_by_id("names")
        key_prompt = render_candidate_prompt(names, "Anna Maier")
        write_replay_responses(tmp_path / "replays", key_prompt, [" | | "])
        assert run_cli("candidates", "--config", str(workspace), "--property", "names") == 0
        out = capsys.readouterr().out
        assert "empty after parse for 1 values: Anna Maier" in out
        summary = json.loads(
            (config.property_dir("names") / "candidates_summary.json").read_text()
        )
        assert summary["empty_after_parse"] == ["Anna Maier"]
        assert "Anna Maier" not in load_candidates(
            config.property_dir("names") / "candidates.jsonl"
        )

    def test_all_foils_overlapping_is_empty_after_parse(self, workspace, tmp_path, capsys):
        run_cli("generate", "--config", str(workspace))
        config = load_config(str(workspace))
        idioms = config.property_by_id("idioms")
        _, foil_prompt = render_contrastive_prompts(
            idioms, "hit the sack", "He decided to hit the sack early."
        )
        # The only foil is a correct entry in other case, so no foil is left.
        write_replay_responses(tmp_path / "replays", foil_prompt, ["Hit The Sack"])
        assert run_cli("candidates", "--config", str(workspace), "--property", "idioms") == 0
        assert "empty after parse for 1 values: hit the sack" in capsys.readouterr().out
        summary = json.loads(
            (config.property_dir("idioms") / "candidates_summary.json").read_text()
        )
        assert summary["empty_after_parse"] == ["hit the sack"]
        assert summary["generated"] == 2
        saved = load_candidates(config.property_dir("idioms") / "candidates.jsonl")
        assert list(saved) == ["break a leg", "spill the beans"]

    def test_requires_suite(self, workspace, capsys):
        assert run_cli("candidates", "--config", str(workspace)) == 1
        assert "generate" in capsys.readouterr().err

    def test_value_holding_a_slot_name_gets_its_own_set(self, workspace, tmp_path):
        config = load_config(str(workspace))
        names = config.property_by_id("names")
        raws = ["I ran [3 miles] today.", "She typed [{value}] twice."]
        save_suite(
            [TestCase(f"names-{i:05d}", "names", raw) for i, raw in enumerate(raws)],
            config.property_dir("names") / "suite.jsonl",
        )
        for value, answer in [("3 miles", "3 Meilen|drei Meilen"), ("{value}", "{value}")]:
            write_replay_responses(
                tmp_path / "replays", render_candidate_prompt(names, value), [answer]
            )
        assert run_cli("candidates", "--config", str(workspace), "--property", "names") == 0
        saved = load_candidates(config.property_dir("names") / "candidates.jsonl")
        assert saved["3 miles"].candidates == ("3 Meilen", "drei Meilen")
        assert saved["{value}"].candidates == ("{value}",)

    def test_suite_row_of_another_property_exit_3(self, workspace, capsys):
        run_cli("generate", "--config", str(workspace), "--property", "names")
        path = load_config(str(workspace)).property_dir("names") / "suite.jsonl"
        first, second, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = {**json.loads(second), "property_id": "idioms"}
        path.write_text(first + json.dumps(row) + "\n" + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("candidates", "--config", str(workspace), "--property", "names") == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: cases ['names-00001'] do not belong to property 'names'\n"
        )
        assert not (path.parent / "candidates.jsonl").exists()


def prime(workspace) -> None:
    assert run_cli("generate", "--config", str(workspace)) == 0
    assert run_cli("candidates", "--config", str(workspace)) == 0


class TestRun:
    def test_identity_names_mpr_one(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        assert run_cli(
            "run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir)
        ) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        names = report["properties"]["names"]["systems"]["identity"]
        assert names["mpr"] == 1.0
        assert names["ci"] == [1.0, 1.0]
        assert names["n"] == 6
        idioms = report["properties"]["idioms"]["systems"]["identity"]
        assert idioms["mpr"] == 1.0

    def test_verdicts_cover_every_case_and_system(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        verdicts = load_verdicts(out_dir / "verdicts.jsonl")
        keys = [(case_id, system_id) for case_id, system_id, *_ in verdicts]
        assert len(keys) == len(set(keys)) == 24  # 12 cases x 2 systems
        contrastive = [v for v in verdicts if v[0].startswith("idioms")]
        assert all(scores is not None for *_, scores in contrastive)

    def test_two_systems_comparisons_present(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        comparisons = report["properties"]["names"]["comparisons"]
        assert len(comparisons) == 1
        assert comparisons[0]["winner"] == "identity"
        assert comparisons[0]["p_value"] == 0.0
        text = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert "Model A" in text and "Winner" in text

    def test_byte_identical_runs(self, workspace, tmp_path):
        prime(workspace)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("run", "--config", str(workspace), "--out", str(out1))
        run_cli("run", "--config", str(workspace), "--out", str(out2))
        for name in ("verdicts.jsonl", "report.json", "report.txt",
                     "translations/identity.jsonl", "translations/mangler.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_artifact_key_order(self, workspace, tmp_path):
        # Both files are written from dict literals, so key order is part of their bytes.
        prime(workspace)
        out_dir = tmp_path / "run1"
        assert run_cli("run", "--config", str(workspace), "--out", str(out_dir)) == 0
        config = load_config(str(workspace))
        for prop_id in ("names", "idioms"):
            genlog = json.loads(
                (config.property_dir(prop_id) / "genlog.json").read_text(encoding="utf-8")
            )
            assert list(genlog) == [
                "property_id", "emitted", "kept", "rejected_by_reason", "truncated",
                "batches", "accepted", "value_counts",
            ]
            assert genlog["batches"] and genlog["accepted"]
            for batch in genlog["batches"]:
                assert list(batch) == ["emitted", "kept", "chatter", "rejected_by_reason"]
            for accepted in genlog["accepted"]:
                assert list(accepted) == ["id", "batch", "value"]
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert list(report) == ["properties"]
        assert list(report["properties"]) == ["names", "idioms"]
        for entry in report["properties"].values():
            assert list(entry) == [
                "property_id", "detector", "k", "alpha", "seed", "systems", "comparisons",
                "metadata",
            ]
            assert list(entry["systems"]) == ["identity", "mangler"]
            for stats in entry["systems"].values():
                assert list(stats) == [
                    "mpr", "ci", "n", "values", "passes", "fails", "k", "alpha", "seed",
                ]
            assert entry["comparisons"]
            for comparison in entry["comparisons"]:
                assert list(comparison) == ["a", "b", "winner", "p_value", "significant"]
            assert list(entry["metadata"]) == [
                "suite_sha256", "candidates_sha256", "tokenizer", "token_boundary",
            ]

    def test_superseded_cache_files_named_in_one_warning(self, workspace, tmp_path, caplog):
        prime(workspace)
        config = load_config(str(workspace))
        cache_dir = config.workspace / "cache" / "translations"
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "r1")) == 0
        old = f"{config.system_by_id('mangler').cache_name}.jsonl"
        legacy = cache_dir / "identity.jsonl"
        legacy.write_text("", encoding="utf-8")
        workspace.write_text(
            workspace.read_text(encoding="utf-8").replace("s/a/x/g", "s/e/x/g"), encoding="utf-8"
        )
        caplog.clear()
        # Only identity runs, but mangler's file is judged against its new command.
        assert run_cli(
            "run", "--config", str(workspace), "--system", "identity", "--out", str(tmp_path / "r2")
        ) == 0
        [warning] = [r for r in caplog.records if r.levelname == "WARNING"]
        assert f"identity.jsonl, {old}" in warning.getMessage()
        assert "may be deleted" in warning.getMessage()
        assert (cache_dir / old).exists() and legacy.exists()

    def test_current_cache_files_raise_no_warning(self, workspace, tmp_path, caplog):
        prime(workspace)
        for run in ("r1", "r2"):
            assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / run)) == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_run_leaves_numpy_ma_unimported(self, workspace, tmp_path):
        prime(workspace)
        argv = ["run", "--config", str(workspace), "--offline", "--out", str(tmp_path / "r")]
        # Modules `import numpy` loads by itself (numpy 1.x loads both) are not run's doing.
        code = (
            "import sys, numpy; from mtbehave.cli import main; "
            "absent = [m for m in ('numpy.ma', 'numpy.random') if m not in sys.modules]; "
            f"code = main({argv!r}); print(code, [m for m in absent if m in sys.modules])"
        )
        src = str(Path(mtbehave.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_file_system_read_once_per_run(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        config = load_config(str(workspace))
        save_translations(
            (
                (case.id, "stored", case.source)
                for spec in config.properties
                for case in load_suite(config.property_dir(spec.id) / "suite.jsonl")
            ),
            tmp_path / "stored.jsonl",
        )
        with open(workspace, "a", encoding="utf-8") as fh:
            fh.write("  - id: stored\n    kind: file\n    path: stored.jsonl\n")
        loads = []
        monkeypatch.setattr(
            runner, "load_translations", lambda path: loads.append(path) or load_translations(path)
        )
        out_dir = tmp_path / "run1"
        assert run_cli(
            "run", "--config", str(workspace), "--system", "stored", "--out", str(out_dir)
        ) == 0
        assert len(loads) == 1  # two properties, one read
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["properties"]["names"]["systems"]["stored"]["mpr"] == 1.0

    def test_missing_file_system_path_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        with open(workspace, "a", encoding="utf-8") as fh:
            fh.write("  - id: stored\n    kind: file\n    path: absent.jsonl\n")
        assert run_cli(
            "run", "--config", str(workspace), "--system", "stored", "--out", str(tmp_path / "r")
        ) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'absent.jsonl'}: cannot read (No such file or directory)" in err

    def test_warm_run_hashes_each_source_once(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "cold")) == 0
        config = load_config(str(workspace))
        sources = {
            case.source.encode("utf-8")
            for spec in config.properties
            for case in load_suite(config.property_dir(spec.id) / "suite.jsonl")
        }
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data=b"", **kwargs):
            hashed.append(data)
            return real_sha256(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "warm")) == 0
        assert len(config.systems) == 2
        assert sorted(d for d in hashed if d in sources) == sorted(sources)

    def test_warm_run_reads_each_cache_file_once(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "cold")) == 0
        config = load_config(str(workspace))
        cache_dir = config.workspace / "cache" / "translations"
        reads = []

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads.append(Path(file))
            return open(file, mode, *args, **kwargs)

        # Every file read of the package goes through `model`.
        monkeypatch.setattr(model, "open", counting_open, raising=False)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "warm")) == 0
        cached = sorted(path for path in reads if path.parent == cache_dir)
        assert len(cached) == 2 and cached == sorted(cache_dir.glob("*.jsonl"))
        # Each input is read once too: its sha256 in the report comes from the loaded bytes.
        inputs = [
            config.property_dir(spec.id) / name
            for spec in config.properties
            for name in ("suite.jsonl", "candidates.jsonl")
        ]
        assert set(inputs) <= set(reads)
        assert len(reads) == len(set(reads)), sorted(map(str, reads))

    @pytest.mark.parametrize("order", [("full", "partial"), ("partial", "full")])
    def test_missing_candidate_count_is_the_union_over_systems(self, workspace, tmp_path, order):
        prime(workspace)
        config = load_config(str(workspace))
        prop_dir = config.property_dir("idioms")
        suite = load_suite(prop_dir / "suite.jsonl")
        candidates = load_candidates(prop_dir / "candidates.jsonl")
        del candidates["break a leg"]
        save_candidates(candidates.values(), prop_dir / "candidates.jsonl")
        # "partial" lacks the second "break a leg" case, so it misses one case, "full" two.
        skipped = [c.id for c in suite if c.value == "break a leg"][1]
        for system in ("full", "partial"):
            save_translations(
                (
                    (c.id, system, c.source)
                    for c in suite
                    if system == "full" or c.id != skipped
                ),
                tmp_path / f"{system}.jsonl",
            )
            with open(workspace, "a", encoding="utf-8") as fh:
                fh.write(f"  - id: {system}\n    kind: file\n    path: {system}.jsonl\n")
        out_dir = tmp_path / "run1"
        systems = [arg for system in order for arg in ("--system", system)]
        assert run_cli(
            "run", "--config", str(workspace), "--property", "idioms", *systems,
            "--out", str(out_dir),
        ) == 0
        meta = json.loads((out_dir / "runmeta.json").read_text(encoding="utf-8"))
        assert meta["missing_candidates"] == {"idioms": {"break a leg": 2}}

    def test_missing_candidates_exit_1(self, workspace, capsys):
        run_cli("generate", "--config", str(workspace))
        assert run_cli("run", "--config", str(workspace)) == 1
        assert "candidates" in capsys.readouterr().err

    def test_k_beyond_the_bootstrap_bound_exit_1_before_translating(
        self, workspace, tmp_path, capsys
    ):
        prime(workspace)
        out = tmp_path / "run1"
        assert run_cli("run", "--config", str(workspace), "--k", str(2**32), "--out", str(out)) == 1
        assert "k must be in [1, 2**32)" in capsys.readouterr().err
        assert not (load_config(str(workspace)).workspace / "cache").exists()
        assert not out.exists()

    @pytest.mark.parametrize("flag, repeated", [("--property", "names"), ("--system", "identity")])
    def test_repeated_id_exit_1_before_any_write(self, workspace, tmp_path, capsys, flag, repeated):
        prime(workspace)
        out = tmp_path / "run1"
        argv = ["run", "--config", str(workspace), "--out", str(out), flag, repeated]
        assert run_cli(*argv, flag, repeated) == 1
        assert f"{flag} {repeated!r} is given more than once" in capsys.readouterr().err
        assert not (load_config(str(workspace)).workspace / "cache").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "pair, systems, code",
        [("[en, ja]", [], 1), ("[en, ja]", ["--system", "mangler"], 0), ("[en, de]", [], 0)],
    )
    def test_system_of_another_language_pair_exit_1_before_any_call(
        self, workspace, tmp_path, capsys, monkeypatch, pair, systems, code
    ):
        prime(workspace)
        text = workspace.read_text(encoding="utf-8")
        text = text.replace("command: cat\n", f"command: cat\n    language_pair: {pair}\n")
        workspace.write_text(text, encoding="utf-8")
        out = tmp_path / "run1"
        argv = ["run", "--config", str(workspace), "--out", str(out), *systems]
        if code == 0:  # a matching pair, or a selected system with no pair, is judged
            assert run_cli(*argv) == 0
            return
        monkeypatch.setattr(cli, "translate_all", lambda *a, **k: pytest.fail("translated"))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "error: system 'identity' translates en-ja, but property 'names' is en-de\n"
        )
        assert not out.exists()

    def test_runmeta_holds_timestamp_not_report(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        meta = json.loads((out_dir / "runmeta.json").read_text(encoding="utf-8"))
        assert "timestamp_utc" in meta
        report_text = (out_dir / "report.json").read_text(encoding="utf-8")
        assert "timestamp" not in report_text

    def test_candidates_of_one_match_form_exit_3_naming_the_line(self, workspace, tmp_path, capsys):
        prime(workspace)
        path = load_config(str(workspace)).property_dir("names") / "candidates.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        entry = {"value": json.loads(first)["value"], "candidates": ["5 km", "5\u00a0km"]}
        path.write_text(json.dumps(entry) + "\n" + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "run1")) == 3
        assert f"{path}:1: malformed record" in capsys.readouterr().err

    def test_empty_candidate_set_exit_3_naming_the_line(self, workspace, tmp_path, capsys):
        prime(workspace)
        path = load_config(str(workspace)).property_dir("names") / "candidates.jsonl"
        rest = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        path.write_text('{"value": "v", "candidates": []}\n' + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "run1")) == 3
        assert f"{path}:1: malformed record (candidate set for 'v' is empty)" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "systems, flags, message",
        [("systems: []\n", [], "no systems configured"),
         (None, ["--system", "nope"], "unknown system id 'nope'")],
        ids=["none-configured", "unknown"],
    )
    def test_no_system_to_run_exit_1_before_any_write(
        self, workspace, tmp_path, capsys, systems, flags, message
    ):
        prime(workspace)
        if systems is not None:
            text = workspace.read_text(encoding="utf-8")
            workspace.write_text(text[: text.index("systems:")] + systems, encoding="utf-8")
        out = tmp_path / "run1"
        capsys.readouterr()
        assert run_cli("run", "--config", str(workspace), "--out", str(out), *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (load_config(str(workspace)).workspace / "cache").exists()
        assert not out.exists()


def add_system(workspace, system_id: str, command: str) -> None:
    with open(workspace, "a", encoding="utf-8") as fh:
        fh.write(f"  - id: {system_id}\n    kind: command\n    command: \"{command}\"\n")


class Hooked:
    """A built adapter whose `translate` goes through `hook(system_id, call)`."""

    def __init__(self, inner, hook):
        self.system_id, self.cache_name = inner.system_id, inner.cache_name
        self._inner, self._hook = inner, hook

    def translate(self, sources):
        return self._hook(self.system_id, lambda: self._inner.translate(sources))


def hook_adapters(monkeypatch, hook) -> None:
    real = RunConfig.build_adapter
    monkeypatch.setattr(
        RunConfig, "build_adapter", lambda self, spec: Hooked(real(self, spec), hook)
    )


class SerialExecutor:
    """A stand-in for ThreadPoolExecutor that makes each call in turn, in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


RUN_ARTIFACTS = ("report.json", "verdicts.jsonl") + tuple(
    f"translations/{s}.jsonl" for s in ("identity", "mangler", "upper")
)


class TestRunTwoPhases:
    """`run` makes one adapter call per system, all side by side, then judges."""

    def test_adapter_calls_overlap(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        add_system(workspace, "upper", "tr a-z A-Z")
        barrier = threading.Barrier(3, timeout=5)
        calls = []

        def hook(system_id, call):
            calls.append(system_id)
            barrier.wait()  # broken, so raising, unless all three calls are in flight
            return call()

        hook_adapters(monkeypatch, hook)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "r")) == 0
        assert sorted(calls) == ["identity", "mangler", "upper"]  # one call per system

    def test_reverse_finish_order_changes_no_file(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        add_system(workspace, "upper", "tr a-z A-Z")
        cache_dir = load_config(str(workspace)).workspace / "cache" / "translations"
        order = ["identity", "mangler", "upper"]
        finished = {system_id: threading.Event() for system_id in order}
        done = []

        def hook(system_id, call):
            position = order.index(system_id)
            if position + 1 < len(order):
                assert finished[order[position + 1]].wait(5)  # the next system ends first
            try:
                return call()
            finally:
                done.append(system_id)
                finished[system_id].set()

        with monkeypatch.context() as m:
            hook_adapters(m, hook)
            out = tmp_path / "reversed"
            assert run_cli("run", "--config", str(workspace), "--out", str(out)) == 0
        assert done == order[::-1]
        reversed_files = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        reversed_cache = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        shutil.rmtree(cache_dir)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
        out = tmp_path / "serial"
        assert run_cli("run", "--config", str(workspace), "--out", str(out)) == 0
        assert {name: (out / name).read_bytes() for name in RUN_ARTIFACTS} == reversed_files
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == reversed_cache

    def test_failing_command_system_is_recorded_and_excluded(
        self, workspace, tmp_path, caplog
    ):
        prime(workspace)
        good = tmp_path / "good"
        assert run_cli("run", "--config", str(workspace), "--out", str(good)) == 0
        add_system(workspace, "broken", "false")
        caplog.clear()
        out = tmp_path / "with-broken"
        assert run_cli("run", "--config", str(workspace), "--out", str(out)) == 0
        meta = json.loads((out / "runmeta.json").read_text(encoding="utf-8"))
        assert meta["translation_failures"] == {"broken": 12}  # both properties' cases
        assert (out / "translations" / "broken.jsonl").read_bytes() == b""
        for name in RUN_ARTIFACTS[:4]:
            assert (out / name).read_bytes() == (good / name).read_bytes(), name
        messages = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m for m in messages if "failed translation" in m] == [
            "system broken: 12/12 cases failed translation and are excluded"
        ]

    def test_warm_run_starts_no_thread(self, workspace, tmp_path, monkeypatch):
        prime(workspace)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "cold")) == 0
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("pool")
        )
        threads = threading.active_count()
        seen = []

        def hook(system_id, call):
            seen.append((system_id, threading.active_count()))
            return call()

        hook_adapters(monkeypatch, hook)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "warm")) == 0
        assert seen == []
        # One system with cases left is called from the calling thread.
        add_system(workspace, "upper", "tr a-z A-Z")
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "one")) == 0
        assert seen == [("upper", threads)]


TABLE_WORDS = ("Meilen", "mi", "Milch", "km", "viel", "Glück", "Bein", "brich", "dir", "gut!", "3")


def _table_config(token_boundary: bool, systems: list[str]) -> str:
    system_lines = "".join(
        f"  - id: {s}\n    kind: file\n    path: {s}.jsonl\n" for s in systems
    )
    return (
        "workspace: workspace\nseed: 9\nstats: {k: 40, alpha: 0.05}\n"
        "providers:\n  embedder: {kind: hash, dim: 16}\n"
        f"detection: {{token_boundary: {str(token_boundary).lower()}}}\n"
        "properties:\n"
        "  - id: units\n    name: unit\n    detector: exhaustive\n    language_pair: [en, de]\n"
        "    demos: ['I ran 3 [miles] today.']\n"
        "  - id: idioms\n    name: idiom\n    detector: contrastive\n    language_pair: [en, de]\n"
        "    demos: ['Good [break a leg] now.']\n"
        f"systems:\n{system_lines}"
    )


class TestRunTable:
    """`run` judges each property as one (system x case) table; its verdicts
    equal the detectors' run on one-element tables, cell by cell, system by system."""

    @pytest.mark.parametrize("token_boundary", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_verdicts_equal_one_case_calls(self, tmp_path, seed, token_boundary):
        rng = random.Random(f"table:{seed}:{token_boundary}")
        systems = [f"sys{i}" for i in range(4)]
        config_path = tmp_path / "config.yaml"
        config_path.write_text(_table_config(token_boundary, systems), encoding="utf-8")
        config = load_config(str(config_path))

        def phrase(lo, hi):
            return " ".join(rng.choices(TABLE_WORDS, k=rng.randint(lo, hi)))

        suites, entries = {}, {}
        for spec in config.properties:
            values = [f"v{i}" for i in range(8)]
            raws = [f"Case {i} is [{v}] here." for i, v in enumerate(rng.choices(values, k=40))]
            suite = [TestCase(f"{spec.id}-{i:05d}", spec.id, raw) for i, raw in enumerate(raws)]
            by_value = {}
            for value in values[:6]:  # the last two values have no candidates
                if spec.detector == "exhaustive":
                    cands = tuple(dict.fromkeys(rng.sample(TABLE_WORDS, rng.randint(1, 3))))
                    by_value[value] = CandidateSet(value, cands)
                else:
                    words = rng.sample(TABLE_WORDS, 4)
                    by_value[value] = ContrastivePair(value, (words[0], words[1]), tuple(words[2:]))
            save_suite(suite, config.property_dir(spec.id) / "suite.jsonl")
            save_candidates(by_value.values(), config.property_dir(spec.id) / "candidates.jsonl")
            suites[spec.id], entries[spec.id] = suite, by_value
        # Each system leaves some cases untranslated; sys3 translates no idiom.
        translations = {
            system: {
                case.id: phrase(0, 6)
                for spec in config.properties
                for case in suites[spec.id]
                if rng.random() < 0.8 and not (system == "sys3" and spec.id == "idioms")
            }
            for system in systems
        }
        for system, texts in translations.items():
            save_translations(
                [(cid, system, t) for cid, t in texts.items()],
                tmp_path / f"{system}.jsonl",
            )

        out = tmp_path / "run"
        assert run_cli("run", "--config", str(config_path), "--offline", "--out", str(out)) == 0

        embedder = HashEmbedder(dim=16)
        expected = []
        for spec in config.properties:
            for system in systems:
                for case in suites[spec.id]:
                    text = translations[system].get(case.id)
                    entry = entries[spec.id].get(case.value)
                    if text is None or entry is None:
                        continue
                    if spec.detector == "exhaustive":
                        [passed], [matched] = match_exhaustive(
                            [entry], [text], token_boundary=token_boundary
                        )
                        expected.append((case.id, system, passed, matched, None))
                    else:
                        [scores] = judge_contrastive([text], [entry], embedder, config.tokenizer)
                        passed = scores[0] >= scores[1]
                        expected.append((case.id, system, passed, None, tuple(scores)))
        save_verdicts(expected, tmp_path / "expected.jsonl")
        assert (out / "verdicts.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        assert load_verdicts(out / "verdicts.jsonl") == expected
        passes = {passed for _, _, passed, _, _ in expected}
        assert passes == {True, False}
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert list(report["properties"]["idioms"]["systems"]) == systems[:3]
        meta = json.loads((out / "runmeta.json").read_text(encoding="utf-8"))
        assert set(meta["missing_candidates"]) == {"units", "idioms"}
        for system in systems:
            with open(out / "translations" / f"{system}.jsonl", encoding="utf-8") as fh:
                written = {json.loads(line)["case_id"]: json.loads(line)["translation"] for line in fh}
            assert written == translations[system]


class TestCompare:
    def test_table_output(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        capsys.readouterr()
        assert run_cli(
            "compare", "--report", str(out_dir / "report.json"), "identity", "mangler",
            "--property", "names",
        ) == 0
        out = capsys.readouterr().out
        assert "Model A" in out and "Model B" in out and "Winner" in out
        assert "identity" in out and "0.000" in out and "significant" in out

    def test_identical_systems_not_significant(self, workspace, tmp_path, capsys):
        prime(workspace)
        config_text = CONFIG_TEXT.replace(
            'command: "sed -e s/a/x/g"', "command: cat"
        )
        twin_config = Path(str(workspace)).with_name("twins.yaml")
        twin_config.write_text(config_text, encoding="utf-8")
        out_dir = tmp_path / "run-twins"
        run_cli("run", "--config", str(twin_config), "--out", str(out_dir))
        capsys.readouterr()
        run_cli(
            "compare", "--report", str(out_dir / "report.json"), "identity", "mangler",
            "--property", "names",
        )
        out = capsys.readouterr().out
        assert "0.500" in out
        assert "not significant" in out

    def test_unknown_system_exit_1(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        assert run_cli(
            "compare", "--report", str(out_dir / "report.json"), "identity", "ghost"
        ) == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "properties, message",
        [(["nope"], "error: report has no properties ['nope']"),
         (["names", "names"], "usage error: --property 'names' is given more than once")],
        ids=["unknown", "repeated"],
    )
    def test_unknown_or_repeated_property_exit_1(
        self, workspace, tmp_path, capsys, properties, message
    ):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        capsys.readouterr()
        flags = [arg for p in properties for arg in ("--property", p)]
        report = str(out_dir / "report.json")
        assert run_cli("compare", "--report", report, *flags, "identity", "mangler") == 1
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize(
        "body",
        [
            "{bad\n",
            "[1, 2]\n",
            '"report"\n',
            "\xff\n",
            '{"properties": []}\n',
            '{"properties": {"p": {"systems": {"identity": {}, "mangler": {}}, '
            '"comparisons": [{"a": "identity"}]}}}\n',
            "{}\n",
            '{"properties": {}}\n',
            '{"properties": {"p": {}}}\n',
        ],
    )
    def test_malformed_report_exit_3(self, tmp_path, capsys, body):
        report_path = tmp_path / "report.json"
        report_path.write_bytes(body.encode("latin-1"))
        assert run_cli("compare", "--report", str(report_path), "identity", "mangler") == 3
        assert str(report_path) in capsys.readouterr().err


class TestDiversity:
    def test_series_file(self, workspace, capsys):
        run_cli("generate", "--config", str(workspace))
        assert run_cli("diversity", "--config", str(workspace), "--property", "names") == 0
        config = load_config(str(workspace))
        data = json.loads(
            (config.property_dir("names") / "diversity.json").read_text(encoding="utf-8")
        )
        assert data["n"] == 3
        assert data["series"][0] == 1.0
        assert all(v is None or 0.0 <= v <= 1.0 for v in data["series"])
        assert data["trend"]["degree"] == 2

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--degree", "-1")])
    def test_out_of_range_flag_is_a_usage_error(self, workspace, capsys, flag, value):
        run_cli("generate", "--config", str(workspace), "--property", "names")
        capsys.readouterr()
        assert run_cli(
            "diversity", "--config", str(workspace), "--property", "names", flag, value
        ) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag} must be >=")
        config = load_config(str(workspace))
        assert not (config.property_dir("names") / "diversity.json").exists()

    def test_single_sentence_suite(self, workspace, tmp_path):
        run_cli("generate", "--config", str(workspace), "--property", "names", "--target", "1")
        assert run_cli(
            "diversity", "--config", str(workspace), "--property", "names", "--degree", "0"
        ) == 0
        config = load_config(str(workspace))
        data = json.loads(
            (config.property_dir("names") / "diversity.json").read_text(encoding="utf-8")
        )
        assert data["series"] == [1.0]


class TestAnnotateAndApplyEdits:
    def test_review_file_and_edit_loop(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity",
                "--out", str(out_dir))
        capsys.readouterr()
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir),
            "--property", "names", "--system", "identity", "--k", "2",
        ) == 0
        review_path = out_dir / "review_names_identity.jsonl"
        rows = [json.loads(l) for l in review_path.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 2  # identity passes everything; fail stratum is empty
        assert {"case_id", "source", "value", "translation", "pass", "candidates",
                "annotation"} <= set(rows[0])

        # annotate one row as incorrect, then apply an edit plus the tallies
        rows[0]["annotation"] = "incorrect"
        rows[1]["annotation"] = "correct"
        review_path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
        )
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(review_path),
        ) == 0
        out = capsys.readouterr().out
        assert "FP 1/2 passes" in out
        config = load_config(str(workspace))
        updated = load_candidates(config.property_dir("names") / "candidates.jsonl")
        assert "Señor Ortega" in updated["Rafael Ortega"].candidates
        audit = (config.property_dir("names") / "candidates_audit.log").read_text()
        assert "Señor Ortega" in audit

    def test_fixed_seed_reproducible_review(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity",
                "--out", str(out_dir))
        run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                "--property", "names", "--system", "identity", "--k", "3")
        review_path = out_dir / "review_names_identity.jsonl"
        first = review_path.read_bytes()
        run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                "--property", "names", "--system", "identity", "--k", "3")
        assert review_path.read_bytes() == first

    def test_contrastive_review_rows_carry_the_run_scores(self, workspace, tmp_path):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir))
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir),
            "--property", "idioms", "--system", "identity", "--k", "2",
        ) == 0
        review = out_dir / "review_idioms_identity.jsonl"
        rows = [json.loads(line) for line in review.read_text(encoding="utf-8").splitlines()]
        verdicts = (out_dir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
        scores = {v["case_id"]: v.get("scores") for v in map(json.loads, verdicts)}
        assert len(rows) == 2
        for row in rows:
            assert row["scores"] == scores[row["case_id"]]
            assert {"correct", "foil"} <= set(row) and "matched_candidate" not in row

    @pytest.mark.parametrize(
        "flags, message",
        [(["--system", "nope"], "no verdicts for system 'nope'"), ([], "pick one with --system")],
    )
    def test_system_not_in_the_run_or_not_picked_exit_1(
        self, workspace, tmp_path, capsys, flags, message
    ):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        capsys.readouterr()
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir),
            "--property", "names", *flags,
        ) == 1
        assert message in capsys.readouterr().err
        assert not list(out_dir.glob("review_*"))

    def test_property_not_judged_by_the_run_exit_1(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        assert run_cli(
            "run", "--config", str(workspace), "--property", "names", "--system", "identity",
            "--out", str(out_dir),
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir), "--property", "idioms",
        ) == 1
        assert f"property 'idioms' was not judged by the run in {out_dir}" in capsys.readouterr().err
        assert not list(out_dir.glob("review_*"))

    def test_candidates_edited_after_the_run_exit_3(self, workspace, tmp_path, capsys):
        # The run judged "Mina Park" without "Minx Pxrk"; pairing its verdicts with
        # the edited list would show a fail row whose translation holds a candidate.
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Mina Park", "add": ["Minx Pxrk"]}) + "\n", encoding="utf-8"
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 0
        capsys.readouterr()
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir),
            "--property", "names", "--system", "mangler",
        ) == 3
        err = capsys.readouterr().err
        candidates_path = load_config(str(workspace)).property_dir("names") / "candidates.jsonl"
        assert f"property 'names': {candidates_path} has changed since the run" in err
        assert not list(out_dir.glob("review_*"))

    def test_suite_changed_after_the_run_exit_3_before_any_review(
        self, workspace, tmp_path, capsys
    ):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir))
        suite_path = load_config(str(workspace)).property_dir("idioms") / "suite.jsonl"
        save_suite(load_suite(suite_path)[:-1], suite_path)
        capsys.readouterr()
        # "names" is unchanged and comes first, but no review file is written for it.
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir),
            "--system", "identity",
        ) == 3
        assert f"property 'idioms': {suite_path} has changed" in capsys.readouterr().err
        assert not list(out_dir.glob("review_*"))

    @pytest.mark.parametrize(
        "report, code, message",
        [(None, 1, "report.json not found"), ("{bad", 3, "malformed report"),
         ('{"properties": {"names": {}}}', 3, "malformed report")],
    )
    def test_run_report_missing_or_malformed(self, workspace, tmp_path, capsys, report, code, message):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir))
        report_path = out_dir / "report.json"
        if report is None:
            report_path.unlink()
        else:
            report_path.write_text(report, encoding="utf-8")
        capsys.readouterr()
        assert run_cli(
            "annotate", "--config", str(workspace), "--run", str(out_dir), "--property", "names",
        ) == code
        assert message in capsys.readouterr().err
        assert not list(out_dir.glob("review_*"))

    def test_missing_review_file_exit_1_before_any_edit(self, workspace, tmp_path, capsys):
        prime(workspace)
        config = load_config(str(workspace))
        candidates_path = config.property_dir("names") / "candidates.jsonl"
        before = candidates_path.read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n",
            encoding="utf-8",
        )
        missing = tmp_path / "nonexistent.jsonl"
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(missing),
        ) == 1
        assert str(missing) in capsys.readouterr().err
        assert candidates_path.read_bytes() == before
        assert not (config.property_dir("names") / "candidates_audit.log").exists()

    def test_non_string_annotation_exit_3_before_any_edit(self, workspace, tmp_path, capsys):
        prime(workspace)
        config = load_config(str(workspace))
        candidates_path = config.property_dir("names") / "candidates.jsonl"
        before = candidates_path.read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n",
            encoding="utf-8",
        )
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(
            '{"pass": true, "annotation": "correct"}\n{"pass": true, "annotation": 1}\n',
            encoding="utf-8",
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(review_path),
        ) == 3
        assert f"{review_path}:2" in capsys.readouterr().err
        assert candidates_path.read_bytes() == before

    @pytest.mark.parametrize(
        "row",
        ['{"pass": "false", "annotation": "incorrect"}', '{"annotation": "incorrect"}'],
        ids=["string", "missing"],
    )
    def test_non_boolean_review_pass_exit_3_before_any_edit(
        self, workspace, tmp_path, capsys, row
    ):
        prime(workspace)
        config = load_config(str(workspace))
        candidates_path = config.property_dir("names") / "candidates.jsonl"
        before = candidates_path.read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n",
            encoding="utf-8",
        )
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(
            '{"pass": false, "annotation": "incorrect"}\n' + row + "\n", encoding="utf-8"
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(review_path),
        ) == 3
        err = capsys.readouterr().err
        assert f"{review_path}:2" in err and "'pass'" in err
        assert candidates_path.read_bytes() == before
        assert not (config.property_dir("names") / "candidates_audit.log").exists()

    def test_annotation_is_stripped_and_case_folded(self, workspace, tmp_path, capsys):
        prime(workspace)
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(json.dumps({"value": "Rafael Ortega"}) + "\n", encoding="utf-8")
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(
            '{"pass": true, "annotation": "Incorrect "}\n{"pass": true, "annotation": "CORRECT"}\n'
            '{"pass": false, "annotation": " incorrect"}\n{"pass": false, "annotation": " "}\n',
            encoding="utf-8",
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(review_path),
        ) == 0
        assert "FP 1/2 passes, FN 1/1 fails" in capsys.readouterr().out

    def test_unknown_annotation_exit_3_before_any_edit(self, workspace, tmp_path, capsys):
        prime(workspace)
        config = load_config(str(workspace))
        candidates_path = config.property_dir("names") / "candidates.jsonl"
        before = candidates_path.read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n",
            encoding="utf-8",
        )
        review_path = tmp_path / "review.jsonl"
        review_path.write_text(
            '{"pass": true, "annotation": "correct"}\n{"pass": true, "annotation": "wrong"}\n',
            encoding="utf-8",
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path), "--review", str(review_path),
        ) == 3
        err = capsys.readouterr().err
        assert f"{review_path}:2" in err and "'wrong'" in err
        assert candidates_path.read_bytes() == before
        assert not (config.property_dir("names") / "candidates_audit.log").exists()

    def test_annotate_k_below_one_is_a_usage_error(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity",
                "--out", str(out_dir))
        capsys.readouterr()
        assert run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                       "--property", "names", "--system", "identity", "--k", "0") == 1
        assert capsys.readouterr().err.startswith("usage error: --k must be >= 1")
        assert not list(out_dir.glob("review_*"))

    def test_annotate_k_leaves_the_bootstrap_k_alone(self, workspace, tmp_path, capsys):
        # annotate's --k is its sample size per stratum; only run's --k sets stats.k.
        missing = tmp_path / "nonexistent"
        assert run_cli("annotate", "--config", str(workspace), "--run", str(missing),
                       "--property", "names", "--k", str(2**32)) == 1
        assert "point --run at a run directory" in capsys.readouterr().err
        assert run_cli("run", "--config", str(workspace), "--k", str(2**32)) == 1
        assert "k must be in [1, 2**32)" in capsys.readouterr().err

    def test_string_pass_in_verdicts_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity",
                "--out", str(out_dir))
        verdicts_path = out_dir / "verdicts.jsonl"
        lines = verdicts_path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[2])
        lines[2] = json.dumps({**row, "pass": "false"}) + "\n"
        verdicts_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                       "--property", "names", "--system", "identity", "--k", "2") == 3
        assert f"{verdicts_path}:3: " in capsys.readouterr().err
        assert not list(out_dir.glob("review_*"))

    @pytest.mark.parametrize(
        "field, value",
        [("scores", "12"), ("scores", [True, False]), ("scores", ["0.5", "0.25"]),
         ("case_id", 7), ("system_id", None), ("matched_candidate", 3)],
    )
    def test_mistyped_verdict_field_exit_3(self, workspace, tmp_path, capsys, field, value):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir))
        verdicts_path = out_dir / "verdicts.jsonl"
        lines = verdicts_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), field: value}) + "\n"
        verdicts_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                       "--property", "names", "--k", "2") == 3
        assert f"data error: {verdicts_path}:3: malformed record ({field!r} must be" in (
            capsys.readouterr().err
        )
        assert not list(out_dir.glob("review_*"))

    def test_no_verdict_of_a_judged_property_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--system", "identity", "--out", str(out_dir))
        verdicts_path = out_dir / "verdicts.jsonl"
        verdicts_path.write_bytes(b"")
        capsys.readouterr()
        assert run_cli("annotate", "--config", str(workspace), "--run", str(out_dir),
                       "--property", "names") == 3
        assert capsys.readouterr().err == (
            f"data error: {verdicts_path} holds no verdict of property 'names'\n"
        )
        assert not list(out_dir.glob("review_*"))

    def test_missing_translations_file_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        out_dir = tmp_path / "run1"
        run_cli("run", "--config", str(workspace), "--out", str(out_dir))
        (out_dir / "translations" / "identity.jsonl").unlink()
        assert run_cli(
            "annotate", "--config", str(workspace), "--property", "names",
            "--system", "identity", "--run", str(out_dir),
        ) == 3
        err = capsys.readouterr().err
        assert f"{out_dir / 'translations' / 'identity.jsonl'}: cannot read (" in err

    def test_edits_directory_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(tmp_path),
        ) == 3
        assert f"{tmp_path}: cannot read (Is a directory)" in capsys.readouterr().err

    def test_malformed_edits_line_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text('{"value": "x"}\n{broken\n', encoding="utf-8")
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 3
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"value": "Rafael Ortega", "add": [None, 7]},
            {"value": "Rafael Ortega", "remove": [None]},
            {"value": 7, "add": ["Señor Ortega"]},
        ],
    )
    def test_non_string_edit_entry_exit_3(self, workspace, tmp_path, capsys, bad):
        prime(workspace)
        prop_dir = load_config(str(workspace)).property_dir("names")
        edits_path = tmp_path / "edits.jsonl"
        good = json.dumps({"value": "Rafael Ortega", "add": ["Señor Ortega"]}) + "\n"
        edits_path.write_text(good, encoding="utf-8")
        args = ("apply-edits", "--config", str(workspace), "--property", "names",
                "--edits", str(edits_path))
        assert run_cli(*args) == 0
        files = [prop_dir / "candidates.jsonl", prop_dir / "candidates_audit.log"]
        before = [path.read_bytes() for path in files]
        lines = [{"value": "Rafael Ortega", "add": ["R. Ortega"]}, bad]
        edits_path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(*args) == 3
        assert f"{edits_path}:2: malformed record" in capsys.readouterr().err
        assert [path.read_bytes() for path in files] == before

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"add": [""]}, "candidate set for 'Rafael Ortega' has a blank entry"),
            ({"add": ["  "]}, "candidate set for 'Rafael Ortega' has a blank entry"),
            ({"value": "nope"}, "edit references unknown value 'nope'"),
            ({"remove": ["x"]}, "cannot remove 'x' from 'Rafael Ortega': not present"),
            ({"remove": ["Rafael Ortega"]},
             "cannot remove 'Rafael Ortega': it is the last candidate for 'Rafael Ortega'"),
        ],
        ids=["empty", "spaces", "unknown-value", "absent-removal", "last-removal"],
    )
    def test_blank_add_exit_3_before_any_write(self, workspace, tmp_path, capsys, edit, message):
        """Every edit that cannot apply names its line, and nothing is written."""
        prime(workspace)
        prop_dir = load_config(str(workspace)).property_dir("names")
        before = (prop_dir / "candidates.jsonl").read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        lines = [{"value": "Mina Park", "add": ["M. Park"]}, {"value": "Rafael Ortega", **edit}]
        edits_path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 3
        assert capsys.readouterr().err == f"data error: {edits_path}:2: {message}\n"
        assert (prop_dir / "candidates.jsonl").read_bytes() == before
        assert not (prop_dir / "candidates_audit.log").exists()

    def test_add_in_another_unicode_form_is_skipped(self, workspace, tmp_path):
        prime(workspace)
        prop_dir = load_config(str(workspace)).property_dir("names")
        before = load_candidates(prop_dir / "candidates.jsonl")["Rafael Ortega"].candidates
        edits_path = tmp_path / "edits.jsonl"
        lines = [{"value": "Rafael Ortega", "add": [name]} for name in ("Müller", "Mu\u0308ller")]
        edits_path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 0
        after = load_candidates(prop_dir / "candidates.jsonl")["Rafael Ortega"].candidates
        assert after == (*before, "Müller")
        audit = (prop_dir / "candidates_audit.log").read_text(encoding="utf-8")
        assert "Rafael Ortega: skipped 'Mu\u0308ller' (already present)" in audit

    @pytest.mark.parametrize("fault", ["audit append", "candidates save"])
    def test_edits_resume_after_a_failed_write(self, workspace, tmp_path, monkeypatch, capsys, fault):
        """A disk-full audit append or candidates save exits 3 and leaves
        candidates.jsonl as it was; re-running the edits then exits 0 with the
        files an uninterrupted run writes, a failed save's audit lines twice."""
        prime(workspace)
        prop_dir = load_config(str(workspace)).property_dir("names")
        candidates, audit = prop_dir / "candidates.jsonl", prop_dir / "candidates_audit.log"
        first, second = list(load_candidates(candidates))[:2]
        edits_path = tmp_path / "edits.jsonl"
        args = ("apply-edits", "--config", str(workspace), "--property", "names",
                "--edits", str(edits_path))
        edits_path.write_text(
            json.dumps({"value": second, "add": ["Zusatz"]}) + "\n", encoding="utf-8"
        )
        assert run_cli(*args) == 0
        edits = [{"value": first, "add": ["Zusatz"]}, {"value": second, "remove": ["Zusatz"]}]
        edits_path.write_text("".join(json.dumps(e) + "\n" for e in edits), encoding="utf-8")
        before = candidates.read_bytes(), audit.read_bytes()
        assert run_cli(*args) == 0
        expected, lines = candidates.read_bytes(), audit.read_bytes()[len(before[1]):]
        candidates.write_bytes(before[0])
        audit.write_bytes(before[1])

        def disk_full(path):
            with model._file_errors(Path(path), "write", DataInvariantError, ""):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if fault == "audit append":
            append = cli._append
            monkeypatch.setattr(cli, "_append", lambda p, s: disk_full(p) if s else append(p, s))
        else:
            monkeypatch.setattr(cli, "save_candidates", lambda entries, path: disk_full(path))
        capsys.readouterr()
        assert run_cli(*args) == 3
        assert "cannot write (No space left on device)" in capsys.readouterr().err
        assert candidates.read_bytes() == before[0]
        monkeypatch.undo()
        assert run_cli(*args) == 0
        assert candidates.read_bytes() == expected
        assert audit.read_bytes() == before[1] + lines * (1 if fault == "audit append" else 2)

    def test_removal_of_last_candidate_exit_3(self, workspace, tmp_path):
        prime(workspace)
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text(
            json.dumps({"value": "Rafael Ortega", "remove": ["Rafael Ortega"]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 3


def _error_classes() -> list[type]:
    for module in pkgutil.walk_packages(mtbehave.__path__, "mtbehave."):
        importlib.import_module(module.name)
    found, todo = [], [MtBehaveError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(
        (c for c in set(found) if c.__module__.startswith("mtbehave")), key=lambda c: c.__name__
    )


class TestFileFailures:
    """A path that cannot be read or written ends in an exit code naming it."""

    def test_translation_cache_a_file_exit_3_before_translating(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        prime(workspace)
        cache_dir = load_config(str(workspace)).workspace / "cache" / "translations"
        cache_dir.parent.mkdir()
        cache_dir.write_bytes(b"x")
        monkeypatch.setattr(cli, "translate_all", lambda *a, **k: pytest.fail("translated"))
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "run1")) == 3
        assert f"data error: {cache_dir}: cannot read (Not a directory)" in capsys.readouterr().err

    def test_non_string_cached_translation_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "run1")) == 0
        config = load_config(str(workspace))
        cache_path = (
            config.workspace / "cache" / "translations"
            / f"{config.system_by_id('identity').cache_name}.jsonl"
        )
        lines = cache_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), "translation": 3}) + "\n"
        cache_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("run", "--config", str(workspace), "--out", str(tmp_path / "run2")) == 3
        assert f"data error: {cache_path}:1: " in capsys.readouterr().err

    def test_run_out_a_file_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        out = tmp_path / "out"
        out.write_bytes(b"")
        assert run_cli("run", "--config", str(workspace), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"data error: {out / 'translations'}" in err and "cannot write (" in err
        # It fails before any system is translated, so nothing reached the cache.
        cache_dir = load_config(str(workspace)).workspace / "cache" / "translations"
        assert list(cache_dir.glob("*")) == []

    @pytest.mark.parametrize(
        "name",
        ["runmeta.json", "report.json", "report.txt", "verdicts.jsonl", "translations/mangler.jsonl"],
    )
    def test_run_artifact_a_directory_exit_3_before_translating(
        self, workspace, tmp_path, capsys, name
    ):
        prime(workspace)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run_cli("run", "--config", str(workspace), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"data error: {out / name}: cannot write (Is a directory)\n"
        )
        cache_dir = load_config(str(workspace)).workspace / "cache" / "translations"
        assert not cache_dir.exists()
        assert sorted(p.name for p in out.iterdir()) == sorted({name.split("/")[0], "translations"})

    def test_property_directory_a_file_exit_3(self, workspace, capsys):
        prop_dir = load_config(str(workspace)).property_dir("names")
        prop_dir.parent.mkdir()
        prop_dir.write_bytes(b"")
        assert run_cli("generate", "--config", str(workspace), "--property", "names") == 3
        err = capsys.readouterr().err
        assert f"data error: {prop_dir / 'suite.jsonl'}: cannot write (" in err

    def test_config_a_directory_exit_1(self, tmp_path, capsys):
        assert run_cli("generate", "--config", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: config file {tmp_path}: cannot read (Is a directory)\n"

    def test_compare_report_a_directory_exit_3(self, tmp_path, capsys):
        assert run_cli("compare", "--report", str(tmp_path), "a", "b") == 3
        assert capsys.readouterr().err == f"data error: {tmp_path}: cannot read (Is a directory)\n"

    def test_audit_log_a_directory_exit_3(self, workspace, tmp_path, capsys):
        prime(workspace)
        prop_dir = load_config(str(workspace)).property_dir("names")
        audit = prop_dir / "candidates_audit.log"
        audit.mkdir()
        before = (prop_dir / "candidates.jsonl").read_bytes()
        edits_path = tmp_path / "edits.jsonl"
        edits_path.write_text('{"value": "Rafael Ortega", "add": ["Ortega"]}\n', encoding="utf-8")
        assert run_cli(
            "apply-edits", "--config", str(workspace), "--property", "names",
            "--edits", str(edits_path),
        ) == 3
        err = capsys.readouterr().err
        assert err.endswith(f"data error: {audit}: cannot write (Is a directory)\n")
        # No edit is saved without its audit lines.
        assert (prop_dir / "candidates.jsonl").read_bytes() == before


class TestExitCodes:
    """Every package error ends in its family's exit code and label, never a traceback."""

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_every_error_class_is_mapped(self, cls, monkeypatch, capsys):
        # BracketParseError and NoCandidatesError take a reason before their text.
        reasons = {BracketParseError: "no_value", NoCandidatesError: "unanswerable"}
        error = cls(reasons[cls], "boom") if cls in reasons else cls("boom")

        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_compare", fail)
        code = main(["compare", "--report", "r.json", "a", "b"])
        if issubclass(cls, cli.UsageError):
            expected = (1, "usage error")
        elif issubclass(cls, ConfigError):
            expected = (1, "error")
        elif issubclass(cls, ProviderError):
            expected = (2, "provider error")
        else:
            expected = (3, "data error")
        err = capsys.readouterr().err
        assert (code, err) == (expected[0], f"{expected[1]}: {error}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate"], ["candidates"], ["run"], ["compare", "a", "b"],
            ["diversity", "--property", "names"], ["annotate", "--run", "run1"],
            ["apply-edits", "--property", "names", "--edits", "edits.jsonl"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_ctrl_c_exit_130_with_one_line(self, argv, tmp_path, monkeypatch, capsys):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_config", interrupt)
        monkeypatch.setattr(cli, "_read_text", interrupt)
        report = tmp_path / "report.json"
        report.write_text("{}", encoding="utf-8")
        where = ["--report", str(report)] if argv[0] == "compare" else ["--config", "cfg.yaml"]
        assert main([argv[0], *where, *argv[1:]]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_every_family_is_enumerated(self):
        names = {c.__name__ for c in _error_classes()}
        assert names == {"MtBehaveError", "UsageError", "ConfigError", "ProviderError",
                         "DataInvariantError", "BracketParseError", "NoCandidatesError"}


class TestUsage:
    def test_cli_import_leaves_requests_out(self):
        code = "import sys, mtbehave.cli; print('requests' in sys.modules)"
        src = str(Path(mtbehave.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert proc.stdout.strip() == "False"

    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exit_1(self):
        assert main(["generate", "--config", "x", "--bogus"]) == 1

    def test_offline_with_http_llm_exit_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(
            CONFIG_TEXT.replace(
                "llm: {kind: replay, replay_dir: replays}",
                "llm: {kind: http, url: http://api/chat}",
            ),
            encoding="utf-8",
        )
        assert run_cli("generate", "--config", str(config_path), "--offline") == 1
        assert "offline" in capsys.readouterr().err
