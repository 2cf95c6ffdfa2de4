"""Run-configuration loading, presets, overrides, offline enforcement."""
from __future__ import annotations

import dataclasses
from importlib import resources

import pytest
import yaml

from mtbehave import config as config_module
from mtbehave.cli import main
from mtbehave.config import (
    EmbedderConfig,
    LlmConfig,
    derive_seed,
    load_config,
    packaged_template,
    resolve_config_path,
)
from mtbehave.detection import TokenizerConfig
from mtbehave.errors import ConfigError
from mtbehave.metrics import ResampleConfig
from mtbehave.providers import HashEmbedder, ReplayProvider
from mtbehave.runner import AdapterSpec

MINIMAL = """
workspace: ws
seed: 3
target_count: 12
stats: {k: 150, alpha: 0.1}
providers:
  llm: {kind: replay, replay_dir: replays}
  embedder: {kind: hash, dim: 16}
properties:
  - id: names
    name: person name
    detector: exhaustive
    language_pair: [en, de]
    demos: ["a [b] c.", "d [e] f.", "g [h] i."]
systems:
  - id: identity
    kind: command
    command: cat
"""


# Both loaders PyYAML may provide; libyaml's only when it was built with it.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def write_config(tmp_path, text=MINIMAL):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        config = load_config(str(write_config(tmp_path)))
        assert config.seed == 3
        assert config.target_count == 12
        assert config.stats.k == 150 and config.stats.alpha == 0.1
        assert config.workspace == tmp_path / "ws"
        assert config.properties[0].id == "names"
        assert config.systems[0].system_id == "identity"

    def test_absent_keys_take_the_documented_defaults(self, tmp_path):
        text = (
            "systems:\n"
            "  - {id: web, kind: http, endpoint: 'http://mt/x', language_pair: [en, de]}\n"
        )
        config = load_config(str(write_config(tmp_path, text)))
        assert (config.seed, config.target_count, config.stats.k, config.stats.alpha) == (
            0, 1000, 1000, 0.05
        )
        assert (config.tokenizer.mode, config.tokenizer.strip_edge_punct) == ("whitespace", True)
        assert config.token_boundary is False
        assert config.embedder.dim == 32 and config.systems[0].batch_size == 32

    def test_packaged_default_templates_used(self, tmp_path):
        config = load_config(str(write_config(tmp_path)))
        assert config.properties[0].source_prompt == packaged_template("source.txt")
        assert config.properties[0].candidate_prompt == packaged_template("candidates.txt")

    def test_template_file_resolution(self, tmp_path):
        (tmp_path / "my_prompt.txt").write_text("custom {property} {demo_1}", encoding="utf-8")
        text = MINIMAL.replace(
            "detector: exhaustive", "detector: exhaustive\n    source_prompt: my_prompt.txt"
        )
        config = load_config(str(write_config(tmp_path, text)))
        assert config.properties[0].source_prompt.startswith("custom")

    def test_missing_template_file(self, tmp_path):
        text = MINIMAL.replace(
            "detector: exhaustive", "detector: exhaustive\n    source_prompt: nope.txt"
        )
        with pytest.raises(ConfigError, match="nope.txt"):
            load_config(str(write_config(tmp_path, text)))

    @pytest.mark.parametrize("content", ["", " \n\t\n"], ids=["empty", "whitespace"])
    def test_empty_template_file_exits_1_naming_it(self, tmp_path, capsys, content):
        (tmp_path / "empty.txt").write_text(content, encoding="utf-8")
        text = MINIMAL.replace(
            "detector: exhaustive", "detector: exhaustive\n    source_prompt: empty.txt"
        )
        path = write_config(tmp_path, text)
        (tmp_path / "replays").mkdir()
        assert main(["generate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'names'" in err and "source_prompt" in err
        assert str(tmp_path / "empty.txt") in err

    def test_non_utf8_template_file_exits_1_naming_it(self, tmp_path, capsys):
        (tmp_path / "latin1.txt").write_bytes("Gr\u00fc\u00dfe {property}\n".encode("latin-1"))
        text = MINIMAL.replace(
            "detector: exhaustive", "detector: exhaustive\n    candidate_prompt: latin1.txt"
        )
        path = write_config(tmp_path, text)
        assert main(["generate", "--config", str(path), "--offline"]) == 1
        err = capsys.readouterr().err
        assert "'names'" in err and "candidate_prompt" in err and "UTF-8" in err
        assert str(tmp_path / "latin1.txt") in err

    def test_flag_overrides_win(self, tmp_path):
        config = load_config(
            str(write_config(tmp_path)),
            {"seed": 99, "k": 42, "alpha": 0.2, "target_count": 5},
        )
        assert (config.seed, config.stats.k, config.stats.alpha, config.target_count) == (
            99, 42, 0.2, 5
        )

    def test_duplicate_property_ids_rejected(self, tmp_path):
        duplicate = """  - id: names
    name: person name
    detector: exhaustive
    language_pair: [en, de]
    demos: ["x [y] z."]
systems:"""
        text = MINIMAL.replace("systems:", duplicate)
        with pytest.raises(ConfigError, match="duplicate property ids"):
            load_config(str(write_config(tmp_path, text)))

    def test_unknown_property_lookup(self, tmp_path):
        config = load_config(str(write_config(tmp_path)))
        with pytest.raises(ConfigError, match="unknown property id"):
            config.property_by_id("nope")

    def test_invalid_yaml(self, tmp_path, monkeypatch):
        for loader in LOADERS:
            monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
            with pytest.raises(ConfigError, match="invalid YAML"):
                load_config(str(write_config(tmp_path, "a: [unclosed")))

    def test_non_utf8_config_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"seed: 1\n\xff\n")
        assert main(["generate", "--config", str(path), "--offline"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "UTF-8" in err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.yaml"))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("command: cat", "command: cat\n    batch_size: x", "batch_size"),
            ("stats: {k: 150, alpha: 0.1}", "stats: {k: lots}", "k"),
            ("seed: 3", "seed: five", "seed"),
            ("command: cat", "command: cat\n    language_pair: 7", "language_pair"),
            ("replay_dir: replays}", "replay_dir: replays, temperature: hot}", "temperature"),
            ("seed: 3", 'seed: 3\ndetection: {token_boundary: "false"}', "token_boundary"),
        ],
        ids=["batch_size", "k", "seed", "language_pair", "temperature", "token_boundary"],
    )
    def test_wrong_type_exits_1_naming_the_key(self, tmp_path, capsys, old, new, key):
        path = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        assert main(["diversity", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("replay_dir: replays}", "replay_dir: replays, temperature: -1}", "temperature"),
            ("command: cat", "command: cat\n    batch_size: 0", "batch_size"),
            ("dim: 16", "dim: 0", "dim"),
            ("k: 150", "k: 0", "k"),
            ("alpha: 0.1", "alpha: 0", "alpha"),
            ("alpha: 0.1", "alpha: 1.5", "alpha"),
            ("replay_dir: replays}", "replay_dir: replays, temperature: .nan}", "temperature"),
            ("replay_dir: replays}", "replay_dir: replays, presence_penalty: .inf}",
             "presence_penalty"),
            ("replay_dir: replays}", "replay_dir: replays, presence_penalty: -.inf}",
             "presence_penalty"),
            ("replay_dir: replays}", f"replay_dir: replays, temperature: {'9' * 400}}}",
             "temperature"),
            ("alpha: 0.1", "alpha: .nan", "alpha"),
        ],
        ids=["temperature", "batch_size", "dim", "k", "alpha_zero", "alpha_above_one",
             "temperature_nan", "presence_penalty_inf", "presence_penalty_minus_inf",
             "temperature_beyond_float", "alpha_nan"],
    )
    def test_out_of_range_exits_1_naming_the_key(self, tmp_path, capsys, old, new, key):
        path = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        assert main(["diversity", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, reason",
        [
            ("seed: 3", "seed: 3\ntokenizer: {mode: foo}", "unknown tokenizer mode 'foo'"),
            ("detector: exhaustive", "detector: bogus", "unknown detector 'bogus'"),
            ('demos: ["a [b] c.", "d [e] f.", "g [h] i."]', "demos: []", "at least one demo"),
        ],
        ids=["tokenizer_mode", "detector", "empty_demos"],
    )
    def test_value_a_domain_type_rejects_exits_1(self, tmp_path, capsys, old, new, reason):
        path = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        assert main(["diversity", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and reason in err


    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"g [h] i."]', '7]', "property 'names': demos must be a list of strings"),
            ("language_pair: [en, de]", "language_pair: [en, de, fr]",
             "property 'names': language_pair must be [source, target]"),
            ("properties:\n", "properties:\n  - names\n", "properties entry must be a mapping"),
        ],
        ids=["non_string_demo", "three_tag_pair", "entry_not_a_mapping"],
    )
    def test_malformed_property_exits_1(self, tmp_path, capsys, old, new, message):
        path = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        assert main(["diversity", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            ("seed: 3", "sed: 3", None, "sed"),
            ("seed: 3", "seed: 3\nk: 5", None, "k"),
            ("stats: {k: 150, alpha: 0.1}", "stats: {k: 150, alpah: 0.01}", "stats", "alpah"),
            ("seed: 3", "seed: 3\ntokenizer: {strip_punct: true}", "tokenizer", "strip_punct"),
            ("seed: 3", "seed: 3\ndetection: {token_boundaries: true}", "detection",
             "token_boundaries"),
            ("providers:\n", "providers:\n  embeder: {kind: hash}\n", "providers", "embeder"),
            ("replay_dir: replays}", "replay_dir: replays, temprature: 0.5}", "providers.llm",
             "temprature"),
            ("dim: 16", "dims: 16", "providers.embedder", "dims"),
            ("detector: exhaustive", "detektor: exhaustive", "property 'names'", "detektor"),
            ("command: cat", "command: cat\n    batchsize: 4", "system 'identity'", "batchsize"),
        ],
        ids=["top", "top_flag_name", "stats", "tokenizer", "detection", "providers", "llm",
             "embedder", "property", "system"],
    )
    def test_unknown_key_exits_1_naming_section_and_key(
        self, tmp_path, capsys, old, new, section, key
    ):
        path = write_config(tmp_path, MINIMAL.replace(old, new, 1))
        assert main(["diversity", "--config", str(path)]) == 1
        assert f"{section or path}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, name",
        [
            ("  - id: names", '  - id: "../escaped"', "../escaped"),
            ("  - id: names", "  - id: a/b", "a/b"),
            ("  - id: names", '  - id: ".."', ".."),
            ("  - id: identity", '  - id: "../../sys"', "../../sys"),
            ("  - id: identity", '  - id: ".hidden"', ".hidden"),
            ("  - id: identity", '  - id: ""', ""),
        ],
        ids=["property_parent", "property_separator", "property_dotdot", "system_parent",
             "system_leading_dot", "system_empty"],
    )
    def test_id_that_is_not_a_plain_file_name_exits_1_writing_nothing(
        self, tmp_path, capsys, old, new, name
    ):
        (tmp_path / "ws").mkdir()
        (tmp_path / "ws" / "replays").mkdir()
        text = MINIMAL.replace("workspace: ws", "workspace: ws/inner").replace(old, new, 1)
        path = write_config(tmp_path / "ws", text)
        assert main(["generate", "--config", str(path), "--offline"]) == 1
        assert f"id {name!r} is not a plain file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.yaml", "replays", "ws"]

    def test_plain_ids_with_dots_and_dashes_load(self, tmp_path):
        text = MINIMAL.replace("id: names", "id: names.v2").replace("id: identity", "id: sys-1.b")
        config = load_config(str(write_config(tmp_path, text)))
        assert (config.properties[0].id, config.systems[0].system_id) == ("names.v2", "sys-1.b")

    def test_http_system_without_language_pair_exits_1(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "kind: command\n    command: cat", "kind: http\n    endpoint: http://mt/x"
        )
        path = write_config(tmp_path, text)
        assert main(["diversity", "--config", str(path)]) == 1
        assert "system 'identity': kind 'http' requires a language_pair" in capsys.readouterr().err
        config = load_config(str(write_config(tmp_path, MINIMAL)))
        assert config.systems[0].language_pair == ("", "")  # optional for a command system


# Each typed section, the dataclass that declares it, how to reach it in the
# YAML and in a loaded config, and two valid minimal mappings of different kinds.
SECTIONS = {
    "providers.llm": (
        LlmConfig, ("providers", "llm"), lambda c: c.llm,
        [{"kind": "replay", "replay_dir": "replays"}, {"kind": "http", "url": "http://llm"}],
    ),
    "providers.embedder": (
        EmbedderConfig, ("providers", "embedder"), lambda c: c.embedder,
        [{"kind": "hash"}, {"kind": "http", "url": "http://emb"}],
    ),
    "tokenizer": (TokenizerConfig, ("tokenizer",), lambda c: c.tokenizer, [{}, {}]),
    "stats": (ResampleConfig, ("stats",), lambda c: c.stats, [{}, {}]),
    "system 'identity'": (
        AdapterSpec, ("systems", 0), lambda c: c.systems[0],
        [{"id": "identity", "kind": "command", "command": "cat"},
         {"id": "identity", "kind": "file", "path": "t.jsonl"}],
    ),
}
# Fields whose config key has another name, and the one field no key sets.
KEY_OF = {"system_id": "id"}
NOT_A_KEY = {(ResampleConfig, "seed")}
FIELDS = [
    (context, f) for context, (cls, *_) in SECTIONS.items()
    for f in dataclasses.fields(cls) if (cls, f.name) not in NOT_A_KEY
]


class TestSections:
    """Every key of every typed section, read through the dataclass that declares it."""

    @staticmethod
    def write(tmp_path, context, section):
        raw = yaml.safe_load(MINIMAL)
        where = SECTIONS[context][1]
        parent = raw
        for step in where[:-1]:
            parent = parent.setdefault(step, {})
        parent[where[-1]] = section
        return write_config(tmp_path, yaml.safe_dump(raw))

    @pytest.mark.parametrize("context, field", FIELDS, ids=lambda x: getattr(x, "name", x))
    def test_missing_key_takes_the_dataclass_default(self, tmp_path, capsys, context, field):
        key = KEY_OF.get(field.name, field.name)
        _, _, loaded, bases = SECTIONS[context]
        base = next((b for b in bases if key not in b), None)
        if base is None:  # required in every kind
            path = self.write(tmp_path, context, {k: v for k, v in bases[0].items() if k != key})
            assert main(["diversity", "--config", str(path)]) == 1
            assert f"missing required key {key!r}" in capsys.readouterr().err
            assert field.default is dataclasses.MISSING
        else:
            config = load_config(str(self.write(tmp_path, context, base)))
            assert getattr(loaded(config), field.name) == field.default

    @pytest.mark.parametrize("context, field", FIELDS, ids=lambda x: getattr(x, "name", x))
    def test_wrong_type_exits_1_naming_the_key(self, tmp_path, capsys, context, field):
        key = KEY_OF.get(field.name, field.name)
        section = {**SECTIONS[context][3][0], key: {"not": "a setting"}}
        assert main(["diversity", "--config", str(self.write(tmp_path, context, section))]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("context, field", FIELDS, ids=lambda x: getattr(x, "name", x))
    def test_misspelt_key_exits_1_naming_the_section(self, tmp_path, capsys, context, field):
        key = KEY_OF.get(field.name, field.name)
        section = {**SECTIONS[context][3][0], f"{key}s": "x"}
        assert main(["diversity", "--config", str(self.write(tmp_path, context, section))]) == 1
        assert f"{context}: unknown key {key + 's'!r}" in capsys.readouterr().err


class TestYamlLoader:
    def test_libyaml_used_when_pyyaml_has_it(self):
        assert config_module._YAML_LOADER is LOADERS[-1]

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_presets_parse_equal_under_both_loaders(self):
        presets = [
            path for path in resources.files("mtbehave.presets").iterdir()
            if path.name.endswith(".yaml")
        ]
        assert presets
        for path in presets:
            text = path.read_text(encoding="utf-8")
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(
                text, Loader=yaml.SafeLoader
            ), path.name


class TestProvidersFromConfig:
    def test_replay_and_hash_builders(self, tmp_path):
        (tmp_path / "replays").mkdir()
        config = load_config(str(write_config(tmp_path)))
        assert isinstance(config.build_llm(), ReplayProvider)
        embedder = config.build_embedder()
        assert isinstance(embedder, HashEmbedder)
        assert embedder.dim == 16

    def test_offline_forbids_http_llm(self, tmp_path):
        text = MINIMAL.replace(
            "llm: {kind: replay, replay_dir: replays}",
            "llm: {kind: http, url: http://api/chat}",
        )
        config = load_config(str(write_config(tmp_path, text)), {"offline": True})
        with pytest.raises(ConfigError, match="offline"):
            config.build_llm()

    def test_offline_forbids_http_adapter(self, tmp_path):
        text = MINIMAL.replace(
            "kind: command\n    command: cat",
            "kind: http\n    endpoint: http://mt/translate\n    language_pair: [en, de]",
        )
        config = load_config(str(write_config(tmp_path, text)), {"offline": True})
        with pytest.raises(ConfigError, match="offline"):
            config.build_adapter(config.systems[0])

    def test_bad_llm_kind(self, tmp_path):
        text = MINIMAL.replace("kind: replay, replay_dir: replays", "kind: carrier")
        with pytest.raises(ConfigError, match="carrier"):
            load_config(str(write_config(tmp_path, text)))


class TestPreset:
    def test_preset_resolves_and_loads(self):
        path = resolve_config_path("preset:en-de")
        assert path.exists()
        config = load_config("preset:en-de")
        ids = {p.id for p in config.properties}
        assert ids == {
            "integers",
            "decimals",
            "large_numbers",
            "units",
            "currencies",
            "emojis",
            "names",
            "web_terms",
            "idioms",
        }
        idioms = config.property_by_id("idioms")
        assert idioms.detector == "contrastive"
        assert idioms.foil_prompt
        assert config.target_count == 1000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config_path("preset:nope")

    def test_preset_prompts_renderable(self):
        from mtbehave.generation import (
            render_candidate_prompt,
            render_contrastive_prompts,
            render_source_prompt,
        )

        config = load_config("preset:en-de")
        for spec in config.properties:
            prompt = render_source_prompt(spec)
            assert "one B = " + spec.name in prompt
            if spec.detector == "exhaustive":
                assert "EUR" in render_candidate_prompt(spec, "EUR") or True
                rendered = render_candidate_prompt(spec, "zzz-value")
                assert "zzz-value" in rendered
            else:
                correct, foil = render_contrastive_prompts(spec, "break a leg", "A sentence.")
                assert "A sentence." in correct
                assert "break a leg" in foil


class TestDeriveSeed:
    def test_stable_and_purpose_dependent(self):
        assert derive_seed(7, "bootstrap:x") == derive_seed(7, "bootstrap:x")
        assert derive_seed(7, "bootstrap:x") != derive_seed(7, "bootstrap:y")
        assert derive_seed(7, "bootstrap:x") != derive_seed(8, "bootstrap:x")
        assert derive_seed(7, "bootstrap:x") >= 0
