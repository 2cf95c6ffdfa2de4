"""Declarative run configuration: one YAML file drives every command.

Credentials never live in the config; providers reference environment
variable names. Flags override config values. `preset:<name>` resolves to a
configuration shipped with the package.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .detection import TokenizerConfig
from .errors import ConfigError, DataInvariantError
from .generation import DEFAULT_TARGET_COUNT
from .metrics import ResampleConfig
from .model import PropertySpec, _read_text
from .providers import (
    EmbedderConfig,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    LlmConfig,
    ReplayProvider,
)
from .runner import AdapterSpec, CommandMtAdapter, FileMtAdapter, HttpMtAdapter

# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both build the same safe types, but their error wording differs.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def derive_seed(seed: int, purpose: str) -> int:
    """Stable sub-seed for one pipeline stage, so stages are independently
    reproducible from the single configured seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class RunConfig:
    base_dir: Path
    workspace: Path
    seed: int
    target_count: int
    stats: ResampleConfig  # its seed is 0: `run` derives one per property
    tokenizer: TokenizerConfig
    token_boundary: bool
    llm: LlmConfig
    embedder: EmbedderConfig
    properties: tuple[PropertySpec, ...]
    systems: tuple[AdapterSpec, ...]
    offline: bool = False

    def property_by_id(self, property_id: str) -> PropertySpec:
        for spec in self.properties:
            if spec.id == property_id:
                return spec
        raise ConfigError(f"unknown property id {property_id!r}")

    def system_by_id(self, system_id: str) -> AdapterSpec:
        for spec in self.systems:
            if spec.system_id == system_id:
                return spec
        raise ConfigError(f"unknown system id {system_id!r}")

    def property_dir(self, property_id: str) -> Path:
        return self.workspace / property_id

    def build_llm(self):
        if self.offline and self.llm.kind == "http":
            raise ConfigError("--offline forbids the http LLM provider")
        if self.llm.kind == "replay":
            return ReplayProvider(self._resolve(self.llm.replay_dir))
        return HttpChatProvider(self.llm)

    def build_embedder(self):
        if self.offline and self.embedder.kind == "http":
            raise ConfigError("--offline forbids the http embedding provider")
        if self.embedder.kind == "hash":
            return HashEmbedder(dim=self.embedder.dim)
        return HttpEmbedder(self.embedder)

    def build_adapter(self, spec: AdapterSpec):
        if self.offline and spec.kind == "http":
            raise ConfigError(f"--offline forbids http adapter {spec.system_id!r}")
        if spec.kind == "http":
            return HttpMtAdapter(spec)
        if spec.kind == "command":
            return CommandMtAdapter(spec)
        return FileMtAdapter(replace(spec, path=str(self._resolve(spec.path))))

    def _resolve(self, rel: str) -> Path:
        path = Path(rel)
        return path if path.is_absolute() else self.base_dir / path


def _expect_mapping(obj: Any, context: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{context} must be a mapping")
    return obj


def _known_keys(d: Mapping, context: str, known: str) -> Mapping:
    """`d`, whose every key is one of the space-separated `known`; a misspelt
    key would otherwise leave its setting at the default without a word."""
    names = known.split()
    for key in d:
        if key not in names:
            raise ConfigError(f"{context}: unknown key {key!r}; known keys: {', '.join(names)}")
    return d


def _get(d: Mapping, key: str, context: str, default: Any = MISSING, kind: type = str) -> Any:
    """The value of `key`, or `default` when absent; a present value must be a `kind`.

    Integers are read as floats, which must be finite; YAML booleans are never numbers.
    """
    if key not in d:
        if default is MISSING:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    value = d[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond a float's range
            value = math.inf
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{context}: {key!r} must be of type {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{context}: {key!r} must be a finite number, got {value!r}")
    return value


def _section(cls: type, d: Mapping, context: str, **given: Any) -> Any:
    """A `cls` from config section `d`, whose keys are the fields not `given`: each
    of its default's type, or a required `str` where it has none."""
    own = [f for f in fields(cls) if f.name not in given]
    _known_keys(d, context, " ".join(f.name for f in own))
    for f in own:
        given[f.name] = _get(d, f.name, context, f.default,
                             str if f.default is MISSING else type(f.default))
    return cls(**given)


def _language_pair(d: Mapping, context: str, default: Any = MISSING) -> tuple[str, str]:
    pair = _get(d, "language_pair", context, default, list)
    if len(pair) != 2 or not all(isinstance(tag, str) for tag in pair):
        raise ConfigError(f"{context}: language_pair must be [source, target]")
    return pair[0], pair[1]


def packaged_template(name: str) -> str:
    return resources.files("mtbehave.prompts").joinpath(name).read_text(encoding="utf-8")


def _parse_property(raw: Any, base_dir: Path) -> PropertySpec:
    d = _expect_mapping(raw, "properties entry")
    prop_id = _get(d, "id", "property")
    context = f"property {prop_id!r}"
    _known_keys(d, context, " ".join(f.name for f in fields(PropertySpec)))
    detector = _get(d, "detector", context, "exhaustive")
    demos = _get(d, "demos", context, kind=list)
    if not all(isinstance(x, str) for x in demos):
        raise ConfigError(f"{context}: demos must be a list of strings")

    def template(key: str, default_name: str) -> str:
        rel = _get(d, key, context, "")
        if not rel:
            return packaged_template(default_name)
        path = base_dir / rel  # an absolute `rel` is kept as it is
        if not path.is_file():
            raise ConfigError(f"{context}: template file {path} not found")
        text = _read_text(path, ConfigError, f"{context}: {key} template file ")
        if not text.strip():
            raise ConfigError(f"{context}: {key} template file {path} is empty")
        return text

    candidate_default = (
        "contrastive_correct.txt" if detector == "contrastive" else "candidates.txt"
    )
    return PropertySpec(
        id=prop_id,
        name=_get(d, "name", context),
        detector=detector,
        source_prompt=template("source_prompt", "source.txt"),
        candidate_prompt=template("candidate_prompt", candidate_default),
        foil_prompt=(
            template("foil_prompt", "contrastive_foil.txt") if detector == "contrastive" else None
        ),
        demos=tuple(demos),
        language_pair=_language_pair(d, context),
    )


def _parse_system(raw: Any) -> AdapterSpec:
    d = _expect_mapping(raw, "systems entry")
    system_id = _get(d, "id", "system")
    context = f"system {system_id!r}"
    pair = _language_pair(d, context, ("", ""))
    rest = {key: value for key, value in d.items() if key not in ("id", "language_pair")}
    return _section(AdapterSpec, rest, context, system_id=system_id, language_pair=pair)


def resolve_config_path(spec: str) -> Path:
    """Resolve a --config argument; `preset:<name>` maps to packaged configs."""
    if spec.startswith("preset:"):
        name = spec.split(":", 1)[1].replace("-", "_")
        packaged = resources.files("mtbehave.presets").joinpath(f"{name}.yaml")
        path = Path(str(packaged))
        if not path.exists():
            raise ConfigError(f"unknown preset {spec!r}")
        return path
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    return path


def load_config(path_spec: str, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Parse and validate a run configuration.

    `overrides` carries CLI flag values (seed, k, alpha, target_count,
    offline, workspace); flags win over the file. A value a domain type
    rejects is a ConfigError naming the file.
    """
    path = resolve_config_path(path_spec)
    try:
        raw = yaml.load(_read_text(path, ConfigError, "config file "), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    try:
        return _run_config(raw, path, flags)
    except DataInvariantError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _run_config(raw: Any, path: Path, flags: Mapping[str, Any]) -> RunConfig:
    top = str(path)
    # Each of the file's own mappings is checked before any flag is merged into it.
    own = _known_keys(
        _expect_mapping(raw if raw is not None else {}, top), top,
        "workspace seed target_count stats tokenizer detection providers properties systems",
    )
    # --seed and --target win over the file's top level, --k and --alpha over its `stats`.
    d = {**own, **flags}
    base_dir = path.parent

    stats = dict(_get(d, "stats", top, {}, Mapping))
    stats.update((key, flags[key]) for key in ("k", "alpha") if key in flags)
    det = _known_keys(_get(d, "detection", top, {}, Mapping), "detection", "token_boundary")
    providers = _known_keys(_get(d, "providers", top, {}, Mapping), "providers", "llm embedder")
    llm = _get(providers, "llm", top, {"kind": "replay", "replay_dir": "replays"}, Mapping)
    embedder = _get(providers, "embedder", top, {"kind": "hash"}, Mapping)

    properties = tuple(_parse_property(p, base_dir) for p in _get(d, "properties", top, [], list))
    systems = tuple(_parse_system(s) for s in _get(d, "systems", top, [], list))
    for what, ids in (("property", [p.id for p in properties]),
                      ("system", [s.system_id for s in systems])):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise ConfigError(f"duplicate {what} ids: {dupes}")

    workspace = Path(_get(d, "workspace", top, "workspace"))
    if not workspace.is_absolute():
        workspace = base_dir / workspace

    config = RunConfig(
        base_dir=base_dir,
        workspace=workspace,
        seed=_get(d, "seed", top, 0, int),
        target_count=_get(d, "target_count", top, DEFAULT_TARGET_COUNT, int),
        stats=_section(ResampleConfig, stats, "stats", seed=0),
        tokenizer=_section(TokenizerConfig, _get(d, "tokenizer", top, {}, Mapping), "tokenizer"),
        token_boundary=_get(det, "token_boundary", "detection", False, bool),
        llm=_section(LlmConfig, llm, "providers.llm"),
        embedder=_section(EmbedderConfig, embedder, "providers.embedder"),
        properties=properties,
        systems=systems,
        offline=_get(flags, "offline", "flags", False, bool),
    )
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    if config.target_count < 1:
        raise ConfigError("target_count must be >= 1")
    return config
