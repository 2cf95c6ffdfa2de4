"""The package's public names: every export resolves, and the table
functions reject the argument shapes of a single case."""
from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import mtbehave


def test_every_exported_name_resolves():
    missing = [name for name in mtbehave.__all__ if not hasattr(mtbehave, name)]
    assert missing == []
    assert len(set(mtbehave.__all__)) == len(mtbehave.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from mtbehave import *", namespace)
    assert set(mtbehave.__all__) <= set(namespace)


def test_public_names_equal_all():
    public = {
        name for name, value in vars(mtbehave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(mtbehave.__all__)


def test_every_imported_name_is_used():
    """Each module but `__init__`, which re-exports through `__all__`, names
    every name it imports."""
    unused = []
    for path in sorted(Path(mtbehave.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                unused += [f"{path.name}:{node.lineno}: {n}" for n in bound if n not in names]
    assert unused == []


def test_http_clients_build_from_top_level_names():
    chat = mtbehave.HttpChatProvider(mtbehave.LlmConfig(kind="http", url="http://llm/chat"))
    embedder = mtbehave.HttpEmbedder(mtbehave.EmbedderConfig(kind="http", url="http://emb/embed"))
    assert (chat.config.temperature, chat.config.presence_penalty) == (0.9, 2.0)
    assert embedder.config.url == "http://emb/embed"


class _EchoAdapter:
    system_id = cache_name = "echo"

    def translate(self, sources):
        return list(sources)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mtbehave.max_sim("ab", "cd", mtbehave.HashEmbedder(dim=4)),
        lambda: mtbehave.match_exhaustive(
            "Ich lief 3 Meilen.", mtbehave.CandidateSet("miles", ("Meilen",))
        ),
        lambda: mtbehave.judge_contrastive(
            "viel Glück",
            mtbehave.ContrastivePair("break a leg", ("viel Glück",), ("Bein",)),
            mtbehave.HashEmbedder(dim=4),
        ),
        lambda: mtbehave.translate_all(
            [mtbehave.TestCase("u-0", "units", "3 [miles]")],
            _EchoAdapter(),
        ),
    ],
    ids=["max_sim", "match_exhaustive", "judge_contrastive", "translate_all"],
)
def test_one_case_arguments_are_a_type_error(call):
    # Each takes a table; one case is a one-element table, never bare arguments.
    with pytest.raises(TypeError):
        call()
