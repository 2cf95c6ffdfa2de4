"""Provider clients: HTTP contracts (via stub sessions), replay, retries."""
from __future__ import annotations

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest
import requests

import mtbehave.providers as providers
from mtbehave.detection import CachedEmbedder
from mtbehave.errors import ConfigError, ProviderError
from mtbehave.providers import (
    EmbedderConfig,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    LlmConfig,
    ReplayProvider,
    replay_key,
    write_replay_responses,
)
from mtbehave.runner import AdapterSpec, HttpMtAdapter


class StubResponse:
    def __init__(self, body: dict, status: int = 200):
        self.body = body
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self.body


class StubSession:
    """Scripted requests.Session stand-in; entries are responses or exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def chat_config(**settings) -> LlmConfig:
    return LlmConfig(kind="http", url="http://llm/chat", **settings)


EMBEDDER = EmbedderConfig(kind="http", url="http://emb/embed")


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    monkeypatch.setattr(providers.time, "sleep", lambda _: None)


class TestLlmRequest:
    """The sampling settings every LLM request carries, fixed per client."""

    def test_paper_sampling_defaults(self):
        config = LlmConfig(kind="http", url="u")
        for holder in (HttpChatProvider(config).config, config):
            assert holder.temperature == 0.9
            assert holder.presence_penalty == 2.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError, match="'temperature' must be >= 0"):
            LlmConfig(kind="http", url="u", temperature=-0.1)


class TestHttpChatProvider:
    def test_payload_and_extraction(self):
        session = StubSession(
            [StubResponse({"choices": [{"message": {"content": "- A\n- B"}}]})]
        )
        provider = HttpChatProvider(chat_config(model="m1"), session=session)
        text = provider.complete("write things")
        assert text == "- A\n- B"
        sent = session.calls[0]["json"]
        assert list(sent) == ["messages", "temperature", "presence_penalty", "model"]
        assert sent["messages"] == [{"role": "user", "content": "write things"}]
        assert sent["temperature"] == 0.9  # the paper's sampling, by default
        assert sent["presence_penalty"] == 2.0
        assert sent["model"] == "m1"

    def test_plain_text_response_shape(self):
        session = StubSession([StubResponse({"text": "hello"})])
        provider = HttpChatProvider(chat_config(), session=session)
        assert provider.complete("x") == "hello"

    def test_retries_then_succeeds(self):
        session = StubSession(
            [
                requests.ConnectionError("down"),
                StubResponse({"text": "ok"}),
            ]
        )
        provider = HttpChatProvider(chat_config(), session=session)
        assert provider.complete("x") == "ok"
        assert len(session.calls) == 2

    def test_gives_up_after_three_attempts(self):
        session = StubSession([requests.ConnectionError("down")] * 3)
        provider = HttpChatProvider(chat_config(), session=session)
        with pytest.raises(ProviderError, match="3 attempts"):
            provider.complete("x")
        assert len(session.calls) == 3

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sekrit")
        session = StubSession([StubResponse({"text": "ok"})])
        provider = HttpChatProvider(chat_config(api_key_env="TEST_LLM_KEY"), session=session)
        provider.complete("x")
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("TEST_LLM_KEY", raising=False)
        config = chat_config(api_key_env="TEST_LLM_KEY")
        provider = HttpChatProvider(config, session=StubSession([]))
        with pytest.raises(ConfigError, match="TEST_LLM_KEY"):
            provider.complete("x")

    def test_unrecognized_body_rejected(self):
        session = StubSession([StubResponse({"unexpected": 1})])
        provider = HttpChatProvider(chat_config(), session=session)
        with pytest.raises(ProviderError, match="completion text"):
            provider.complete("x")

    @pytest.mark.parametrize(
        "body, match",
        [
            ([1], "not a JSON object"),
            ("text", "not a JSON object"),
            ({"choices": {"0": {"text": "x"}}}, "'choices'"),
            ({"choices": [1]}, "'choices'"),
            ({"choices": [{"message": {"content": 7}}]}, "'content' is not a string"),
            ({"choices": [{"message": {"content": None}}]}, "'content' is not a string"),
            ({"choices": [{"text": ["x"]}]}, "'text' is not a string"),
            ({"text": {"a": 1}}, "'text' is not a string"),
            ({"content": 3.5}, "'content' is not a string"),
        ],
    )
    def test_mistyped_body_rejected(self, body, match):
        session = StubSession([StubResponse(body)])
        provider = HttpChatProvider(chat_config(), session=session)
        with pytest.raises(ProviderError, match=match):
            provider.complete("x")


class TestReplayProvider:
    def test_sequence_consumed_then_sticks(self, tmp_path):
        write_replay_responses(tmp_path, "the prompt", ["first", "second"])
        provider = ReplayProvider(tmp_path)
        prompt = "the prompt"
        assert provider.complete(prompt) == "first"
        assert provider.complete(prompt) == "second"
        assert provider.complete(prompt) == "second"

    def test_distinct_prompts_distinct_streams(self, tmp_path):
        write_replay_responses(tmp_path, "prompt a", ["A"])
        write_replay_responses(tmp_path, "prompt b", ["B"])
        provider = ReplayProvider(tmp_path)
        assert provider.complete("prompt b") == "B"
        assert provider.complete("prompt a") == "A"

    def test_missing_prompt_errors(self, tmp_path):
        write_replay_responses(tmp_path, "known", ["x"])
        provider = ReplayProvider(tmp_path)
        with pytest.raises(ProviderError, match=replay_key("unknown")):
            provider.complete("unknown")

    def test_missing_empty_prompt_errors(self, tmp_path):
        write_replay_responses(tmp_path, "known", ["x"])
        with pytest.raises(ProviderError, match=replay_key("")):
            ReplayProvider(tmp_path).complete("")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ReplayProvider(tmp_path / "nope")

    def test_directory_listed_once(self, tmp_path, monkeypatch):
        prompts = [f"prompt {i}" for i in range(20)]
        for prompt in prompts:
            write_replay_responses(tmp_path, prompt, [prompt.upper(), "again"])
        scans = []
        for name in ("scandir", "listdir"):
            original = getattr(os, name)
            monkeypatch.setattr(
                os, name, lambda *a, _f=original, **k: scans.append(a) or _f(*a, **k)
            )
        provider = ReplayProvider(tmp_path)
        for _ in range(3):
            for prompt in prompts:
                provider.complete(prompt)
        assert len(scans) == 1
        assert provider.complete("prompt 7") == "again"

    def test_sequence_in_name_order(self, tmp_path):
        key = replay_key("p")
        for seq in ("1000", "010", "000", "002"):
            (tmp_path / f"{key}.{seq}.txt").write_text(seq, encoding="utf-8")
        # The order sorting the files' Paths gave before names were indexed.
        expected = [path.read_text(encoding="utf-8") for path in sorted(tmp_path.glob("*.txt"))]
        assert expected == ["000", "002", "010", "1000"]
        provider = ReplayProvider(tmp_path)
        assert [provider.complete("p") for _ in range(5)] == expected + ["1000"]

    def test_non_utf8_file_is_provider_error(self, tmp_path):
        path = tmp_path / f"{replay_key('p')}.000.txt"
        path.write_bytes(b"ok \xff")
        with pytest.raises(ProviderError, match=f"{path}.*not UTF-8"):
            ReplayProvider(tmp_path).complete("p")

    def test_directory_named_like_a_file_is_provider_error(self, tmp_path):
        path = tmp_path / f"{replay_key('p')}.000.txt"
        path.mkdir()
        with pytest.raises(ProviderError, match=f"{path}: cannot read"):
            ReplayProvider(tmp_path).complete("p")

    def test_file_removed_after_listing_is_provider_error(self, tmp_path):
        write_replay_responses(tmp_path, "p", ["x"])
        provider = ReplayProvider(tmp_path)
        path = tmp_path / f"{replay_key('p')}.000.txt"
        path.unlink()
        with pytest.raises(ProviderError, match=f"{path}: cannot read"):
            provider.complete("p")

    def test_key_is_stable(self):
        assert replay_key("abc") == replay_key("abc")
        assert replay_key("abc") != replay_key("abd")


class TestHttpEmbedder:
    def test_contract(self):
        session = StubSession(
            [StubResponse({"vectors": [[1.0, 0.0], [0.0, 1.0]], "dim": 2})]
        )
        embedder = HttpEmbedder(EMBEDDER, session=session)
        vectors = embedder.embed(["a", "b"])
        assert np.array_equal(vectors, [[1.0, 0.0], [0.0, 1.0]])
        assert session.calls[0]["json"] == {"texts": ["a", "b"]}

    def test_dim_mismatch_rejected(self):
        session = StubSession([StubResponse({"vectors": [[1.0, 0.0], [1.0]], "dim": 2})])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        with pytest.raises(ProviderError, match="dim"):
            embedder.embed(["a", "b"])

    def test_body_without_vectors_rejected(self):
        session = StubSession([StubResponse({"error": "quota"})])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        with pytest.raises(ProviderError, match="vectors"):
            embedder.embed(["a"])

    def test_retries_transport_errors(self):
        session = StubSession(
            [requests.ConnectionError("down"), StubResponse({"vectors": [[1.0]], "dim": 1})]
        )
        embedder = HttpEmbedder(EMBEDDER, session=session)
        assert np.array_equal(embedder.embed(["a"]), [[1.0]])

    @pytest.mark.parametrize(
        "vectors",
        [[["a"]], [1], [[1.0, None]], [[True, 0.5]], ["ab"], [{"x": 1.0}], [[[1.0]]]],
    )
    def test_mistyped_vectors_rejected(self, vectors):
        session = StubSession([StubResponse({"vectors": vectors})])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        with pytest.raises(ProviderError, match="not a list of numbers"):
            embedder.embed(["a"])

    @pytest.mark.parametrize("body", ['{"vectors": [[NaN, 1.0]]}', '{"vectors": [[0, 0]]}'])
    def test_nan_or_zero_vector_rejected_by_the_store(self, body):
        session = StubSession([StubResponse(json.loads(body))])
        store = CachedEmbedder(HttpEmbedder(EMBEDDER, session=session))
        with pytest.raises(ProviderError, match="'a' is"):
            store.embed(["a"])

    def test_integer_beyond_float_range_rejected(self):
        session = StubSession([StubResponse(json.loads('{"vectors": [[1' + "0" * 400 + "]]}"))])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        with pytest.raises(ProviderError, match="out of range"):
            embedder.embed(["a"])

    def test_vector_count_must_match_texts(self):
        session = StubSession([StubResponse({"vectors": [[1.0]], "dim": 1})])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        with pytest.raises(ProviderError, match="1 vectors for 2 texts"):
            embedder.embed(["a", "b"])

    def test_integer_entries_accepted(self):
        session = StubSession([StubResponse({"vectors": [[1, 0]], "dim": 2})])
        embedder = HttpEmbedder(EMBEDDER, session=session)
        assert np.array_equal(embedder.embed(["a"]), [[1.0, 0.0]])

    def test_one_float64_row_per_text(self):
        session = StubSession([StubResponse({"vectors": [[1, 0, 2], [0.5, -1, 0]]})])
        vectors = HttpEmbedder(EMBEDDER, session=session).embed(["a", "b"])
        assert isinstance(vectors, np.ndarray) and vectors.dtype == np.float64
        assert vectors.shape == (2, 3)


def test_providers_does_not_import_detection():
    # The embedders' contract is a plain array, so the provider layer needs
    # nothing from the detector layer above it.
    names = []
    for node in ast.walk(ast.parse(Path(providers.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if "detection" in name.split(".")]


class TestSharedTransport:
    """Every HTTP client posts through `providers._post_json`."""

    CLIENTS = {
        "llm": (
            lambda session, key_env: HttpChatProvider(chat_config(api_key_env=key_env), session),
            lambda client: client.complete("x"),
            {"text": "ok"},
        ),
        "embedder": (
            lambda session, key_env: HttpEmbedder(
                EmbedderConfig(kind="http", url="http://emb/embed", api_key_env=key_env), session
            ),
            lambda client: client.embed(["a"]),
            {"vectors": [[1.0]]},
        ),
        "mt": (
            lambda session, key_env: HttpMtAdapter(
                AdapterSpec(system_id="http", kind="http", endpoint="http://mt/x",
                            language_pair=("en", "de")),
                session=session,
            ),
            lambda client: client.translate(["a"]),
            {"translations": ["b"]},
        ),
    }

    @pytest.mark.parametrize("client", sorted(CLIENTS))
    def test_constant_timeout_and_key_header(self, client, monkeypatch):
        make, call, body = self.CLIENTS[client]
        monkeypatch.setattr(providers, "HTTP_TIMEOUT_S", 7.25)
        monkeypatch.setenv("TEST_API_KEY", "sekrit")
        session = StubSession([StubResponse(body)])
        call(make(session, "TEST_API_KEY"))
        assert session.calls[0]["timeout"] == 7.25
        # The MT adapter has no key setting; the LLM and the embedder send theirs.
        expected = {} if client == "mt" else {"Authorization": "Bearer sekrit"}
        assert session.calls[0]["headers"] == expected

    @pytest.mark.parametrize("client", sorted(CLIENTS))
    def test_error_status_retried_with_backoff(self, client, monkeypatch):
        make, call, body = self.CLIENTS[client]
        delays = []
        monkeypatch.setattr(providers.time, "sleep", delays.append)
        session = StubSession([StubResponse({}, status=503)] * 2 + [StubResponse(body)])
        call(make(session, ""))
        assert len(session.calls) == 3
        assert delays == [0.5, 1.0]

    def test_default_timeout_is_120_s(self):
        assert providers.HTTP_TIMEOUT_S == 120.0


class TestHashEmbedderProperties:
    def test_deterministic_across_instances(self):
        assert np.array_equal(HashEmbedder(dim=16).embed(["x"]), HashEmbedder(dim=16).embed(["x"]))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=0)
