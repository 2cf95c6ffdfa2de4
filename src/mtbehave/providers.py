"""Provider clients: LLM text generation and text embedding.

HTTP providers speak small JSON contracts and retry transport failures with
exponential backoff. Replay/mock providers make every pipeline stage runnable
offline and deterministic.
"""
from __future__ import annotations

import hashlib
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from .errors import ConfigError, ProviderError
from .model import _check_spec, _list_dir, _read_text, _write_atomic, match_form

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5
HTTP_TIMEOUT_S = 120.0


class LlmProvider(Protocol):
    def complete(self, prompt: str) -> str: ...


def _session() -> requests.Session:
    """A new HTTP session. `requests` is imported only when an HTTP client is
    built, so offline commands never pay for the import."""
    import requests

    return requests.Session()


def _post_json(
    session: requests.Session, url: str, payload: dict, what: str, api_key_env: str = ""
):
    """POST `payload` as JSON to `url` and return the decoded response body.

    Every HTTP client of the package goes through here. Transport errors,
    error statuses and undecodable bodies are retried with exponential
    backoff; the last failure becomes a ProviderError naming `what` and `url`.
    """
    import requests

    headers = {}
    if api_key_env:
        key = os.environ.get(api_key_env)
        if not key:
            raise ConfigError(f"environment variable {api_key_env} is not set")
        headers["Authorization"] = f"Bearer {key}"
    delay = RETRY_BASE_DELAY
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            resp = session.post(url, json=payload, headers=headers, timeout=HTTP_TIMEOUT_S)
            resp.raise_for_status()
            return resp.json()
        except requests.RequestException as exc:
            if attempt == RETRY_ATTEMPTS:
                raise ProviderError(
                    f"{what} to {url} failed after {attempt} attempts: {exc}"
                ) from exc
            log.warning("%s to %s attempt %d failed (%s); retrying", what, url, attempt, exc)
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")


def _json_list(body, key: str, url: str) -> list:
    """The list under `key` in a decoded JSON response body from `url`."""
    value = body.get(key) if isinstance(body, dict) else None
    if not isinstance(value, list):
        raise ProviderError(f"{url}: response has no {key!r} list")
    return value


@dataclass(frozen=True)
class LlmConfig:
    """The `providers.llm` config section; the sampling defaults are the paper's."""

    kind: str
    url: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.9
    presence_penalty: float = 2.0
    replay_dir: str = ""

    def __post_init__(self) -> None:
        _check_spec(self, "providers.llm", {"http": "url", "replay": "replay_dir"}, temperature=0)


@dataclass(frozen=True)
class EmbedderConfig:
    """The `providers.embedder` config section."""

    kind: str
    url: str = ""
    api_key_env: str = ""
    dim: int = 32

    def __post_init__(self) -> None:
        _check_spec(self, "providers.embedder", {"http": "url", "hash": None}, dim=1)


class HttpChatProvider:
    """Chat-completion-style HTTP provider for an `LlmConfig` of kind http.

    POSTs {"messages", "temperature", "presence_penalty", "model"} and reads
    the completion text from the usual response shapes.
    """

    def __init__(self, config: LlmConfig, session: requests.Session | None = None) -> None:
        self.config = config
        self._session = session or _session()

    def complete(self, prompt: str) -> str:
        config = self.config
        payload = {
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "presence_penalty": config.presence_penalty,
        }
        if config.model:
            payload["model"] = config.model
        body = _post_json(self._session, config.url, payload, "LLM request", config.api_key_env)
        return _extract_text(body, config.url)


def _extract_text(body, url: str) -> str:
    """The completion text of a decoded chat response body from `url`."""
    if not isinstance(body, dict):
        raise ProviderError(f"{url}: response is not a JSON object")
    places = []
    choices = body.get("choices")
    if choices:
        first = choices[0] if isinstance(choices, list) else None
        if not isinstance(first, dict):
            raise ProviderError(f"{url}: 'choices' is not a list of objects")
        message = first.get("message")
        if isinstance(message, dict):
            places.append((message, "content"))
        places.append((first, "text"))
    places += [(body, "text"), (body, "content")]
    for place, key in places:
        if key in place:
            if not isinstance(place[key], str):
                raise ProviderError(f"{url}: completion {key!r} is not a string")
            return place[key]
    raise ProviderError(f"could not find completion text in response keys {sorted(body)}")


_REPLAY_KEY_LEN = 16


def replay_key(prompt: str) -> str:
    """Filename key under which a replay response for `prompt` is stored."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:_REPLAY_KEY_LEN]


class ReplayProvider:
    """Reads canned responses from a directory, for offline runs and tests.

    Files are named `<replay_key(prompt)>.<seq>.txt`; repeated calls with the
    same prompt consume the sequence in name order and then stick on the
    last file. The directory is listed once, when the provider is made, so
    files added later are not seen by this provider.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ConfigError(f"replay directory {self.directory} does not exist")
        listing = _list_dir(self.directory, ProviderError, "replay directory ")
        names = sorted(name for name in listing if name.endswith(".txt"))
        self._files: dict[str, list[str]] = {}
        for name in names:
            self._files.setdefault(name[:_REPLAY_KEY_LEN], []).append(name)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        key = replay_key(prompt)
        files = self._files.get(key)
        if not files:
            head = prompt.partition("\n")[0][:60]
            raise ProviderError(
                f"no replay response for prompt key {key} ({head!r}...) in {self.directory}"
            )
        with self._lock:
            idx = self._counts.get(key, 0)
            self._counts[key] = idx + 1
        path = self.directory / files[min(idx, len(files) - 1)]
        return _read_text(path, ProviderError, "replay file ")


def write_replay_responses(directory: Path | str, prompt: str, responses: Sequence[str]) -> None:
    """Store a response sequence for `prompt` in a replay directory."""
    key = replay_key(prompt)
    for i, resp in enumerate(responses):
        _write_atomic(Path(directory) / f"{key}.{i:03d}.txt", [resp])


class HttpEmbedder:
    """Embedding service client for an http `EmbedderConfig`: POST {"texts": [...]}."""

    def __init__(self, config: EmbedderConfig, session: requests.Session | None = None) -> None:
        self.config = config
        self._session = session or _session()

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        url = self.config.url
        payload = {"texts": list(texts)}
        body = _post_json(self._session, url, payload, "embedding request", self.config.api_key_env)
        vectors = _json_list(body, "vectors", url)
        # Checked first: numpy reads true as 1.0, "1.5" as 1.5, ragged rows as a bare ValueError.
        for vec in vectors:
            if not isinstance(vec, list) or any(type(x) not in (int, float) for x in vec):
                raise ProviderError(f"{url}: a vector is not a list of numbers: {vec!r:.80}")
        if len(vectors) != len(texts):
            raise ProviderError(f"{url}: {len(vectors)} vectors for {len(texts)} texts")
        width = len(vectors[0]) if vectors else 0
        dim = body.get("dim", width)
        for vec in vectors:
            if len(vec) != dim:
                raise ProviderError(f"vector length {len(vec)} != declared dim {dim}")
        try:
            return np.array(vectors, dtype=np.float64).reshape(len(vectors), width)
        except OverflowError as exc:  # an integer beyond the float range
            raise ProviderError(f"{url}: a vector entry is out of range: {exc}") from exc


class HashEmbedder:
    """Deterministic mock embedder for tests and offline runs.

    Texts of one match form (`model.match_form`) map to identical unit
    vectors; texts of different forms map to (hash-)distinct vectors, so
    verdicts under this embedder are exactly predictable.
    """

    def __init__(self, dim: int = 32) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # Each text's 8-byte words come from sha256 blocks keyed by a counter.
        blocks = [i.to_bytes(4, "big") for i in range(-(-self.dim // 4))]
        raw = b"".join(
            b"".join(hashlib.sha256(folded + b).digest() for b in blocks)[: 8 * self.dim]
            for folded in (match_form(t).encode("utf-8") for t in texts)
        )
        values = np.frombuffer(raw, ">u8").reshape(len(texts), self.dim) / 2**63 - 1.0
        # Summed column by column, the order of a scalar sum, so the bits match it.
        norms = np.zeros(len(texts))
        for column in (values * values).T:
            norms += column
        return values / np.sqrt(norms)[:, None]
