"""Exception hierarchy shared across the package: one class per way a failure is handled.

Each class carries the CLI exit code and the stderr label it ends in: ConfigError -> 1,
ProviderError -> 2 (but an MT adapter's excludes that adapter's cases in `translate_all`),
every other error -> 3. A file that cannot be read or written is one of these, naming the path
and the reason: the config file and prompt templates 1, replay files 2, every other read and
every write 3 (see `model._file_errors`).
"""
from __future__ import annotations


class MtBehaveError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    label = "data error"


class ConfigError(MtBehaveError):
    """Invalid configuration or command usage."""

    exit_code = 1
    label = "error"


class ProviderError(MtBehaveError):
    """An LLM, embedding provider or MT system adapter failed (after retries)."""

    exit_code = 2
    label = "provider error"


class NoCandidatesError(MtBehaveError):
    """The LLM left a value without candidates. `reason` is the `candidates_summary.json`
    key the value is listed under: "unanswerable" (an "NA") or "empty_after_parse"."""

    def __init__(self, reason: str, message: str) -> None:
        self.reason = reason
        super().__init__(message)


class DataInvariantError(MtBehaveError):
    """Loaded or constructed data broke an invariant, or a file could not be read or written."""


class BracketParseError(DataInvariantError, ValueError):
    """A generated line or a case's `raw` could not be parsed into one bracketed value.

    `reason` is the `genlog.json` rejection key: "unbalanced", "no_value",
    "multi_value" or "empty_value".
    """

    def __init__(self, reason: str, raw: str) -> None:
        self.reason = reason
        self.raw = raw
        super().__init__(f"{reason}: {raw!r}")
