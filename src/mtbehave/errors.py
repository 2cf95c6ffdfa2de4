"""Exception hierarchy shared across the package.

Each class carries the CLI exit code and the stderr label it ends in:
ConfigError -> 1, ProviderError (and subclasses) -> 2, every other error -> 3.
A file that cannot be read or written is one of these, naming the path and the
reason: the config file and prompt templates 1, replay files 2, every other read
and every write 3 (see `model._file_errors`).
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
    """An LLM or embedding provider failed (after retries)."""

    exit_code = 2
    label = "provider error"


class AdapterError(ProviderError):
    """An MT system adapter failed (after retries)."""


class MaxBatchesExceededError(ProviderError):
    """Suite generation hit the batch safety cap before reaching its target."""


class UnanswerableValueError(MtBehaveError):
    """The LLM declined a candidate-generation request by answering "NA"."""

    def __init__(self, value: str, side: str = "") -> None:
        self.value = value
        self.side = side
        detail = f" ({side})" if side else ""
        super().__init__(f"candidate generation for value {value!r} answered NA{detail}")


class EmptyAfterParseError(MtBehaveError):
    """A candidate response parsed to an empty set."""


class DataInvariantError(MtBehaveError):
    """A domain invariant was violated by loaded or constructed data."""


class SuiteLoadError(DataInvariantError):
    """A file could not be read, written or parsed; the message names the path."""


class BracketParseError(DataInvariantError, ValueError):
    """A generated line or a case's `raw` could not be parsed into one bracketed value.

    `reason` is the `genlog.json` rejection key: "unbalanced", "no_value",
    "multi_value" or "empty_value".
    """

    def __init__(self, reason: str, raw: str) -> None:
        self.reason = reason
        self.raw = raw
        super().__init__(f"{reason}: {raw!r}")
