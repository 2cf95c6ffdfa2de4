"""Spans and counters recorded around the program's layers, from outside.

The package's modules import each other's functions by name, so a function
is wrapped in every `mtbehave` module namespace that binds it: wrapping only
`metrics.bootstrap_ci` would miss every call `build_report` makes, because
`runner` looks the name up in its own namespace. Methods are wrapped on
their class. `restore()` puts every original back.

A span is `[name, start, end, parent, rep]`: `parent` indexes the enclosing
span in the same repetition (-1 at top level). Spans stay in memory until
the repetition ends.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _evaluate_span(args, kwargs) -> str:
    spec = args[0] if args else kwargs.get("spec")
    return f"runner.evaluate.{getattr(spec, 'detector', 'unknown')}"


def _count_texts(counter: str):
    def note(counters, args, kwargs, result):
        texts = args[1] if len(args) > 1 else kwargs.get("texts", ())
        counters[counter] += len(texts)

    return note


def _count_cache_lookup(counters, args, kwargs, result):
    counters["runner.cache.hits" if result is not None else "runner.cache.misses"] += 1


def _count_resamples(counters, args, kwargs, result):
    cfg = kwargs.get("cfg", args[-1] if args else None)
    counters["metrics.resamples"] += getattr(cfg, "k", 0)


def _count_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None and os.path.exists(path):
        counters["model.bytes_written"] += os.path.getsize(path)


# (module, attribute, span name or callable(args, kwargs) -> name, counter hook)
TARGETS = (
    ("config", "load_config", "config.load_config", None),
    ("generation", "generate_suite", "generation.generate_suite", None),
    ("generation", "generate_exhaustive_candidates", "generation.candidates", None),
    ("generation", "generate_contrastive_pair", "generation.candidates", None),
    ("providers", "ReplayProvider.complete", "providers.llm", None),
    ("providers", "HttpChatProvider.complete", "providers.llm", None),
    ("providers", "HashEmbedder.embed", "providers.embed", _count_texts("providers.embed.texts")),
    ("providers", "HttpEmbedder.embed", "providers.embed", _count_texts("providers.embed.texts")),
    ("detection", "CachedEmbedder.embed", "detection.embed_cache",
     _count_texts("detection.embed_cache.requested")),
    ("detection", "match_exhaustive", "detection.match_exhaustive", None),
    ("detection", "judge_contrastive", "detection.judge_contrastive", None),
    ("detection", "max_sim", "detection.max_sim", None),
    ("runner", "translate_all", "runner.translate_all", None),
    ("runner", "evaluate", _evaluate_span, None),
    ("runner", "build_report", "runner.build_report", None),
    ("runner", "TranslationCache.get", "runner.cache.get", _count_cache_lookup),
    ("runner", "TranslationCache.put", "runner.cache.put", None),
    ("runner", "CommandMtAdapter.translate", "runner.adapter", None),
    ("runner", "HttpMtAdapter.translate", "runner.adapter", None),
    ("runner", "FileMtAdapter.translate_cases", "runner.adapter", None),
    ("metrics", "bootstrap_ci", "metrics.bootstrap_ci", _count_resamples),
    ("metrics", "paired_bootstrap", "metrics.paired_bootstrap", _count_resamples),
    ("model", "load_suite", "model.load", None),
    ("model", "load_candidates", "model.load", None),
    ("model", "load_translations", "model.load", None),
    ("model", "load_verdicts", "model.load", None),
    ("model", "save_suite", "model.save", _count_bytes),
    ("model", "save_candidates", "model.save", _count_bytes),
    ("model", "save_translations", "model.save", _count_bytes),
    ("model", "save_verdicts", "model.save", _count_bytes),
)


class Tracer:
    """Records spans and counters for one repetition."""

    def __init__(self, rep: int) -> None:
        self.rep = rep
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.rep]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if note is not None:
                note(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mtbehave" or n.startswith("mtbehave."))]
        for module_name, attr, name, note in TARGETS:
            module = sys.modules.get(f"mtbehave.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(method) if owner_name and owner is not None
                        else getattr(module, attr, None))
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, note)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out
