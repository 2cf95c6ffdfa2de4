"""The package's public names: every export resolves."""
from __future__ import annotations

import types

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
