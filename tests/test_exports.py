"""The package's export list: each name once, and each resolving on ``refsys``."""
from __future__ import annotations

import refsys


def test_all_has_no_duplicates():
    assert len(refsys.__all__) == len(set(refsys.__all__))


def test_every_exported_name_resolves():
    assert [name for name in refsys.__all__ if not hasattr(refsys, name)] == []
