import importlib

import pytest


@pytest.mark.parametrize("name", ["geometry", "fem", "solvers", "game"])
def test_every_exported_name_exists(name):
    # a stale entry would make ``from snwave.<name> import *`` raise
    module = importlib.import_module(f"snwave.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
