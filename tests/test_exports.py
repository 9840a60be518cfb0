"""Every name the package and its modules export in ``__all__`` exists: a function
deleted from a module but left in its ``__all__`` breaks ``import *`` and nothing else."""

import importlib
from pathlib import Path

import pytest

import restriction_lab

MODULES = sorted(p.stem for p in Path(restriction_lab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = (restriction_lab if name == "__init__"
              else importlib.import_module(f"restriction_lab.{name}"))
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
