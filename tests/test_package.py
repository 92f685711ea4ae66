"""Package surface: each module's __all__ is the one list of its public names."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import rssm

MODULES = ("simplex", "interpolation", "solver", "complexity", "objectives",
           "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"rssm.{name}")
    assert mod.__all__, name
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    mod = importlib.import_module(f"rssm.{name}")
    defined = [attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == mod.__name__]
    assert sorted(set(defined) - set(mod.__all__)) == []


def test_top_level_package_provides_only_the_version():
    public = [attr for attr in vars(rssm) if not attr.startswith("_")]
    # submodules appear as attributes once imported; nothing else is public
    assert all(inspect.ismodule(getattr(rssm, attr)) for attr in public)
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert rssm.__version__ == version.group(1)
