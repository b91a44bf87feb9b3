"""The package's public names, loaded on first use."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import homedest

from conftest import source_env


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    probe = "import json, sys, homedest; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "homedest" in loaded
    assert [m for m in loaded if m.partition(".")[0] in ("numpy", "homedest") and m != "homedest"] == []


@pytest.mark.parametrize("name", [n for n in homedest.__all__ if n != "__version__"])
def test_each_public_name_is_its_home_modules_object(name):
    value = getattr(homedest, name)
    home = value.__module__
    assert home.startswith("homedest.")
    assert value is getattr(sys.modules[home], name)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from homedest import *", namespace)
    assert set(homedest.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'homedest' has no attribute 'no_such_name'"):
        homedest.no_such_name
    with pytest.raises(ImportError):
        from homedest import no_such_name  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(homedest.__all__) <= set(dir(homedest))
