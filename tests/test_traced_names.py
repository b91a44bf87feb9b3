"""The library keeps the names that the traced benchmark harness wraps.

``bench/traced.py`` wraps, once at start-up, each public layer function that
``homedest.cli``, ``homedest.nullmodel`` or ``homedest.covariates`` holds
under a module-level name, and names its span after the function's own
module and name. A function it expects that has moved leaves its metrics
null; one that no patched module holds (imported inside a function, say) is
never wrapped, and its metrics read zero or null.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def traced():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("traced", BENCH / "traced.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_every_expected_function_exists(traced):
    assert traced.absent_functions() == set()


def test_a_patched_module_holds_every_expected_function(traced):
    held = set()
    for target in traced.PATCHED:
        for name, value in vars(importlib.import_module(target)).items():
            if not name.startswith("_") and inspect.isfunction(value):
                package, _, layer = value.__module__.rpartition(".")
                if package == "homedest":
                    held.add(f"{layer}.{value.__name__}")
    assert traced.EXPECTED - {traced.COUNTED} - held == set()
