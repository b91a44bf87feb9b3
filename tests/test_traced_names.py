"""The library keeps the names that the traced benchmark harness wraps.

``bench/traced.py`` wraps, once at start-up, each public layer function that
``homedest.cli``, ``homedest.nullmodel`` or ``homedest.covariates`` holds
under a module-level name, and names its span after the function's own
module and name. A function it expects that has moved leaves its metrics
null; one that no patched module holds (imported inside a function, say) is
never wrapped, and its metrics read zero or null. A span's facts are drawn
from the function's return value, and a changed return shape drops them
silently, so each extractor is run here on a real return value.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from numbers import Real
from pathlib import Path

import pytest

from homedest.atlas import build_atlas
from homedest.attachment import compute_scores
from homedest.corpus import load_posts, write_posts
from homedest.covariates import join_covariates, load_hofstede
from homedest.labeling import label_population
from homedest.nullmodel import null_distribution
from homedest.stats import ks_two_sample, pearson, spearman, wilcoxon_rank_sum

from conftest import YEAR

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


def test_every_facts_extractor_reads_its_function(traced, micro_corpus, tmp_path):
    posts, friends = micro_corpus
    write_posts(tmp_path / "posts.jsonl", posts)
    results = {"corpus.load_posts": load_posts(tmp_path / "posts.jsonl")}
    corpus = results["corpus.load_posts"][0]
    results["labeling.label_population"] = label_population(corpus, friends, YEAR)
    profiles = results["labeling.label_population"][0]
    atlas = results["atlas.build_atlas"] = build_atlas(corpus, profiles, YEAR)
    scores = results["attachment.compute_scores"] = compute_scores(corpus, profiles, atlas, YEAR)
    results["nullmodel.null_distribution"] = null_distribution(corpus, scores, atlas, YEAR, replicates=2, seed=0)
    results["covariates.join_covariates"] = join_covariates(scores, load_hofstede())
    x, y = [0.1, 0.4, 0.2, 0.9], [0.3, 0.5, 0.8, 0.7, 0.6]
    for test in (wilcoxon_rank_sum, ks_two_sample):
        results[f"stats.{test.__name__}"] = test(x, y)
    for test in (pearson, spearman):
        results[f"stats.{test.__name__}"] = test(x, y[:4])
    assert set(results) == set(traced.FACTS)
    for name, result in results.items():
        facts = traced.FACTS[name](result)
        assert isinstance(facts, dict) and facts, name
        assert all(isinstance(value, Real) and not isinstance(value, bool) for value in facts.values()), (name, facts)
