"""Memory budgets of the stages that hold the corpus.

Each budget bounds a stage's transient: the bytes its traced peak lies
above what it keeps once it returns, per post or per selected hashtag use.
numpy reports its buffers to tracemalloc, so on one seeded population these
counts barely move from run to run, unlike RSS. Each bound is the value measured on the population
below (Python 3.11, numpy 2.4) plus about a third, rounded up; a whole-length
int64 temporary of the keys, or a second copy of a column, breaks it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from homedest.atlas import build_atlas
from homedest.attachment import compute_scores
from homedest.corpus import load_friends, load_posts
from homedest.labeling import label_population
from homedest.synth import PopulationSpec, generate_population, write_population

SPEC = PopulationSpec(n_users=1000, seed=11)

# Measured: 12.4 and 12.0 bytes per post, 14.7 per non-migrant use in the year, 6.4 per post.
BUDGETS = {
    "load_posts": 17.0,  # bytes per post
    "label_population": 16.0,  # bytes per post
    "build_atlas": 20.0,  # bytes per use by a non-migrant in the year
    "compute_scores": 9.0,  # bytes per post
}


def transient(function, *args):
    """``function(*args)``, and the bytes its traced peak lay above what it kept."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = function(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - kept


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Each stage's transient, and the posts and non-migrant uses it is counted against."""
    out = tmp_path_factory.mktemp("memory")
    write_population(generate_population(SPEC), out)
    (corpus, _), load = transient(load_posts, out / "posts.jsonl")
    friends = load_friends(out / "friends.csv")
    (profiles, _), label = transient(label_population, corpus, friends, SPEC.year)
    atlas, atlas_bytes = transient(build_atlas, corpus, profiles, SPEC.year)
    _, score = transient(compute_scores, corpus, profiles, atlas, SPEC.year)
    natives = np.array([profiles[user_id].is_migrant is False for user_id in corpus.users])
    n_native_uses = len(corpus.uses(SPEC.year, natives)[0])
    return {
        "load_posts": (load, corpus.n_posts),
        "label_population": (label, corpus.n_posts),
        "build_atlas": (atlas_bytes, n_native_uses),
        "compute_scores": (score, corpus.n_posts),
    }


@pytest.mark.parametrize("stage", BUDGETS)
def test_stage_stays_within_its_memory_budget(measured, stage):
    nbytes, per = measured[stage]
    assert per > 0
    assert nbytes / per <= BUDGETS[stage], f"{stage}: {nbytes} bytes over {per}"

