"""Memory budgets of the stages that hold the corpus, and of the profiles.

Each stage's budget bounds its transient: the bytes its traced peak lies
above what it keeps once it returns, per post or per selected hashtag use.
The profiles' budget bounds what ``read_profiles`` keeps, per user. numpy
reports its buffers to tracemalloc, so on one seeded population these
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
from homedest.labeling import label_population, language_shares, read_profiles, write_profiles
from homedest.synth import PopulationSpec, generate_population, write_population

SPEC = PopulationSpec(n_users=1000, seed=11)

# Measured: 12.4 and 13.5 bytes per post, 14.7 per non-migrant use in the year, 6.4 and 14.0 per post, 272 per user.
BUDGETS = {
    "load_posts": 17.0,  # bytes per post
    "label_population": 16.0,  # bytes per post
    "build_atlas": 20.0,  # bytes per use by a non-migrant in the year
    "compute_scores": 9.0,  # bytes per post
    "language_shares": 19.0,  # bytes per post
    "read_profiles": 363.0,  # bytes kept per user
}


def traced(function, *args):
    """``function(*args)``, the bytes it kept, and the bytes its traced peak lay above them."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, kept - before, peak - kept


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Each budget's bytes, and the posts, non-migrant uses or users they are counted against."""
    out = tmp_path_factory.mktemp("memory")
    write_population(generate_population(SPEC), out)
    (corpus, _), _, load = traced(load_posts, out / "posts.jsonl")
    friends = load_friends(out / "friends.csv")
    (profiles, _), _, label = traced(label_population, corpus, friends, SPEC.year)
    atlas, _, atlas_bytes = traced(build_atlas, corpus, profiles, SPEC.year)
    _, _, score = traced(compute_scores, corpus, profiles, atlas, SPEC.year)
    _, _, shares = traced(list, language_shares(corpus))
    write_profiles(out / "profiles.csv", profiles)
    _, kept_profiles, _ = traced(read_profiles, out / "profiles.csv")
    natives = np.array([profiles[user_id].is_migrant is False for user_id in corpus.users])
    n_native_uses = len(corpus.uses(SPEC.year, natives)[0])
    return {
        "load_posts": (load, corpus.n_posts),
        "label_population": (label, corpus.n_posts),
        "build_atlas": (atlas_bytes, n_native_uses),
        "compute_scores": (score, corpus.n_posts),
        "language_shares": (shares, corpus.n_posts),
        "read_profiles": (kept_profiles, len(profiles)),
    }


@pytest.mark.parametrize("stage", BUDGETS)
def test_stage_stays_within_its_memory_budget(measured, stage):
    nbytes, per = measured[stage]
    assert per > 0
    assert nbytes / per <= BUDGETS[stage], f"{stage}: {nbytes} bytes over {per}"

