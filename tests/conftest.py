"""Shared fixtures: a small handmade corpus and the cached default pipeline run."""

from __future__ import annotations

import os
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from homedest.atlas import build_atlas
from homedest.attachment import compute_scores
from homedest.corpus import Corpus, FriendGraph, Post
from homedest.labeling import label_population
from homedest.nullmodel import null_distribution
from homedest.synth import default_spec, generate_population

YEAR = 2018


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a test's subprocess."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def make_post(user, day, cc=None, lang=None, tags=(), year=YEAR):
    ts = datetime(year, 1, 1, 12, 0, 0, tzinfo=timezone.utc) + timedelta(days=day)
    return Post(user_id=user, timestamp=ts, country=cc, language=lang, hashtags=tuple(tags))


@pytest.fixture
def micro_corpus():
    """One IT->DE migrant among IT/DE/FR non-migrants with a tiny vocabulary.

    Hand-checkable facts: the atlas assigns roma->IT and berlin->DE (single
    country, zero entropy), pizza is international (three countries), and
    xyzq is used by no non-migrant. m1 uses roma x3, berlin x2, pizza x4,
    xyzq x1, so HA = 0.3 and DA = 0.2 over exactly 10 uses.
    """
    posts = []
    # IT non-migrants: geo days this year and last, shared vocabulary.
    for i, user in enumerate(("n_it1", "n_it2", "n_it3")):
        for d in range(5):
            posts.append(make_post(user, 20 * i + d, cc="IT", lang="it"))
        posts.append(make_post(user, 70 + i, cc="IT", lang="it", year=YEAR - 1))
    posts.append(make_post("n_it1", 100, tags=["roma", "pizza"]))
    posts.append(make_post("n_it2", 101, tags=["roma", "pizza", "pizza"]))
    posts.append(make_post("n_it3", 102, tags=["pizza"]))
    # DE non-migrants.
    for i, user in enumerate(("n_de1", "n_de2")):
        for d in range(5):
            posts.append(make_post(user, 30 * i + d, cc="DE", lang="de"))
        posts.append(make_post(user, 80 + i, cc="DE", lang="de", year=YEAR - 1))
    posts.append(make_post("n_de1", 110, tags=["berlin", "pizza"]))
    posts.append(make_post("n_de2", 111, tags=["berlin", "pizza"]))
    # One FR non-migrant, no friends at all.
    for d in range(4):
        posts.append(make_post("n_fr1", 50 + d, cc="FR", lang="fr"))
    posts.append(make_post("n_fr1", 120, tags=["pizza"]))
    # The migrant: last-year geo at home (IT), this-year geo at the
    # destination (DE), hashtags without geo.
    for d in range(6):
        posts.append(make_post("m1", 10 + d, cc="IT", lang="it", year=YEAR - 1))
    for d in range(4):
        posts.append(make_post("m1", 40 + d, cc="DE", lang="de"))
    posts.append(make_post("m1", 130, lang="it", tags=["roma", "roma"]))
    posts.append(make_post("m1", 131, lang="it", tags=["roma", "berlin"]))
    posts.append(make_post("m1", 132, lang="de", tags=["berlin", "pizza", "pizza"]))
    posts.append(make_post("m1", 133, lang="de", tags=["pizza", "pizza", "xyzq"]))

    friend_rows = [
        ("m1", "n_it1"),
        ("m1", "n_it2"),
        ("m1", "n_it3"),
        ("m1", "n_de1"),
        ("n_it1", "n_it2"),
        ("n_it2", "n_it1"),
        ("n_it3", "n_it1"),
        ("n_de1", "n_de2"),
        ("n_de2", "n_de1"),
    ]
    return posts, FriendGraph.from_pairs(friend_rows)


@pytest.fixture
def micro_pipeline(micro_corpus):
    posts, graph = micro_corpus
    corpus = Corpus.from_posts(posts)
    profiles, _ = label_population(corpus, graph, YEAR)
    atlas = build_atlas(corpus, profiles, YEAR)
    return corpus, profiles, atlas


class DefaultRun:
    """Everything the acceptance suite needs from the reference population."""

    def __init__(self):
        start = time.perf_counter()
        self.spec = default_spec()
        self.population = generate_population(self.spec)
        graph = FriendGraph.from_pairs(self.population.friend_rows)
        self.corpus = Corpus.from_posts(self.population.posts)
        self.profiles, self.summary = label_population(self.corpus, graph, self.spec.year)
        self.atlas = build_atlas(self.corpus, self.profiles, self.spec.year)
        self.scores = compute_scores(self.corpus, self.profiles, self.atlas, self.spec.year)
        self.null_runs = null_distribution(
            self.corpus,
            self.scores,
            self.atlas,
            self.spec.year,
            replicates=5,
            seed=0,
        )
        self.build_seconds = time.perf_counter() - start


@pytest.fixture(scope="session")
def default_run():
    return DefaultRun()
