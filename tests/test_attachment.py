"""Attachment scoring, acculturation quadrants, and language cohorts."""

from __future__ import annotations

import copy
import re

import pytest

from homedest.attachment import (
    ASSIMILATION,
    INTEGRATION,
    MARGINALISATION,
    SEPARATION,
    AttachmentScore,
    apply_acculturation,
    atlas_coverage,
    classify_acculturation,
    compute_scores,
    language_cohorts,
    read_scores,
    write_scores,
)
from homedest.corpus import Corpus
from homedest.tables import TableError

from conftest import YEAR, make_post


class TestComputeScores:
    def test_micro_corpus_values(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=10)
        assert len(scores) == 1
        s = scores[0]
        assert (s.user_id, s.nationality, s.residence) == ("m1", "IT", "DE")
        assert (s.n_hashtags, s.n_home, s.n_dest) == (10, 3, 2)
        assert s.ha == 0.3 and s.da == 0.2

    def test_volume_filter_boundary(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        assert compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=11) == []
        kept = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=10)
        assert len(kept) == 1
        with pytest.raises(ValueError, match="min_hashtags must be >= 1, got 0"):
            compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=0)

    def test_non_migrants_never_scored(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        assert [s.user_id for s in scores] == ["m1"]

    def test_unknown_tokens_stay_in_denominator(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        (s,) = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        # xyzq is absent from the atlas but still one of the 10 uses.
        assert s.n_home + s.n_dest < s.n_hashtags

    def test_year_filter(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        assert compute_scores(corpus, profiles, atlas, YEAR - 1, min_hashtags=1) == []


class TestAtlasCoverage:
    def test_micro_corpus(self, micro_pipeline):
        # m1: roma x3 (home IT), berlin x2 (destination DE), pizza x4 (international), xyzq x1 (not in the atlas).
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR)
        assert list(atlas_coverage(corpus, scores, atlas, YEAR).values()) == [3, 2, 0, 4, 1]

    def test_other_country(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR)
        atlas = {**atlas, "pizza": atlas["pizza"]._replace(assignment="FR")}
        assert atlas_coverage(corpus, scores, atlas, YEAR) == {
            "home": 3, "destination": 2, "other country": 4, "international": 0, "not in the atlas": 1,
        }


class TestQuadrants:
    def test_four_corners(self):
        assert classify_acculturation(0.8, 0.8, 0.5, 0.5) == INTEGRATION
        assert classify_acculturation(0.8, 0.2, 0.5, 0.5) == SEPARATION
        assert classify_acculturation(0.2, 0.8, 0.5, 0.5) == ASSIMILATION
        assert classify_acculturation(0.2, 0.2, 0.5, 0.5) == MARGINALISATION

    def test_split_itself_is_low(self):
        # "High" means strictly greater than the split.
        assert classify_acculturation(0.5, 0.5, 0.5, 0.5) == MARGINALISATION
        assert classify_acculturation(0.5, 0.6, 0.5, 0.5) == ASSIMILATION

    def test_apply_with_median_defaults(self):
        scores = [
            _score("a", ha=0.6, da=0.1),
            _score("b", ha=0.1, da=0.6),
            _score("c", ha=0.4, da=0.4),
            _score("d", ha=0.05, da=0.05),
        ]
        before = copy.deepcopy(scores)
        classified, ha_split, da_split = apply_acculturation(scores)
        assert ha_split == 0.25 and da_split == 0.25
        assert [s.acc_class for s in classified] == [
            SEPARATION,
            ASSIMILATION,
            INTEGRATION,
            MARGINALISATION,
        ]
        assert classified == [s._replace(acc_class=c.acc_class) for s, c in zip(scores, classified)]
        assert scores == before and all(s.acc_class is None for s in scores)

    def test_apply_empty_raises(self):
        with pytest.raises(ValueError):
            apply_acculturation([])


def _score(user, ha, da, nationality="IT", residence="DE", n_hashtags=20):
    return AttachmentScore(
        user_id=user,
        nationality=nationality,
        residence=residence,
        ha=ha,
        da=da,
        n_hashtags=n_hashtags,
        n_home=int(ha * n_hashtags),
        n_dest=int(da * n_hashtags),
    )


def _corpus(**posts_in):
    """A Corpus where each user posts ``n`` times in each language of their {language: n}; None is untagged."""
    posts = [
        make_post(user, day, lang=lang)
        for user, counts in posts_in.items()
        for lang, n in counts.items()
        for day in range(n)
    ]
    return Corpus.from_posts(posts)


class TestLanguageCohorts:
    def test_split_rules(self):
        scores = [_score(u, 0.3, 0.3) for u in ("hi", "lo", "mid", "edge_hi", "edge_lo")]
        corpus = _corpus(
            hi={"de": 19, "it": 1},
            lo={"de": 1, "it": 49},
            mid={"de": 1, "it": 1},
            edge_hi={"de": 9, "it": 1},  # exactly 0.9
            edge_lo={"de": 1, "it": 9},  # exactly 0.1
        )
        before = copy.deepcopy(scores)
        rows, n_missing_language, n_untagged = language_cohorts(scores, corpus, {"DE": "de"})
        assert [(s.user_id, s.speaks_dest_lang) for s in rows] == [
            ("hi", True), ("lo", False), ("mid", None), ("edge_hi", True), ("edge_lo", False),
        ]
        assert rows == [s._replace(speaks_dest_lang=r.speaks_dest_lang) for s, r in zip(scores, rows)]
        assert (n_missing_language, n_untagged) == (0, 0)
        assert scores == before and all(s.speaks_dest_lang is None for s in scores)

    def test_missing_residence_language(self):
        scores = [_score("u", 0.3, 0.3, residence="ZW")]
        assert language_cohorts(scores, _corpus(u={"de": 1}), {"DE": "de"}) == (scores, 1, 0)

    def test_a_migrant_without_a_language_tagged_post_is_unclassified(self):
        scores = [_score("untagged", 0.3, 0.3), _score("lo", 0.3, 0.3)]
        rows, n_missing_language, n_untagged = language_cohorts(
            scores, _corpus(untagged={None: 3}, lo={"it": 1}), {"DE": "de"}
        )
        assert [(s.user_id, s.speaks_dest_lang) for s in rows] == [("untagged", None), ("lo", False)]
        assert (n_untagged, n_missing_language) == (1, 0)


def test_scores_round_trip(tmp_path):
    scores = [
        _score("a", ha=0.25, da=0.5)._replace(acc_class=ASSIMILATION, speaks_dest_lang=True),
        _score("b", ha=1 / 3, da=0.0, n_hashtags=3),
    ]
    path = tmp_path / "scores.csv"
    write_scores(path, scores, ["header"])
    loaded = read_scores(path)
    assert loaded == scores


def test_scores_with_a_repeated_user_refused(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores(path, [_score("a", 0.1, 0.2), _score("b", 0.3, 0.1), _score("a", 0.1, 0.2)], ["h"])
    with pytest.raises(TableError, match=f"^{re.escape(str(path))}: line 5: user_id a repeats line 3$"):
        read_scores(path)


@pytest.mark.parametrize(
    "counts, rule",
    [
        ((0, 0, 0), "n_hashtags >= 1"),
        ((5, -1, 2), "no negative count"),
        ((5, 2, -1), "no negative count"),
        ((5, 3, 3), "n_home + n_dest <= n_hashtags"),
        ((-2, 0, 0), "n_hashtags >= 1"),
    ],
    ids=["no uses", "negative n_home", "negative n_dest", "more home and dest than uses", "negative n_hashtags"],
)
def test_scores_with_counts_that_cannot_be_a_score_refused(tmp_path, counts, rule):
    path = tmp_path / "scores.csv"
    n_hashtags, n_home, n_dest = counts
    score = _score("b", 0.0, 0.0)._replace(n_hashtags=n_hashtags, n_home=n_home, n_dest=n_dest)
    write_scores(path, [_score("a", 0.1, 0.2), score], ["h"])
    with pytest.raises(TableError, match=f"^{re.escape(str(path))}: line 4: user_id b breaks the rule {re.escape(rule)}$"):
        read_scores(path)
