"""Shuffle null-model unit tests."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from homedest.attachment import compute_scores
from homedest.corpus import Corpus
from homedest.nullmodel import (
    ShuffleRun,
    null_distribution,
    pooled,
    read_null_indices,
    shuffle_hashtags,
    write_null_scores,
)
from homedest.tables import TableError

from conftest import YEAR, make_post


def _tag_multiset(posts, users=None, year=None):
    out = Counter()
    for post in posts:
        if users is not None and post.user_id not in users:
            continue
        if year is not None and post.year != year:
            continue
        out.update(post.hashtags)
    return out


def _per_user_volume(posts, year=None):
    out = Counter()
    for post in posts:
        if year is None or post.year == year:
            out[post.user_id] += len(post.hashtags)
    return out


class TestShuffle:
    def make_posts(self):
        return [
            make_post("a", 1, tags=["t1", "t2"]),
            make_post("a", 2, cc="IT", tags=["t3"]),
            make_post("b", 3, tags=["t4", "t5", "t6"]),
            make_post("b", 4, year=YEAR - 1, tags=["old1"]),
            make_post("c", 5, tags=["t7"]),
        ]

    def test_pool_and_volumes_preserved(self):
        posts = self.make_posts()
        shuffled = shuffle_hashtags(posts, seed=3, year=YEAR)
        assert _tag_multiset(shuffled, year=YEAR) == _tag_multiset(posts, year=YEAR)
        assert _per_user_volume(shuffled) == _per_user_volume(posts)

    def test_year_filter_leaves_history_alone(self):
        posts = self.make_posts()
        shuffled = shuffle_hashtags(posts, seed=3, year=YEAR)
        assert shuffled[3] is posts[3]

    def test_user_filter(self):
        posts = self.make_posts()
        shuffled = shuffle_hashtags(posts, seed=5, year=YEAR, users={"a", "b"})
        assert shuffled[4] is posts[4]  # c untouched
        assert _tag_multiset(shuffled, users={"a", "b"}, year=YEAR) == _tag_multiset(
            posts, users={"a", "b"}, year=YEAR
        )

    def test_non_tag_fields_untouched(self):
        posts = self.make_posts()
        shuffled = shuffle_hashtags(posts, seed=9, year=YEAR)
        for before, after in zip(posts, shuffled):
            assert before.user_id == after.user_id
            assert before.timestamp == after.timestamp
            assert before.country == after.country
            assert before.language == after.language

    def test_deterministic_per_seed(self):
        posts = self.make_posts()
        assert shuffle_hashtags(posts, seed=11) == shuffle_hashtags(posts, seed=11)
        # 7 in-pool tags: a different seed almost surely produces a
        # different deal; these two do.
        assert shuffle_hashtags(posts, seed=11) != shuffle_hashtags(posts, seed=12)

    def test_canonical_write_back(self):
        posts = [make_post("a", 1, tags=["#Roma"]), make_post("b", 2, tags=["x"])]
        shuffled = shuffle_hashtags(posts, seed=0)
        # "x" canonicalizes to None and never enters the pool; "#Roma" is
        # written back canonical.
        assert shuffled[0].hashtags == ("roma",)
        assert shuffled[1].hashtags == ("x",)


class TestNullDistribution:
    def test_replicates_and_derived_seeds(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        runs = null_distribution(corpus, scores, atlas, YEAR, replicates=3, seed=100)
        assert [r.seed for r in runs] == [100, 101, 102]
        assert [r.replicate_index for r in runs] == [0, 1, 2]
        for run in runs:
            assert len(run.scores0) == 1  # volumes preserved, same user scored
            assert run.scores0[0].n_hashtags == 10

    def test_scored_population_excludes_others(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        (real,) = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        runs = null_distribution(corpus, [real], atlas, YEAR, replicates=1, seed=0)
        # Only m1 is scored, so the shuffle is a permutation of m1's own
        # 10 uses: multiset unchanged, hence identical scores.
        (s0,) = runs[0].scores0
        assert (s0.ha, s0.da) == (real.ha, real.da)

    def test_all_population_mixes_tokens(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        seen = set()
        for seed in range(20):
            runs = null_distribution(
                corpus,
                scores,
                atlas,
                YEAR,
                replicates=1,
                seed=seed,
                shuffle_population="all",
            )
            (s0,) = runs[0].scores0
            seen.add((s0.ha, s0.da))
        assert len(seen) > 1  # non-migrant tokens now reach the migrant

    def test_validation(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        with pytest.raises(ValueError):
            null_distribution(corpus, scores, atlas, YEAR, replicates=0)
        with pytest.raises(ValueError):
            null_distribution(corpus, scores, atlas, YEAR, shuffle_population="some")

    @pytest.mark.parametrize("field, year", [("n_home", YEAR), ("n_dest", YEAR), ("n_hashtags", YEAR), (None, YEAR - 1)])
    def test_a_row_that_does_not_fit_is_refused(self, micro_pipeline, field, year):
        corpus, profiles, atlas = micro_pipeline
        (real,) = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        if field:
            real = real._replace(**{field: getattr(real, field) + 1})
        with pytest.raises(ValueError, match=rf"^user_id m1: its row holds .* but the posts, atlas and year {year} give"):
            null_distribution(corpus, [real], atlas, year)

    @pytest.mark.parametrize("population", ["scored", "all"])
    def test_replicate_rescores_the_shuffled_posts(self, default_run, population):
        """A replicate scores exactly what shuffling the posts with its seed gives."""
        posts = default_run.population.posts
        profiles, atlas, year = default_run.profiles, default_run.atlas, default_run.spec.year
        runs = null_distribution(
            default_run.corpus, default_run.scores, atlas, year, replicates=2, seed=7, shuffle_population=population
        )
        users = None if population == "all" else {s.user_id for s in default_run.scores}
        for run in runs:
            shuffled = shuffle_hashtags(posts, run.seed, year=year, users=users)
            assert run.scores0 == compute_scores(Corpus.from_posts(shuffled), profiles, atlas, year)

    def test_pooled(self, micro_pipeline):
        corpus, profiles, atlas = micro_pipeline
        scores = compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1)
        runs = null_distribution(corpus, scores, atlas, YEAR, replicates=4, seed=0)
        assert len(pooled(runs, "ha")) == 4
        with pytest.raises(ValueError):
            pooled(runs, "zz")


def test_shuffle_expectation_matches_enumeration(micro_corpus, micro_pipeline):
    """Average null HA over many replicates approaches the exact expectation.

    Under a uniform permutation each of m1's 10 slots holds a token drawn
    from the pooled in-year multiset without replacement, so by symmetry
    E[HA0] is simply the pool fraction of home-assigned tokens (and E[DA0]
    the destination fraction).
    """
    posts, _ = micro_corpus
    corpus, profiles, atlas = micro_pipeline
    pool = Counter()
    for post in posts:
        if post.year == YEAR:
            pool.update(post.hashtags)
    total = sum(pool.values())
    expected_ha = sum(n for t, n in pool.items() if atlas.get(t) and atlas[t].assignment == "IT") / total
    expected_da = sum(n for t, n in pool.items() if atlas.get(t) and atlas[t].assignment == "DE") / total

    runs = null_distribution(
        corpus,
        compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=1),
        atlas,
        YEAR,
        replicates=400,
        seed=1,
        shuffle_population="all",
    )
    ha0 = pooled(runs, "ha")
    da0 = pooled(runs, "da")
    assert sum(ha0) / len(ha0) == pytest.approx(expected_ha, abs=0.03)
    assert sum(da0) / len(da0) == pytest.approx(expected_da, abs=0.03)


class TestReadNullIndices:
    """The null table is read only as the null of the migrants it is given, in their order."""

    @staticmethod
    def write(path):
        who = [("a", "IT", "DE"), ("b", "DE", "FR"), ("c", "FR", "IT")]
        n_hashtags, n_home, n_dest = np.array([4, 4, 4]), np.array([1, 2, 3]), np.array([0, 1, 1])
        write_null_scores(path, [ShuffleRun(i, i, who, n_hashtags, n_home, n_dest) for i in range(2)])

    def test_the_null_of_its_migrants(self, tmp_path):
        self.write(tmp_path / "null.csv")
        ha, da = read_null_indices(tmp_path / "null.csv", ["a", "b", "c"], "scores.csv")
        assert ha.tolist() == [0.25, 0.5, 0.75] * 2
        assert da.tolist() == [0.0, 0.25, 0.25] * 2

    @pytest.mark.parametrize(
        "user_ids",
        [["a", "c", "b"], ["a", "b"], ["a", "b", "c", "d"], ["b", "c", "a"], []],
        ids=["reordered", "fewer", "more", "rotated", "none"],
    )
    def test_the_null_of_other_migrants_is_refused(self, tmp_path, user_ids):
        self.write(tmp_path / "null.csv")
        message = f"null.csv: its 6 rows are not whole replicate blocks of the {len(user_ids)} migrants of scores.csv"
        with pytest.raises(TableError, match=message):
            read_null_indices(tmp_path / "null.csv", user_ids, "scores.csv")
