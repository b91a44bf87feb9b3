"""Synthetic population generator: determinism, planted truth, oracle scoring."""

from __future__ import annotations

import pytest

from homedest.atlas import build_atlas
from homedest.attachment import AttachmentScore, compute_scores
from homedest.corpus import Post
from homedest.labeling import label_population
from homedest.synth import (
    DEFAULT_COUNTRIES,
    PopulationSpec,
    TruthRow,
    class_recovery,
    default_spec,
    generate,
    generate_population,
    oracle_scores,
    read_ground_truth,
    token_country,
)

from conftest import YEAR, graph_from_rows, make_post


def small_spec(**overrides):
    base = dict(n_users=240, seed=11, countries=("DE", "ES", "IT", "US"))
    base.update(overrides)
    return default_spec(**base)


class TestSpecValidation:
    def test_defaults_valid(self):
        default_spec().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_users": 0},
            {"migrant_fraction": 1.5},
            {"countries": ("IT",)},
            {"countries": ("IT", "IT")},
            {"country_tag_specificity": 1.2},
            {"noise": -0.1},
            {"tags_per_user": (0, 5)},
            {"tags_per_user": (10, 5)},
            {"class_targets": {"separation": (0.7, 0.5)}},
            {"acc_mix": {"separation": -1.0}},
            {"acc_mix": {"not_a_class": 1.0}},
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            default_spec(**overrides).validate()


class TestGeneration:
    def test_equal_specs_give_equal_populations(self):
        a = generate_population(small_spec())
        b = generate_population(small_spec())
        assert a.posts == b.posts
        assert a.friend_rows == b.friend_rows
        assert a.truth == b.truth
        assert a.pair_rows == b.pair_rows

    def test_seed_changes_output(self):
        a = generate_population(small_spec())
        b = generate_population(small_spec(seed=12))
        assert a.posts != b.posts

    def test_truth_shape(self):
        spec = small_spec(migrant_fraction=0.25)
        pop = generate_population(spec)
        migrants = [t for t in pop.truth.values() if t.is_migrant]
        assert len(pop.truth) == spec.n_users
        assert len(migrants) == round(spec.n_users * 0.25)
        for row in migrants:
            assert row.acc_class in ("assimilation", "integration", "separation", "marginalisation")
            assert row.nationality != row.residence
            assert row.nationality in spec.countries
            assert row.residence in spec.countries
            assert spec.tags_per_user[0] <= row.n_tags <= spec.tags_per_user[1]
        for row in pop.truth.values():
            if not row.is_migrant:
                assert row.acc_class is None
                assert row.planted_ha is None

    def test_tag_volume_matches_truth(self):
        pop = generate_population(small_spec())
        volumes: dict[str, int] = {}
        for post in pop.posts:
            volumes[post.user_id] = volumes.get(post.user_id, 0) + len(post.hashtags)
        for user_id, row in pop.truth.items():
            assert volumes[user_id] == row.n_tags

    def test_tag_posts_carry_no_geo(self):
        pop = generate_population(small_spec())
        for post in pop.posts:
            if post.hashtags:
                assert post.country is None

    def test_pair_rows_cover_all_pairs(self):
        pop = generate_population(small_spec())
        pairs = {(r["country_a"], r["country_b"]) for r in pop.pair_rows}
        assert len(pairs) == 6  # C(4, 2)
        for a, b in pairs:
            assert a < b

    def test_shared_language_pairs_flagged(self):
        pop = generate_population(default_spec(n_users=50))
        flags = {
            (r["country_a"], r["country_b"]): r["comlang_off"] for r in pop.pair_rows
        }
        assert flags[("ES", "MX")] == 1
        assert flags[("GB", "US")] == 1
        assert flags[("DE", "IT")] == 0


class TestLabelRecovery:
    def test_pipeline_labels_match_planted_truth(self):
        pop = generate_population(small_spec())
        graph = graph_from_rows(pop.friend_rows)
        profiles, summary = label_population(pop.posts, graph, YEAR)
        for user_id, row in pop.truth.items():
            profile = profiles[user_id]
            assert profile.residence == row.residence, user_id
            assert profile.nationality == row.nationality, user_id
            assert profile.is_migrant == row.is_migrant, user_id
        assert summary.n_migrants == sum(t.is_migrant for t in pop.truth.values())


class TestTokenCountry:
    def test_country_tokens(self):
        assert token_country("it_tag_0001") == "IT"
        assert token_country("de_tag_0150") == "DE"

    def test_shared_tokens(self):
        assert token_country("intl_tag_0007") is None

    def test_unrecognized_prefix(self):
        assert token_country("xyz_tag_0001") is None
        assert token_country("plain") is None


class TestOracleScores:
    def _truth(self):
        return {
            "m": TruthRow("m", "DE", "IT", "separation", 0.3, 0.2, 10),
            "n": TruthRow("n", "IT", "IT", None, None, None, 3),
        }

    def _posts(self, n_m=10):
        tags = (
            ["it_tag_0001"] * 3 + ["de_tag_0002"] * 2 + ["intl_tag_0003"] * (n_m - 5)
        )
        posts = [make_post("m", i, tags=[t]) for i, t in enumerate(tags)]
        posts.append(make_post("n", 50, tags=["it_tag_0001"] * 3))
        posts.append(make_post("m", 60, year=YEAR - 1, tags=["it_tag_0001"] * 5))
        return posts

    def test_hand_computed_values(self):
        scores = oracle_scores(self._truth(), self._posts(), YEAR)
        assert len(scores) == 1  # the non-migrant is never scored
        s = scores[0]
        assert (s.user_id, s.nationality, s.residence) == ("m", "IT", "DE")
        assert (s.n_hashtags, s.n_home, s.n_dest) == (10, 3, 2)
        assert (s.ha, s.da) == (0.3, 0.2)

    def test_volume_filter(self):
        scores = oracle_scores(self._truth(), self._posts(n_m=9), YEAR)
        assert scores == []
        scores = oracle_scores(self._truth(), self._posts(n_m=9), YEAR, min_hashtags=9)
        assert len(scores) == 1

    def test_prior_year_ignored(self):
        scores = oracle_scores(self._truth(), self._posts(), YEAR)
        assert scores[0].n_home == 3  # the 5 prior-year home tags don't count


class TestClassRecovery:
    def _scores(self, classes):
        return [
            AttachmentScore(f"u{i}", "IT", "DE", 0.3, 0.2, 10, 3, 2, acc_class=c)
            for i, c in enumerate(classes)
        ]

    def _truth(self, classes):
        return {
            f"u{i}": TruthRow(f"u{i}", "DE", "IT", c, 0.3, 0.2, 10)
            for i, c in enumerate(classes)
        }

    def test_fraction(self):
        planted = ["separation", "assimilation", "integration", "marginalisation"]
        guessed = ["separation", "assimilation", "integration", "separation"]
        assert class_recovery(self._scores(guessed), self._truth(planted)) == 0.75

    def test_unclassified_users_skipped(self):
        planted = ["separation", "separation"]
        scores = self._scores(["separation", None])
        assert class_recovery(scores, self._truth(planted)) == 1.0

    def test_nothing_to_judge(self):
        with pytest.raises(ValueError):
            class_recovery(self._scores([None]), self._truth(["separation"]))


class TestEndToEndOnSynthetic:
    def test_pure_specificity_matches_oracle_exactly(self):
        spec = small_spec(country_tag_specificity=1.0, noise=0.0)
        pop = generate_population(spec)
        graph = graph_from_rows(pop.friend_rows)
        profiles, _ = label_population(pop.posts, graph, spec.year)
        atlas = build_atlas(pop.posts, profiles, spec.year)
        pipeline = compute_scores(pop.posts, profiles, atlas, spec.year)
        oracle = oracle_scores(pop.truth, pop.posts, spec.year)
        assert len(pipeline) == len(oracle) > 0
        for mine, ref in zip(pipeline, oracle):
            assert mine.user_id == ref.user_id
            assert mine.ha == ref.ha
            assert mine.da == ref.da
            assert mine.n_hashtags == ref.n_hashtags


def test_write_and_read_round_trip(tmp_path):
    spec = small_spec(n_users=60)
    paths = generate(spec, tmp_path)
    assert set(paths) == {"posts", "friends", "ground_truth", "pair_covariates"}
    for path in paths.values():
        assert path.exists()

    truth = read_ground_truth(paths["ground_truth"])
    pop = generate_population(spec)
    assert truth == pop.truth

    with open(paths["posts"]) as handle:
        n_lines = sum(1 for _ in handle)
    assert n_lines == len(pop.posts)

    with open(paths["friends"]) as handle:
        header = handle.readline().strip()
    assert header == "user_id,friend_id"
