"""Synthetic population generator: determinism, planted truth, oracle scoring."""

from __future__ import annotations

import hashlib

import pytest

from homedest.atlas import build_atlas
from homedest.attachment import AttachmentScore, compute_scores
from homedest.corpus import Corpus, FriendGraph
from homedest.labeling import label_population
from homedest.synth import (
    DEFAULT_COUNTRIES,
    PopulationSpec,
    TruthRow,
    class_recovery,
    default_spec,
    generate_population,
    oracle_scores,
    read_ground_truth,
    token_country,
    write_population,
)

from conftest import YEAR, make_post


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
            {"year": 1970},
            {"year": 2100},
            {"year": 0},
            {"countries": ("IT", "DE", "ZZ")},
            {"countries": ("it", "de")},
            {"seed": -1},
            {"n_users": 5.5},
            {"tags_per_user": (1, 2.5)},
            {"tags_per_user": (1.0, 3)},
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

    # sha256 of the four files write_population writes. c5-c8 and the bench
    # digests rest on this exact draw stream, so a change here is never a
    # re-pin by itself: it moves every acceptance seed as well.
    PINNED = {
        True: {
            "posts": "4dd534b6a4a0ae42a4789a37ef80379cfaa4fb4e0233dcb59ddd737dbd1513de",
            "friends": "527501f572e5d407716eb206ef9493d5fd03f55efeb87687449c3015716c9b7b",
            "ground_truth": "d1c103d2ce0b975ca67966e3050149a6b72b14f1203e880970ce38ab178ce951",
            "pair_covariates": "dbe08309fa55ff1bafd1c649db972b46f06079b126b5f490ae377382acdfd845",
        },
        False: {
            "posts": "245cf9881b891b28aa23a371a0540127f3a480659063f2f0692e76c04649be0f",
            "friends": "527501f572e5d407716eb206ef9493d5fd03f55efeb87687449c3015716c9b7b",
            "ground_truth": "d1c103d2ce0b975ca67966e3050149a6b72b14f1203e880970ce38ab178ce951",
            "pair_covariates": "dbe08309fa55ff1bafd1c649db972b46f06079b126b5f490ae377382acdfd845",
        },
    }

    @pytest.mark.parametrize("lang_alignment", [True, False])
    def test_draw_stream_is_pinned(self, tmp_path, lang_alignment):
        spec = small_spec(n_users=300, noise=0.2, country_tag_specificity=0.7, lang_alignment=lang_alignment)
        paths = write_population(generate_population(spec), tmp_path)
        digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
        assert digests == self.PINNED[lang_alignment], (
            "the synthetic files changed for a fixed spec: a draw moved, was added or was dropped. "
            "A numpy upgrade that moves Generator streams does this too, and it moves the seeds "
            "the acceptance criteria rest on; never re-pin these digests without re-checking them"
        )

    # Every user a migrant (no native friend pools), every token noise, and
    # 5-9 tags per user, so some users' last tag post holds fewer than four.
    PINNED_ALL_NOISE = {
        "posts": "defe47d643581424870b54ff6966e5af7b18dbf68e19ff073c7b969cda7669ae",
        "friends": "b6b28d4199cf8b456bf943ab2ec4aacfbfad843284df73e697355abddab9ecf0",
        "ground_truth": "8d91bf7ecd449bb29b6fcba17dd9d0f77a33e8b3465c73be801abe0b70571d7a",
        "pair_covariates": "88b5cfdf1fd5075fcd89d2661cc0046fd7c11148ccf4d24db9ccf696c6c29777",
    }

    def test_all_noise_draw_stream_is_pinned(self, tmp_path):
        spec = small_spec(migrant_fraction=1.0, noise=1.0, countries=("DE", "FR", "IT"), tags_per_user=(5, 9))
        population = generate_population(spec)
        assert {len(post.hashtags) for post in population.posts} == {0, 1, 2, 3, 4}
        paths = write_population(population, tmp_path)
        digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
        assert digests == self.PINNED_ALL_NOISE, "the synthetic files changed for a fixed spec: see PINNED"

    # The benchmark's own input: the default spec at 1,000 users, seed 1 (the
    # null_heavy workload at --seed 1), so a writer or draw change that moves
    # the bytes the harness times shows here too.
    PINNED_BENCH_INPUT = {
        "posts": "db226a852fa5525df2f5a24b86dee2b15c05624335e77f9d6a41c772e01cab51",
        "friends": "a41257281bf21113c0e05f95eb7d9e888fae5473a3992e306b911174c4f8413c",
        "ground_truth": "d0abd6ca1c6a822a547eda5a0644518fc770b29dd17a0b373919df66d8da957d",
        "pair_covariates": "fd98e2a298a17b41769ed4c2605cab5a0c26f29939f1af3063710583211009b8",
    }

    def test_benchmark_input_is_pinned(self, tmp_path):
        paths = write_population(generate_population(default_spec(seed=1, n_users=1000)), tmp_path)
        digests = {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}
        assert digests == self.PINNED_BENCH_INPUT, "the synthetic files changed for a fixed spec: see PINNED"

    def test_seed_changes_output(self):
        a = generate_population(small_spec())
        b = generate_population(small_spec(seed=12))
        assert a.posts != b.posts

    def test_truth_shape(self):
        spec = small_spec(migrant_fraction=0.25)
        pop = generate_population(spec)
        migrants = [t for t in pop.truth.values() if t.residence != t.nationality]
        assert len(pop.truth) == spec.n_users
        assert len(migrants) == round(spec.n_users * 0.25)
        for row in migrants:
            assert row.acc_class in ("assimilation", "integration", "separation", "marginalisation")
            assert row.nationality != row.residence
            assert row.nationality in spec.countries
            assert row.residence in spec.countries
            assert spec.tags_per_user[0] <= row.n_tags <= spec.tags_per_user[1]
        for row in pop.truth.values():
            if row.residence == row.nationality:
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
        graph = FriendGraph.from_pairs(pop.friend_rows)
        profiles, summary = label_population(Corpus.from_posts(pop.posts), graph, YEAR)
        for user_id, row in pop.truth.items():
            profile = profiles[user_id]
            assert profile.residence == row.residence, user_id
            assert profile.nationality == row.nationality, user_id
            assert profile.is_migrant == (row.residence != row.nationality), user_id
        assert summary.n_migrants == sum(t.residence != t.nationality for t in pop.truth.values())


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
        graph = FriendGraph.from_pairs(pop.friend_rows)
        corpus = Corpus.from_posts(pop.posts)
        profiles, _ = label_population(corpus, graph, spec.year)
        atlas = build_atlas(corpus, profiles, spec.year)
        pipeline = compute_scores(corpus, profiles, atlas, spec.year)
        oracle = oracle_scores(pop.truth, pop.posts, spec.year)
        assert len(pipeline) == len(oracle) > 0
        for mine, ref in zip(pipeline, oracle):
            assert mine.user_id == ref.user_id
            assert mine.ha == ref.ha
            assert mine.da == ref.da
            assert mine.n_hashtags == ref.n_hashtags


def test_write_and_read_round_trip(tmp_path):
    spec = small_spec(n_users=60)
    paths = write_population(generate_population(spec), tmp_path)
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
