"""Acceptance gate: nine pass/fail checks covering the whole package.

Each test is one criterion. Oracles are independent of the code under test:
high-precision arithmetic for entropy, naive recounts for the indices,
exhaustive enumeration for the exact rank-sum tail, hand-computed ECDF
distances for KS, and planted ground truth for the synthetic pipeline runs.
"""

from __future__ import annotations

import filecmp
import itertools
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from homedest.atlas import HashtagRecord, build_atlas, normalized_entropy
from homedest.attachment import apply_acculturation, compute_scores, language_cohorts
from homedest.cli import FILES, main as cli_main
from homedest.covariates import (
    grouped_correlations,
    individual_correlations,
    join_covariates,
    load_country_languages,
)
from homedest.corpus import Corpus, FriendGraph
from homedest.labeling import UserProfile, label_population
from homedest.nullmodel import pooled
from homedest.reporting import REPORT_COLUMNS
from homedest.stats import spearman, wilcoxon_rank_sum, _ks_statistic
from homedest.synth import class_recovery, default_spec, generate_population, oracle_scores

from conftest import YEAR, make_post

# --------------------------------------------------------------- shared data


class MicroCorpora:
    """1,000 tiny random corpora with handmade profiles and atlases."""

    N_CORPORA = 1_000
    COUNTRIES = ("DE", "ES", "FR", "IT")
    TOKENS = tuple(f"tag{i:02d}" for i in range(15))

    def __init__(self):
        rng = np.random.default_rng(20230823)
        self.corpora = [self._one(rng) for _ in range(self.N_CORPORA)]

    def _one(self, rng):
        n_users = int(rng.integers(4, 10))
        users = [f"u{i}" for i in range(n_users)]
        profiles = {}
        for user in users:
            kind = rng.random()
            if kind < 0.5:
                nat, res = rng.choice(self.COUNTRIES, size=2, replace=False)
                profiles[user] = UserProfile(user, str(res), str(nat), True)
            elif kind < 0.8:
                own = str(rng.choice(self.COUNTRIES))
                profiles[user] = UserProfile(user, own, own, False)
            else:
                profiles[user] = UserProfile(user, None, None, None)

        atlas = {}
        for token in self.TOKENS:
            kind = rng.random()
            if kind < 0.60:
                assignment = str(rng.choice(self.COUNTRIES))
            elif kind < 0.85:
                assignment = "international"
            elif kind < 0.92:
                assignment = "unassigned"
            else:
                continue  # token absent from the atlas entirely
            atlas[token] = HashtagRecord(
                token=token,
                assignment=assignment,
                entropy=float(rng.random()),
                n_users=int(rng.integers(1, 9)),
                top_country_fraction=float(rng.random()),
                p={assignment: 1.0} if assignment in self.COUNTRIES else {},
            )

        posts = []
        for _ in range(int(rng.integers(1, 51))):
            user = str(rng.choice(users))
            year = YEAR if rng.random() < 0.8 else YEAR - 1
            tags = []
            for _ in range(int(rng.integers(0, 5))):
                token = str(rng.choice(self.TOKENS))
                if rng.random() < 0.2:
                    token = "#" + token.upper()  # canonicalization must undo this
                tags.append(token)
            posts.append(make_post(user, int(rng.integers(0, 360)), tags=tags, year=year))
        min_hashtags = int(rng.integers(1, 7))
        return posts, profiles, atlas, min_hashtags


@pytest.fixture(scope="session")
def micro_corpora():
    return MicroCorpora()


def naive_recount(posts, profiles, atlas, min_hashtags):
    """Deliberately simple reimplementation of the attachment indices."""
    totals, home, dest = {}, {}, {}
    for post in posts:
        profile = profiles.get(post.user_id)
        if profile is None or not profile.is_migrant or post.timestamp.year != YEAR:
            continue
        for raw in post.hashtags:
            token = raw.lstrip("#").casefold()
            totals[post.user_id] = totals.get(post.user_id, 0) + 1
            record = atlas.get(token)
            if record is None:
                continue
            if record.assignment == profile.nationality:
                home[post.user_id] = home.get(post.user_id, 0) + 1
            elif record.assignment == profile.residence:
                dest[post.user_id] = dest.get(post.user_id, 0) + 1
    out = []
    for user_id in sorted(totals):
        n = totals[user_id]
        if n < min_hashtags:
            continue
        n_home = home.get(user_id, 0)
        n_dest = dest.get(user_id, 0)
        out.append((user_id, n, n_home, n_dest, n_home / n, n_dest / n))
    return out


# ----------------------------------------------------------------- criteria


def test_c1_entropy_matches_high_precision_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(120):
        k = int(rng.integers(2, 21))
        raw = rng.uniform(0.05, 1.0, size=k)
        values = raw / raw.sum()
        dist = {f"C{i}": float(v) for i, v in enumerate(values)}
        with mpmath.workdps(50):
            h = -mpmath.fsum(mpmath.mpf(v) * mpmath.log(mpmath.mpf(v)) for v in dist.values())
            expected = float(h / mpmath.log(k))
        assert abs(normalized_entropy(dist) - expected) <= 1e-10
        checked += 1
    assert checked >= 100

    assert normalized_entropy({"IT": 1.0}) == 0.0
    for k in range(2, 21):
        uniform = {f"C{i}": 1.0 / k for i in range(k)}
        assert normalized_entropy(uniform) == 1.0

    assert time.perf_counter() - start < 1.0


def test_c2_scores_equal_naive_recount_on_1000_micro_corpora(micro_corpora):
    start = time.perf_counter()
    mismatches = 0
    n_scored = 0
    for posts, profiles, atlas, min_hashtags in micro_corpora.corpora:
        scores = compute_scores(Corpus.from_posts(posts), profiles, atlas, YEAR, min_hashtags=min_hashtags)
        expected = naive_recount(posts, profiles, atlas, min_hashtags)
        got = [(s.user_id, s.n_hashtags, s.n_home, s.n_dest, s.ha, s.da) for s in scores]
        if got != expected:
            mismatches += 1
        n_scored += len(scores)
    assert mismatches == 0
    assert n_scored > 500  # the corpora genuinely exercise the scorer
    assert time.perf_counter() - start < 10.0


def test_c3_invariants_hold_for_every_scored_user(micro_corpora, default_run):
    all_scores = []
    for posts, profiles, atlas, min_hashtags in micro_corpora.corpora:
        all_scores.extend(compute_scores(Corpus.from_posts(posts), profiles, atlas, YEAR, min_hashtags=min_hashtags))
    all_scores.extend(default_run.scores)
    for run in default_run.null_runs:
        all_scores.extend(run.scores0)

    violations = 0
    for s in all_scores:
        ok = (
            0.0 <= s.ha
            and 0.0 <= s.da
            and s.ha + s.da <= 1.0
            and s.n_home + s.n_dest <= s.n_hashtags
        )
        violations += not ok
    assert len(all_scores) > 6000
    assert violations == 0


def test_c4_exact_tests_match_enumeration_and_hand_fixtures():
    # Rank-sum: exhaustive over every tie-free rank configuration with
    # n1 + n2 <= 12, against a combinations-based tail enumeration.
    for n in range(2, 13):
        for n1 in range(1, n):
            n2 = n - n1
            total = math.comb(n, n1)
            min_sum = n1 * (n1 + 1) // 2
            counts = [0] * (n1 * n2 + 1)
            first_with_u = {}
            for subset in itertools.combinations(range(1, n + 1), n1):
                u = sum(subset) - min_sum
                counts[u] += 1
                first_with_u.setdefault(u, subset)
            cum = list(itertools.accumulate(counts))
            exhaustive = n <= 8  # every subset; larger n: one per distinct U
            configs = (
                itertools.combinations(range(1, n + 1), n1)
                if exhaustive
                else first_with_u.values()
            )
            for subset in configs:
                x = [float(v) for v in subset]
                y = [float(v) for v in range(1, n + 1) if v not in subset]
                u = sum(subset) - min_sum
                u_min = min(u, n1 * n2 - u)
                expected = min(1.0, (2 * cum[u_min]) / total)
                res = wilcoxon_rank_sum(x, y)
                assert res.statistic == float(u)
                assert res.p_value == expected

    # KS distance: 20 hand-computed ECDF fixtures.
    ks_fixtures = [
        ([1.0], [2.0], 1.0),
        ([1.0, 2.0], [3.0, 4.0], 1.0),
        ([1.0, 3.0], [2.0, 4.0], 1 / 2),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.0),
        ([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], 1 / 3),
        ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0], 1 / 4),
        ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], 1.0),
        ([0.0, 1.0, 5.0], [1.5, 2.0, 6.0, 7.0], 2 / 3),
        ([1.0, 2.0], [1.0, 2.0, 3.0], 1 / 3),
        ([1.0, 4.0], [2.0, 3.0], 1 / 2),
        ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 4.0], 1 / 3),
        ([1.0, 3.0, 5.0, 7.0, 9.0], [2.0, 4.0, 6.0, 8.0, 10.0], 1 / 5),
        ([10.0, 20.0, 30.0], [15.0, 25.0], 1 / 3),
        ([1.0, 1.0, 1.0], [1.0, 1.0], 0.0),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [3.0], 2 / 5),
        ([5.0], [1.0, 2.0, 3.0, 4.0], 1.0),
        ([1.0, 2.0, 3.0, 4.0], [2.5], 1 / 2),
        ([0.0, 0.0, 1.0, 1.0], [0.0, 1.0], 0.0),
        ([1.0, 2.0, 6.0], [3.0, 4.0, 5.0], 2 / 3),
        ([1.0, 3.0], [2.0, 2.0, 2.0], 1 / 2),
    ]
    assert len(ks_fixtures) == 20
    for x, y, expected in ks_fixtures:
        assert abs(_ks_statistic(x, y) - expected) <= 1e-12, (x, y)

    # Spearman: the 5-point rank fixture comes out exactly 0.8.
    res = spearman([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 2.0, 5.0, 4.0])
    assert res.statistic == 0.8


def test_c5_null_model_sits_below_observed_attachment(default_run):
    start = time.perf_counter()
    ha = [s.ha for s in default_run.scores]
    da = [s.da for s in default_run.scores]
    ha0 = pooled(default_run.null_runs, "ha")
    da0 = pooled(default_run.null_runs, "da")

    assert sum(ha0) / len(ha0) < sum(ha) / len(ha)
    assert sum(da0) / len(da0) < sum(da) / len(da)
    assert wilcoxon_rank_sum(ha, ha0).p_value < 0.01
    assert wilcoxon_rank_sum(da, da0).p_value < 0.01
    local = time.perf_counter() - start
    assert default_run.build_seconds + local < 60.0


def test_c6_planted_truth_recovered(default_run):
    start = time.perf_counter()

    # Perfectly country-specific tags: the pipeline must agree with the
    # planted-token oracle to the last bit.
    spec = default_spec(n_users=2_000, seed=7, country_tag_specificity=1.0, noise=0.0)
    pop = generate_population(spec)
    corpus = Corpus.from_posts(pop.posts)
    profiles, _ = label_population(corpus, FriendGraph.from_pairs(pop.friend_rows), spec.year)
    atlas = build_atlas(corpus, profiles, spec.year)
    pipeline = compute_scores(corpus, profiles, atlas, spec.year)
    oracle = oracle_scores(pop.truth, pop.posts, spec.year)
    assert len(pipeline) == len(oracle) > 0
    for mine, ref in zip(pipeline, oracle):
        assert (mine.user_id, mine.n_hashtags, mine.n_home, mine.n_dest) == (
            ref.user_id,
            ref.n_hashtags,
            ref.n_home,
            ref.n_dest,
        )
        assert mine.ha == ref.ha
        assert mine.da == ref.da

    # Default specificity (0.8): median splits recover at least 90% of the
    # planted acculturation classes.
    apply_acculturation(default_run.scores)
    recovery = class_recovery(default_run.scores, default_run.population.truth)
    assert recovery >= 0.90

    local = time.perf_counter() - start
    assert default_run.build_seconds + local < 60.0


def test_c7_destination_language_speakers_lean_toward_destination(default_run):
    split = language_cohorts(default_run.scores, default_run.corpus, load_country_languages())
    assert len(split.speakers) >= 30
    assert len(split.non_speakers) >= 30

    def mean(values):
        return sum(values) / len(values)

    assert mean([s.da for s in split.speakers]) > mean([s.da for s in split.non_speakers])
    assert mean([s.ha for s in split.speakers]) < mean([s.ha for s in split.non_speakers])


def test_c8_grouping_amplifies_the_planted_covariate_correlation():
    rng = np.random.default_rng(2718)
    origins = ("AT", "BE", "CH", "DK", "FI", "GR")
    destinations = ("DE", "GB", "NL")
    base = {origin: 500.0 + 400.0 * i for i, origin in enumerate(origins)}

    pair_table = {
        (min(origin, destination), max(origin, destination)): {"distcap": base[origin]}
        for origin in origins
        for destination in destinations
    }

    from homedest.attachment import AttachmentScore

    scores = []
    for i in range(240):
        origin = origins[i % len(origins)]
        destination = destinations[i % len(destinations)]
        group_mean = 0.10 + 0.06 * origins.index(origin)
        ha = float(np.clip(group_mean + rng.normal(0.0, 0.12), 0.001, 0.6))
        da = float(np.clip(0.05 + rng.normal(0.0, 0.02), 0.001, 0.3))
        scores.append(
            AttachmentScore(f"u{i:03d}", origin, destination, ha, da, 40, int(ha * 40), int(da * 40))
        )

    rows, dropped = join_covariates(scores, hofstede=None, pairs=pair_table)
    assert dropped == 0

    def r_for(results):
        return next(
            r.r
            for r in results
            if r.target == "ha" and r.covariate == "distcap" and r.method == "pearson"
        )

    individual_r = r_for(individual_correlations(rows))
    grouped_r = r_for(grouped_correlations(rows, min_group_size=10))
    assert abs(grouped_r) > abs(individual_r)
    assert grouped_r > 0.9  # group means all but remove the individual noise


def test_c9_full_chain_is_byte_identical_across_reruns(tmp_path):
    def run_chain(out: Path):
        steps = [
            ["synth", "--users", "800", "--seed", "5"],
            ["label"],
            ["atlas"],
            ["score"],
            ["null", "--replicates", "3"],
            ["stats"],
            ["correlate", "--min-group-size", "2"],
            ["report"],
        ]
        for step in steps:
            assert cli_main(step + ["--out", str(out)]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run_chain(a)
    run_chain(b)

    compared = []
    for name in FILES.values():
        compared.append((a / name, b / name))
    for name in REPORT_COLUMNS:
        compared.append((a / "report" / name, b / "report" / name))
    for left, right in compared:
        assert left.exists() and right.exists(), left.name
        assert filecmp.cmp(left, right, shallow=False), f"{left.name} differs between runs"
    assert len(compared) == len(FILES) + len(REPORT_COLUMNS)
