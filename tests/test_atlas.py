"""Hashtag atlas unit tests, with a high-precision entropy oracle."""

from __future__ import annotations

import random

import mpmath
import pytest

from homedest.atlas import (
    DEFAULT_ENTROPY_THRESHOLD,
    INTERNATIONAL,
    build_atlas,
    build_distribution,
    normalized_entropy,
    read_atlas,
    unit_histogram,
    write_atlas,
)
from homedest.corpus import FriendGraph
from homedest.labeling import label_population

from conftest import YEAR, make_post


def entropy_oracle(values, dps=50):
    """Normalized Shannon entropy at 50 decimal digits."""
    with mpmath.workdps(dps):
        total = -mpmath.fsum(mpmath.mpf(v) * mpmath.log(mpmath.mpf(v)) for v in values)
        return float(total / mpmath.log(len(values)))


class TestNormalizedEntropy:
    def test_known_values(self):
        skewed = {"A": 0.5, "B": 0.25, "C": 0.25}
        assert normalized_entropy(skewed) == pytest.approx(0.9463946303571862, abs=1e-12)
        spiked = {"A": 0.9, "B": 0.05, "C": 0.05}
        assert normalized_entropy(spiked) == pytest.approx(0.3589962496465303, abs=1e-12)

    def test_boundaries_exact(self):
        assert normalized_entropy({"IT": 1.0}) == 0.0
        for k in range(2, 21):
            uniform = {f"C{i:02d}": 1.0 / k for i in range(k)}
            assert normalized_entropy(uniform) == 1.0

    def test_against_high_precision(self):
        rng = random.Random(2024)
        for _ in range(150):
            k = rng.randint(2, 20)
            raw = [rng.random() + 1e-9 for _ in range(k)]
            total = sum(raw)
            values = [v / total for v in raw]
            p = {f"C{i:02d}": v for i, v in enumerate(values)}
            assert normalized_entropy(p) == pytest.approx(entropy_oracle(values), abs=1e-10)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalized_entropy({})

    def test_order_independent(self):
        values = [0.5, 0.3, 0.2]
        a = normalized_entropy({"A": values[0], "B": values[1], "C": values[2]})
        b = normalized_entropy({"C": values[2], "A": values[0], "B": values[1]})
        assert a == b


class TestBuildAtlas:
    def test_micro_corpus_assignments(self, micro_pipeline):
        _, _, atlas = micro_pipeline
        assert atlas["roma"].assignment == "IT"
        assert atlas["berlin"].assignment == "DE"
        assert atlas["pizza"].assignment == INTERNATIONAL
        assert "xyzq" not in atlas  # no non-migrant ever used it

    def test_user_dedup(self, micro_pipeline):
        _, _, atlas = micro_pipeline
        # n_it2 used pizza twice in one post; users count once.
        assert atlas["pizza"].n_users == 6
        assert atlas["pizza"].p == {"IT": 3 / 6, "DE": 2 / 6, "FR": 1 / 6}

    def test_migrant_usage_excluded(self, micro_pipeline):
        _, _, atlas = micro_pipeline
        # m1 used roma three times; only the two IT non-migrants count.
        assert atlas["roma"].n_users == 2
        assert atlas["roma"].entropy == 0.0

    def test_threshold_zero_assigns_only_pure_tokens(self, micro_pipeline):
        posts, profiles, _ = micro_pipeline
        atlas = build_atlas(posts, profiles, YEAR, threshold=0.0)
        assert atlas["roma"].assignment == "IT"
        assert atlas["pizza"].assignment == INTERNATIONAL

    def test_threshold_one_assigns_everything(self, micro_pipeline):
        posts, profiles, _ = micro_pipeline
        atlas = build_atlas(posts, profiles, YEAR, threshold=1.0)
        # Argmax of {IT: 3, DE: 2, FR: 1} despite maximal-entropy-ish spread.
        assert atlas["pizza"].assignment == "IT"

    def test_bad_threshold(self, micro_pipeline):
        posts, profiles, _ = micro_pipeline
        with pytest.raises(ValueError):
            build_atlas(posts, profiles, YEAR, threshold=1.5)
        with pytest.raises(ValueError):
            build_atlas(posts, profiles, YEAR, threshold=-0.1)

    def test_year_filter(self, micro_pipeline):
        posts, profiles, _ = micro_pipeline
        atlas = build_atlas(posts, profiles, YEAR - 1, threshold=DEFAULT_ENTROPY_THRESHOLD)
        assert atlas == {}  # all hashtag posts sit in the reference year

    def test_argmax_tie_breaks(self):
        # Two IT users and two DE users share a token: a perfect 50/50 split
        # has entropy exactly 1, so it goes international at the default
        # threshold; with threshold 1.0 the tie breaks to the smaller code.
        posts = []
        for i, (user, cc) in enumerate(
            [("a", "IT"), ("b", "IT"), ("c", "DE"), ("d", "DE")]
        ):
            posts.append(make_post(user, 10 + i, cc=cc))
            posts.append(make_post(user, 100 + i, tags=["shared"]))
        profiles, _ = label_population(posts, FriendGraph.from_pairs(()), YEAR)
        atlas = build_atlas(posts, profiles, YEAR)
        assert atlas["shared"].assignment == INTERNATIONAL
        atlas = build_atlas(posts, profiles, YEAR, threshold=1.0)
        assert atlas["shared"].assignment == "DE"


def test_build_distribution(micro_pipeline):
    posts, profiles, _ = micro_pipeline
    dist = build_distribution(posts, profiles, "pizza", YEAR)
    assert dist == {"IT": 0.5, "DE": 2 / 6, "FR": 1 / 6}
    assert build_distribution(posts, profiles, "nope", YEAR) == {}


def test_entropy_histogram_binning():
    entropies = [0.0, 0.01, 0.5, 0.999, 1.0]
    edges, counts = unit_histogram(entropies)
    assert len(edges) == 51 and edges[0] == 0.0 and edges[-1] == 1.0
    assert counts[0] == 2  # 0.0 and 0.01
    assert counts[25] == 1  # 0.5 lands in [0.5, 0.52)
    assert counts[49] == 2  # 0.999 and the exact 1.0 share the last bin
    assert sum(counts) == len(entropies)


def test_atlas_round_trip(tmp_path, micro_pipeline):
    _, _, atlas = micro_pipeline
    path = tmp_path / "atlas.csv"
    dist_path = tmp_path / "atlas_distributions.csv"
    write_atlas(path, atlas, ["header"], dist_path)
    loaded = read_atlas(path)
    assert set(loaded) == set(atlas)
    for token, original in atlas.items():
        restored = loaded[token]
        assert restored == original._replace(p={})
    text = dist_path.read_text(encoding="utf-8")
    assert "pizza,IT,0.5" in text
