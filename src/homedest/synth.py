"""Synthetic population generator with planted ground truth.

Produces a posts file, a friends file, a ground-truth table and a synthetic
country-pair covariate table for end-to-end exercises. Every migrant is
planted with an acculturation class whose (home, destination) attachment
targets drive their hashtag draws, so the pipeline's recovered scores can
be checked against an oracle that reads the planted country straight out
of each token.

Token scheme: country tokens look like ``it_tag_0042`` (origin country code
prefix), shared tokens look like ``intl_tag_0007``. Both survive hashtag
canonicalization unchanged, which keeps the oracle trivially independent
of the atlas machinery.

Determinism: one ``numpy`` generator seeded from ``PopulationSpec.seed``
drives every draw in a fixed order, so equal configurations produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attachment import (
    ACC_CLASSES,
    ASSIMILATION,
    INTEGRATION,
    MARGINALISATION,
    SEPARATION,
    AttachmentScore,
)
from .corpus import FRIEND_COLUMNS, Post, canonicalize_hashtag, write_posts
from .countries import normalize_alpha2
from .covariates import PAIR_COLUMNS, load_country_languages
from .tables import read_table, write_table

DEFAULT_COUNTRIES = ("BR", "DE", "ES", "FR", "GB", "IT", "JP", "MX", "NL", "US")

# (home, destination) attachment targets per planted class. The leftover
# probability mass goes to the shared international vocabulary.
DEFAULT_CLASS_TARGETS: dict[str, tuple[float, float]] = {
    SEPARATION: (0.65, 0.05),
    ASSIMILATION: (0.05, 0.65),
    INTEGRATION: (0.40, 0.40),
    MARGINALISATION: (0.03, 0.03),
}

_TAGS_PER_POST = 4

TRUTH_COLUMNS = {
    "user_id": str, "residence": str, "nationality": str, "acc_class": str | None,
    "planted_ha": float | None, "planted_da": float | None, "n_tags": int,
}


@dataclass
class PopulationSpec:
    """Knobs for one synthetic population."""

    n_users: int = 10_000
    migrant_fraction: float = 0.1
    countries: tuple[str, ...] = DEFAULT_COUNTRIES
    acc_mix: dict[str, float] = field(
        default_factory=lambda: {c: 0.25 for c in ACC_CLASSES}
    )
    tags_per_user: tuple[int, int] = (20, 60)
    country_tag_specificity: float = 0.8
    seed: int = 42
    year: int = 2018
    noise: float = 0.0
    country_vocab: int = 150
    intl_vocab: int = 400
    geo_days: tuple[int, int] = (5, 8)
    history_geo_days: tuple[int, int] = (12, 20)
    friends_per_user: int = 10
    home_friend_bias: float = 0.8
    lang_alignment: bool = True
    user_prefix: str = "u"
    class_targets: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_TARGETS)
    )

    def validate(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if not 0.0 <= self.migrant_fraction <= 1.0:
            raise ValueError("migrant_fraction must lie in [0, 1]")
        if len(self.countries) < 2:
            raise ValueError("need at least two countries")
        if len(set(self.countries)) != len(self.countries):
            raise ValueError("countries must be distinct")
        if not 0.0 <= self.country_tag_specificity <= 1.0:
            raise ValueError("country_tag_specificity must lie in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if self.tags_per_user[0] < 1 or self.tags_per_user[0] > self.tags_per_user[1]:
            raise ValueError("tags_per_user must be an increasing positive range")
        for cls, (ha, da) in self.class_targets.items():
            if ha < 0 or da < 0 or ha + da > 1.0:
                raise ValueError(f"class {cls}: targets must satisfy ha, da >= 0, ha+da <= 1")
        mix_total = sum(self.acc_mix.values())
        if mix_total <= 0 or any(w < 0 for w in self.acc_mix.values()):
            raise ValueError("acc_mix weights must be nonnegative with positive sum")
        unknown = set(self.acc_mix) - set(self.class_targets)
        if unknown:
            raise ValueError(f"acc_mix references unknown classes: {sorted(unknown)}")


def default_spec(**overrides) -> PopulationSpec:
    """The reference population: 10,000 users, 10 countries, seed 42."""
    return PopulationSpec(**overrides)


@dataclass(frozen=True)
class TruthRow:
    """Planted facts about one user."""

    user_id: str
    residence: str
    nationality: str
    acc_class: str | None
    planted_ha: float | None
    planted_da: float | None
    n_tags: int

    @property
    def is_migrant(self) -> bool:
        return self.residence != self.nationality


@dataclass
class Population:
    """In-memory result of one generation run."""

    spec: PopulationSpec
    posts: list[Post]
    friend_rows: list[tuple[str, str]]
    truth: dict[str, TruthRow]
    pair_rows: list[dict[str, object]]


def _noon(year: int, day: int) -> datetime:
    return datetime(year, 1, 1, 12, 0, 0, tzinfo=timezone.utc) + timedelta(days=day)


def _country_language(countries: Sequence[str]) -> dict[str, str]:
    table = load_country_languages()
    return {c: table.get(c, c.lower()) for c in countries}


def _draw_class(rng: np.random.Generator, classes: list[str], weights: np.ndarray) -> str:
    return classes[int(rng.choice(len(classes), p=weights))]


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a full population in memory. Equal specs give equal results."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    countries = list(spec.countries)
    n_countries = len(countries)
    languages = _country_language(countries)

    classes = sorted(c for c, w in spec.acc_mix.items() if w > 0)
    weights = np.array([spec.acc_mix[c] for c in classes], dtype=float)
    weights = weights / weights.sum()

    n_migrants = int(round(spec.n_users * spec.migrant_fraction))
    width = max(5, len(str(spec.n_users)))
    user_ids = [f"{spec.user_prefix}{i:0{width}d}" for i in range(spec.n_users)]

    # Phase 1: countries and classes for everyone.
    residences: list[str] = []
    nationalities: list[str] = []
    acc_classes: list[str | None] = []
    for i in range(spec.n_users):
        if i < n_migrants:
            home = countries[int(rng.integers(n_countries))]
            shift = 1 + int(rng.integers(n_countries - 1))
            dest = countries[(countries.index(home) + shift) % n_countries]
            nationalities.append(home)
            residences.append(dest)
            acc_classes.append(_draw_class(rng, classes, weights))
        else:
            own = countries[int(rng.integers(n_countries))]
            nationalities.append(own)
            residences.append(own)
            acc_classes.append(None)

    pools: dict[str, list[int]] = {c: [] for c in countries}
    for i in range(n_migrants, spec.n_users):
        pools[residences[i]].append(i)

    # Phase 2: friends. Home-country picks come straight from the home
    # non-migrant pool so friend evidence stays anchored on the origin.
    n_home_friends = int(round(spec.friends_per_user * spec.home_friend_bias))
    friend_rows: list[tuple[str, str]] = []
    for i in range(spec.n_users):
        home_pool = pools[nationalities[i]]
        picks: list[int] = []
        if home_pool:
            idx = rng.integers(0, len(home_pool), size=n_home_friends)
            picks.extend(home_pool[j] for j in idx)
        n_random = spec.friends_per_user - n_home_friends
        if n_random > 0:
            picks.extend(int(j) for j in rng.integers(0, spec.n_users, size=n_random))
        for j in picks:
            if j != i:
                friend_rows.append((user_ids[i], user_ids[j]))

    # Phase 3: posts.
    posts: list[Post] = []
    truth: dict[str, TruthRow] = {}
    vocab_digits = max(4, len(str(max(spec.country_vocab, spec.intl_vocab))))

    def country_token(country: str, index: int) -> str:
        return f"{country.lower()}_tag_{index:0{vocab_digits}d}"

    def intl_token(index: int) -> str:
        return f"intl_tag_{index:0{vocab_digits}d}"

    for i in range(spec.n_users):
        user = user_ids[i]
        home, dest = nationalities[i], residences[i]
        migrant = i < n_migrants
        if spec.lang_alignment and migrant:
            cls = acc_classes[i]
            dest_lang_p = {
                ASSIMILATION: 0.97,
                INTEGRATION: 0.95,
                SEPARATION: 0.02,
                MARGINALISATION: 0.05,
            }.get(cls, 0.5)
        else:
            dest_lang_p = 1.0 if not migrant else 0.5
        home_lang, dest_lang = languages[home], languages[dest]

        def post_lang() -> str:
            return dest_lang if rng.random() < dest_lang_p else home_lang

        # Geo evidence: current-year days at the residence, prior-year days
        # at the origin. The prior-year block is the larger one, so all-time
        # geo evidence points home while the reference year points to the
        # destination.
        n_now = int(rng.integers(spec.geo_days[0], spec.geo_days[1] + 1))
        n_past = int(rng.integers(spec.history_geo_days[0], spec.history_geo_days[1] + 1))
        now_days = rng.choice(365, size=n_now, replace=False)
        past_days = rng.choice(365, size=n_past, replace=False)
        for day in sorted(int(d) for d in now_days):
            posts.append(Post(user, _noon(spec.year, day), dest, post_lang(), ()))
        for day in sorted(int(d) for d in past_days):
            posts.append(Post(user, _noon(spec.year - 1, day), home, post_lang(), ()))

        # Hashtag uses, bundled into ungeotagged posts.
        n_tags = int(rng.integers(spec.tags_per_user[0], spec.tags_per_user[1] + 1))
        draws = rng.random(n_tags)
        noise_draws = rng.random(n_tags) if spec.noise > 0 else None
        vocab_idx = rng.integers(0, max(spec.country_vocab, spec.intl_vocab), size=n_tags)
        tokens: list[str] = []
        if migrant:
            ha_t, da_t = spec.class_targets[acc_classes[i]]
        for k in range(n_tags):
            idx = int(vocab_idx[k])
            if noise_draws is not None and noise_draws[k] < spec.noise:
                scrambled = countries[int(rng.integers(n_countries))]
                tokens.append(country_token(scrambled, idx % spec.country_vocab))
                continue
            u = float(draws[k])
            if migrant:
                if u < ha_t:
                    tokens.append(country_token(home, idx % spec.country_vocab))
                elif u < ha_t + da_t:
                    tokens.append(country_token(dest, idx % spec.country_vocab))
                else:
                    tokens.append(intl_token(idx % spec.intl_vocab))
            else:
                if u < spec.country_tag_specificity:
                    tokens.append(country_token(home, idx % spec.country_vocab))
                else:
                    tokens.append(intl_token(idx % spec.intl_vocab))
        tag_days = rng.integers(0, 365, size=(n_tags + _TAGS_PER_POST - 1) // _TAGS_PER_POST)
        for chunk, day in zip(range(0, n_tags, _TAGS_PER_POST), tag_days):
            bundle = tuple(tokens[chunk : chunk + _TAGS_PER_POST])
            posts.append(Post(user, _noon(spec.year, int(day)), None, post_lang(), bundle))

        if migrant:
            ha_t, da_t = spec.class_targets[acc_classes[i]]
            truth[user] = TruthRow(user, dest, home, acc_classes[i], ha_t, da_t, n_tags)
        else:
            truth[user] = TruthRow(user, home, home, None, None, None, n_tags)

    pair_rows = _pair_covariate_rows(rng, countries, languages)
    return Population(spec, posts, friend_rows, truth, pair_rows)


def _pair_covariate_rows(
    rng: np.random.Generator, countries: Sequence[str], languages: dict[str, str]
) -> list[dict[str, object]]:
    """Synthetic gravity covariates for every unordered country pair."""
    rows: list[dict[str, object]] = []
    for a_idx in range(len(countries)):
        for b_idx in range(a_idx + 1, len(countries)):
            a, b = sorted((countries[a_idx], countries[b_idx]))
            same_lang = int(languages[a] == languages[b])
            if same_lang:
                csl = 0.5 + 0.45 * float(rng.random())
                cnl = 0.4 + 0.5 * float(rng.random())
            else:
                csl = 0.2 * float(rng.random())
                cnl = 0.15 * float(rng.random())
            rows.append(
                {
                    "country_a": a,
                    "country_b": b,
                    "distcap": round(400.0 + 14_600.0 * float(rng.random()), 1),
                    "contig": int(rng.random() < 0.15),
                    "comlang_off": same_lang,
                    "csl": round(csl, 4),
                    "cnl": round(cnl, 4),
                }
            )
    return rows


def write_population(population: Population, out_dir: str | Path) -> dict[str, Path]:
    """Write posts.jsonl, friends.csv, ground_truth.csv, pair_covariates.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "posts": out / "posts.jsonl",
        "friends": out / "friends.csv",
        "ground_truth": out / "ground_truth.csv",
        "pair_covariates": out / "pair_covariates.csv",
    }
    write_posts(paths["posts"], population.posts)
    write_table(paths["friends"], FRIEND_COLUMNS, population.friend_rows)
    truth = (population.truth[user_id] for user_id in sorted(population.truth))
    write_table(paths["ground_truth"], TRUTH_COLUMNS, map(attrgetter(*TRUTH_COLUMNS), truth))
    write_table(paths["pair_covariates"], PAIR_COLUMNS, map(itemgetter(*PAIR_COLUMNS), population.pair_rows))
    return paths


def generate(spec: PopulationSpec, out_dir: str | Path) -> dict[str, Path]:
    """Generate and write a population; returns the written paths."""
    return write_population(generate_population(spec), out_dir)


def read_ground_truth(path: str | Path) -> dict[str, TruthRow]:
    return {row["user_id"]: TruthRow(**row) for row in read_table(path, TRUTH_COLUMNS)}


def token_country(token: str) -> str | None:
    """Recover the planted country from a generated token, None for shared."""
    prefix = token.split("_", 1)[0]
    if prefix == "intl":
        return None
    return normalize_alpha2(prefix)


def oracle_scores(
    truth: dict[str, TruthRow],
    posts: Iterable[Post],
    year: int,
    min_hashtags: int = 10,
) -> list[AttachmentScore]:
    """Attachment scores computed from planted token countries alone.

    Completely independent of the atlas: each token's country comes from its
    name. Users below the minimum hashtag volume are skipped, mirroring the
    pipeline's filter.
    """
    counts: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for post in posts:
        row = truth.get(post.user_id)
        if row is None or not row.is_migrant or post.year != year:
            continue
        for raw in post.hashtags:
            token = canonicalize_hashtag(raw)
            if token is None:
                continue
            totals[post.user_id] = totals.get(post.user_id, 0) + 1
            country = token_country(token)
            if country is not None:
                bucket = counts.setdefault(post.user_id, {})
                bucket[country] = bucket.get(country, 0) + 1
    scores: list[AttachmentScore] = []
    for user_id in sorted(totals):
        total = totals[user_id]
        if total < min_hashtags:
            continue
        row = truth[user_id]
        bucket = counts.get(user_id, {})
        n_home = bucket.get(row.nationality, 0)
        n_dest = bucket.get(row.residence, 0)
        scores.append(
            AttachmentScore(
                user_id=user_id,
                nationality=row.nationality,
                residence=row.residence,
                ha=n_home / total,
                da=n_dest / total,
                n_hashtags=total,
                n_home=n_home,
                n_dest=n_dest,
            )
        )
    return scores


def class_recovery(scores: Sequence[AttachmentScore], truth: dict[str, TruthRow]) -> float:
    """Fraction of classified users whose quadrant matches the planted class."""
    hits = 0
    judged = 0
    for score in scores:
        row = truth.get(score.user_id)
        if row is None or row.acc_class is None or score.acc_class is None:
            continue
        judged += 1
        hits += score.acc_class == row.acc_class
    if judged == 0:
        raise ValueError("no classified users with planted classes to compare")
    return hits / judged
