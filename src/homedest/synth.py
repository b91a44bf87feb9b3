"""Synthetic population generator with planted ground truth.

Produces a posts file, a friends file, a ground-truth table and a synthetic
country-pair covariate table for end-to-end exercises. Every migrant is
planted with an acculturation class whose (home, destination) attachment
targets drive their hashtag draws; a native draws own-country tokens at
``country_tag_specificity``, as a migrant draws home tokens at its HA target.
The pipeline's recovered scores can then be checked against an oracle that
reads the planted country straight out of each token. A migrant posts in
the destination language at its class's ``DEST_LANG_SHARE`` (one half with
``lang_alignment`` off).

Token scheme: country tokens look like ``it_tag_0042`` (origin country code
prefix), shared tokens look like ``intl_tag_0007``. Both survive hashtag
canonicalization unchanged, which keeps the oracle trivially independent
of the atlas machinery.

Determinism: one ``numpy`` generator seeded from ``PopulationSpec.seed``
drives every draw in a fixed order, so equal configurations produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import combinations
from numbers import Integral
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .attachment import (
    ASSIMILATION,
    DEFAULT_MIN_HASHTAGS,
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

# (home, destination) attachment targets per planted class, each class drawn
# with equal weight. The leftover probability mass goes to the shared
# international vocabulary.
CLASS_TARGETS: dict[str, tuple[float, float]] = {
    SEPARATION: (0.65, 0.05),
    ASSIMILATION: (0.05, 0.65),
    INTEGRATION: (0.40, 0.40),
    MARGINALISATION: (0.03, 0.03),
}

# Share of a migrant's posts in the destination language per planted class,
# with lang_alignment on; with it off, each language gets half.
DEST_LANG_SHARE: dict[str, float] = {
    ASSIMILATION: 0.97,
    INTEGRATION: 0.95,
    SEPARATION: 0.02,
    MARGINALISATION: 0.05,
}

# Tokens per country and shared tokens; inclusive ranges of geotagged days
# per user this year and the year before; friends per user and their home share.
COUNTRY_VOCAB = 150
INTL_VOCAB = 400
GEO_DAYS = (5, 8)
HISTORY_GEO_DAYS = (12, 20)
FRIENDS_PER_USER = 10
HOME_FRIEND_BIAS = 0.8
USER_PREFIX = "u"
VOCAB_DIGITS = max(4, len(str(max(COUNTRY_VOCAB, INTL_VOCAB))))
_TAGS_PER_POST = 4

# The four files a population is written as, by the input name the commands give each.
POPULATION_FILES = {
    "posts": "posts.jsonl",
    "friends": "friends.csv",
    "ground_truth": "ground_truth.csv",
    "pair_covariates": "pair_covariates.csv",
}
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
    tags_per_user: tuple[int, int] = (20, 60)
    country_tag_specificity: float = 0.8
    seed: int = 42
    year: int = 2018
    noise: float = 0.0
    lang_alignment: bool = True

    def validate(self) -> None:
        if not all(isinstance(n, Integral) for n in (self.n_users, *self.tags_per_user)):
            raise ValueError(f"n_users and tags_per_user must be integers, got {self.n_users} and {self.tags_per_user}")
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if not 0.0 <= self.migrant_fraction <= 1.0:
            raise ValueError("migrant_fraction must lie in [0, 1]")
        if len(self.countries) < 2:
            raise ValueError("need at least two countries")
        if len(set(self.countries)) != len(self.countries):
            raise ValueError("countries must be distinct")
        unknown = [c for c in self.countries if normalize_alpha2(c) != c]
        if unknown:
            raise ValueError(f"countries must be upper-case ISO alpha-2 codes, got {', '.join(unknown)}")
        if not 0.0 <= self.country_tag_specificity <= 1.0:
            raise ValueError("country_tag_specificity must lie in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if self.tags_per_user[0] < 1 or self.tags_per_user[0] > self.tags_per_user[1]:
            raise ValueError("tags_per_user must be an increasing positive range")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if not 1971 <= self.year <= 2099:
            # Posts fall in year - 1 and year, and the parser reads [1970, 2100).
            raise ValueError(f"year must lie in [1971, 2099], got {self.year}")


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

    posts: list[Post]
    friend_rows: list[tuple[str, str]]
    truth: dict[str, TruthRow]
    pair_rows: list[dict[str, object]]


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a full population in memory. Equal specs give equal results."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    countries = list(spec.countries)
    n_countries = len(countries)
    table = load_country_languages()
    languages = {c: table.get(c, c.lower()) for c in countries}

    classes = sorted(CLASS_TARGETS)
    weights = np.full(len(classes), 1 / len(classes))

    n_migrants = int(round(spec.n_users * spec.migrant_fraction))
    width = max(5, len(str(spec.n_users)))
    user_ids = [f"{USER_PREFIX}{i:0{width}d}" for i in range(spec.n_users)]

    # Phase 1: (home, residence, class) for everyone; a native lives at home.
    people: list[tuple[str, str, str | None]] = []
    for i in range(spec.n_users):
        h = int(rng.integers(n_countries))
        home, dest, cls = countries[h], countries[h], None
        if i < n_migrants:
            shift = 1 + int(rng.integers(n_countries - 1))
            dest = countries[(h + shift) % n_countries]
            cls = classes[int(rng.choice(len(classes), p=weights))]
        people.append((home, dest, cls))

    pools: dict[str, list[int]] = {c: [] for c in countries}
    for i in range(n_migrants, spec.n_users):
        pools[people[i][0]].append(i)

    # Phase 2: friends. Home-country picks come straight from the home
    # non-migrant pool so friend evidence stays anchored on the origin.
    n_home_friends = int(round(FRIENDS_PER_USER * HOME_FRIEND_BIAS))
    n_random = FRIENDS_PER_USER - n_home_friends
    friend_rows: list[tuple[str, str]] = []
    for i, (home, _, _) in enumerate(people):
        home_pool = pools[home]
        picks: list[int] = []
        if home_pool:
            idx = rng.integers(0, len(home_pool), size=n_home_friends).tolist()
            picks.extend(home_pool[j] for j in idx)
        picks.extend(rng.integers(0, spec.n_users, size=n_random).tolist())
        for j in picks:
            if j != i:
                friend_rows.append((user_ids[i], user_ids[j]))

    # Phase 3: posts, each at noon UTC on a day counted from January 1.
    new_year = {y: datetime(y, 1, 1, 12, tzinfo=timezone.utc) for y in (spec.year - 1, spec.year)}
    posts: list[Post] = []
    truth: dict[str, TruthRow] = {}
    for i in range(spec.n_users):
        user = user_ids[i]
        home, dest, cls = people[i]
        migrant = i < n_migrants
        # A native's destination is its home: its da_t is 0 and both its languages are one.
        ha_t, da_t = CLASS_TARGETS[cls] if migrant else (spec.country_tag_specificity, 0.0)
        dest_share = DEST_LANG_SHARE[cls] if spec.lang_alignment and migrant else 0.5
        home_lang, dest_lang = languages[home], languages[dest]

        def post(year: int, day: int, country: str | None, tags: tuple[str, ...] = ()) -> None:
            lang = dest_lang if rng.random() < dest_share else home_lang
            posts.append(Post(user, new_year[year] + timedelta(days=day), country, lang, tags))

        # Geo evidence: current-year days at the residence, prior-year days
        # at the origin. The prior-year block is the larger one, so all-time
        # geo evidence points home while the reference year points to the
        # destination.
        n_now = int(rng.integers(GEO_DAYS[0], GEO_DAYS[1] + 1))
        n_past = int(rng.integers(HISTORY_GEO_DAYS[0], HISTORY_GEO_DAYS[1] + 1))
        now_days = rng.choice(365, size=n_now, replace=False).tolist()
        past_days = rng.choice(365, size=n_past, replace=False).tolist()
        for day in sorted(now_days):
            post(spec.year, day, dest)
        for day in sorted(past_days):
            post(spec.year - 1, day, home)

        # Hashtag uses, bundled into ungeotagged posts: each is noise, home, destination or shared.
        n_tags = int(rng.integers(spec.tags_per_user[0], spec.tags_per_user[1] + 1))
        draws = rng.random(n_tags).tolist()
        noise_draws = rng.random(n_tags).tolist() if spec.noise > 0 else None
        vocab_idx = rng.integers(0, max(COUNTRY_VOCAB, INTL_VOCAB), size=n_tags).tolist()
        tokens: list[str] = []
        for k, (u, idx) in enumerate(zip(draws, vocab_idx)):
            if noise_draws is not None and noise_draws[k] < spec.noise:
                country = countries[int(rng.integers(n_countries))]
            elif u < ha_t:
                country = home
            elif u < ha_t + da_t:
                country = dest
            else:
                tokens.append(f"intl_tag_{idx % INTL_VOCAB:0{VOCAB_DIGITS}d}")
                continue
            tokens.append(f"{country.lower()}_tag_{idx % COUNTRY_VOCAB:0{VOCAB_DIGITS}d}")
        tag_days = rng.integers(0, 365, size=(n_tags + _TAGS_PER_POST - 1) // _TAGS_PER_POST).tolist()
        for chunk, day in zip(range(0, n_tags, _TAGS_PER_POST), tag_days):
            post(spec.year, day, None, tuple(tokens[chunk : chunk + _TAGS_PER_POST]))

        planted = (ha_t, da_t) if migrant else (None, None)
        truth[user] = TruthRow(user, dest, home, cls, *planted, n_tags)

    pair_rows = _pair_covariate_rows(rng, countries, languages)
    return Population(posts, friend_rows, truth, pair_rows)


def _pair_covariate_rows(
    rng: np.random.Generator, countries: Sequence[str], languages: dict[str, str]
) -> list[dict[str, object]]:
    """Synthetic gravity covariates for every unordered country pair."""
    rows: list[dict[str, object]] = []
    for pair in combinations(countries, 2):
        a, b = sorted(pair)
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
    """Write the population's POPULATION_FILES into ``out_dir``; their paths by input name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in POPULATION_FILES.items()}
    write_posts(paths["posts"], population.posts)
    write_table(paths["friends"], FRIEND_COLUMNS, population.friend_rows)
    truth = (population.truth[user_id] for user_id in sorted(population.truth))
    write_table(paths["ground_truth"], TRUTH_COLUMNS, map(attrgetter(*TRUTH_COLUMNS), truth))
    write_table(paths["pair_covariates"], PAIR_COLUMNS, map(itemgetter(*PAIR_COLUMNS), population.pair_rows))
    return paths


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
    min_hashtags: int = DEFAULT_MIN_HASHTAGS,
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
