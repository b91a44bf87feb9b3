"""Residence and nationality labeling for users; migrant flagging.

Residence for a reference year is the country with the most distinct
calendar days carrying a geo-tagged post in that year. Nationality combines
the user's all-time geo-post distribution with the dominant countries of
their friends; the language weight of the underlying identification method
is pinned to zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, FriendGraph, Post, distinct, tally
from .tables import read_table, write_table

# Nationality blends the user's own geotag share and their friends' share equally.
SELF_WEIGHT = 0.5
FRIEND_WEIGHT = 0.5

PROFILE_COLUMNS = {"user_id": str, "residence": str | None, "nationality": str | None, "is_migrant": bool | None}
PROFILE_KEY = ("user_id",)
PROFILE_RULES = {
    "is_migrant is empty without both countries, else residence != nationality":
        lambda row: row["is_migrant"] is _is_migrant(row["residence"], row["nationality"]),
}
LANG_COLUMNS = {"user_id": str, "lang": str, "fraction": float}
LANG_KEY = ("user_id", "lang")
LANG_RULES = {"0 <= fraction <= 1": lambda row: 0 <= row["fraction"] <= 1}


@dataclass
class UserProfile:
    """Per-user label bundle."""

    user_id: str
    residence: str | None = None
    nationality: str | None = None
    is_migrant: bool | None = None
    lang_fractions: dict[str, float] = field(default_factory=dict)


@dataclass
class LabelSummary:
    """Labeling funnel counts."""

    n_users: int = 0
    n_with_residence: int = 0
    n_with_nationality: int = 0
    n_with_both: int = 0
    n_migrants: int = 0


def pick_country(
    day_counts: Mapping[str, int], post_counts: Mapping[str, int]
) -> str | None:
    """Argmax of distinct-day counts; ties fall back to post counts, then code.

    The argmax is invariant to scaling all day counts by a positive constant.
    """
    if not day_counts:
        return None
    best_days = max(day_counts.values())
    tied = [c for c, d in day_counts.items() if d == best_days]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda c: (-post_counts.get(c, 0), c))


def _is_migrant(residence: str | None, nationality: str | None) -> bool | None:
    """Whether the two countries differ; None unless both are known."""
    return None if residence is None or nationality is None else residence != nationality


def _geo_evidence(corpus: Corpus, group: np.ndarray, year: int | None):
    """Per group: distinct-day and post counts per country over geo-tagged posts.

    With ``year`` set, only posts from that year count; with None, all-time.
    Groups without such posts are absent.
    """
    keep = corpus.country >= 0
    if year is not None:
        keep &= corpus.year == year
    pairs = group[keep].astype(np.int64) * len(corpus.countries) + corpus.country[keep]
    # One int64 key per distinct (pair, day): days shifted to start at 0 fit below span.
    day = corpus.day[keep] - corpus.day.min(initial=0)
    span = int(day.max(initial=0)) + 1
    days = distinct(pairs * span + day) // span
    return tally(days, corpus.countries), tally(pairs, corpus.countries)


def _pooled_evidence(posts: Iterable[Post], year: int | None):
    """Geo evidence of all ``posts`` taken together."""
    corpus = Corpus.from_posts(posts)
    days, n_posts = _geo_evidence(corpus, np.zeros(corpus.n_posts, np.int64), year)
    return days.get(0, {}), n_posts.get(0, {})


def assign_residence(posts: Iterable[Post], year: int) -> str | None:
    """Residence = country with most distinct geo-tagged days in the year.

    Returns None when the user has no geo-tagged post in the year.
    """
    return pick_country(*_pooled_evidence(posts, year))


def dominant_country(posts: Iterable[Post]) -> str | None:
    """All-time distinct-day argmax, with the residence tie-break chain."""
    return pick_country(*_pooled_evidence(posts, None))


def _nationality(
    geo_counts: Mapping[str, int],
    friend_ids: Iterable[str],
    friend_countries: Mapping[str, str],
) -> str | None:
    labeled = [friend_countries[f] for f in friend_ids if f in friend_countries]

    n_geo = sum(geo_counts.values())
    n_friends = len(labeled)
    scores: dict[str, float] = defaultdict(float)
    if n_geo:
        for country, count in geo_counts.items():
            scores[country] += SELF_WEIGHT * count / n_geo
    if n_friends:
        for country, count in Counter(labeled).items():
            scores[country] += FRIEND_WEIGHT * count / n_friends
    if not scores:
        return None
    best = max(scores.values())
    return min(c for c, s in scores.items() if s == best)


def assign_nationality(
    posts: Iterable[Post],
    friend_ids: Iterable[str],
    friend_countries: Mapping[str, str],
) -> str | None:
    """Nationality = argmax of SELF_WEIGHT * f_self(c) + FRIEND_WEIGHT * f_friends(c).

    f_self is the fraction of the user's all-time geo-tagged posts in each
    country; f_friends is the fraction of the user's labeled friends whose
    dominant country is c. The language term of the source method carries
    weight zero and is omitted. Ties break lexicographically; the result is
    None when no geo evidence and no labeled friend exists.
    """
    _, geo_counts = _pooled_evidence(posts, None)
    return _nationality(geo_counts, friend_ids, friend_countries)


def _fractions(counts: Mapping[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    return {lang: n / total for lang, n in counts.items()}


def _language_counts(corpus: Corpus, group: np.ndarray) -> dict[int, dict[str, int]]:
    keep = corpus.language >= 0
    return tally(group[keep].astype(np.int64) * len(corpus.languages) + corpus.language[keep], corpus.languages)


def language_fractions(posts: Iterable[Post]) -> dict[str, float]:
    """Fraction of the user's posts per language, over language-tagged posts."""
    corpus = Corpus.from_posts(posts)
    return _fractions(_language_counts(corpus, np.zeros(corpus.n_posts, np.int64)).get(0, {}))


def label_population(
    posts: Iterable[Post] | Corpus,
    friends: FriendGraph,
    year: int,
) -> tuple[dict[str, UserProfile], LabelSummary]:
    """Label every user that has at least one post.

    Two passes: first dominant countries for everyone (friend evidence),
    then per-user residence and nationality. Deterministic under input
    reordering: users are processed in sorted order and all evidence is
    aggregated before any decision.
    """
    corpus = Corpus.from_posts(posts)
    n_users = len(corpus.users)
    all_days, all_posts = _geo_evidence(corpus, corpus.user, None)
    year_days, year_posts = _geo_evidence(corpus, corpus.user, year)
    languages = _language_counts(corpus, corpus.user)
    order = sorted(range(n_users), key=corpus.users.__getitem__)

    dominant: dict[str, str] = {}
    for index in order:
        country = pick_country(all_days.get(index, {}), all_posts.get(index, {}))
        if country is not None:
            dominant[corpus.users[index]] = country

    profiles: dict[str, UserProfile] = {}
    summary = LabelSummary(n_users=n_users)
    for index in order:
        user_id = corpus.users[index]
        profile = UserProfile(
            user_id=user_id,
            residence=pick_country(year_days.get(index, {}), year_posts.get(index, {})),
            nationality=_nationality(all_posts.get(index, {}), friends.friends_of(user_id), dominant),
            lang_fractions=_fractions(languages.get(index, {})),
        )
        profile.is_migrant = _is_migrant(profile.residence, profile.nationality)
        profiles[user_id] = profile

        summary.n_with_residence += profile.residence is not None
        summary.n_with_nationality += profile.nationality is not None
        if profile.is_migrant is not None:
            summary.n_with_both += 1
            summary.n_migrants += profile.is_migrant
    return profiles, summary


def write_profiles(path: str | Path, profiles: Mapping[str, UserProfile], header: Sequence[str] = ()) -> None:
    """Persist profiles as CSV ``user_id,residence,nationality,is_migrant``."""
    records = (profiles[user_id] for user_id in sorted(profiles))
    write_table(path, PROFILE_COLUMNS, map(attrgetter(*PROFILE_COLUMNS), records), header)


def write_lang_fractions(path: str | Path, profiles: Mapping[str, UserProfile], header: Sequence[str] = ()) -> None:
    """Persist language fractions as CSV ``user_id,lang,fraction``."""
    rows = (
        (user_id, lang, fraction)
        for user_id in sorted(profiles)
        for lang, fraction in sorted(profiles[user_id].lang_fractions.items())
    )
    write_table(path, LANG_COLUMNS, rows, header)


def read_profiles(path: str | Path, lang_path: str | Path | None = None) -> dict[str, UserProfile]:
    """Load profiles (and optionally language fractions) back from CSV.

    A row that breaks PROFILE_KEY, PROFILE_RULES, LANG_KEY or LANG_RULES is a TableError.
    """
    rows = read_table(path, PROFILE_COLUMNS, PROFILE_KEY, PROFILE_RULES)
    profiles = {row["user_id"]: UserProfile(**row) for row in rows}
    if lang_path is not None:
        for row in read_table(lang_path, LANG_COLUMNS, LANG_KEY, LANG_RULES):
            profile = profiles.get(row["user_id"])
            if profile is not None:
                profile.lang_fractions[row["lang"]] = row["fraction"]
    return profiles
