"""Residence and nationality labeling for users; migrant flagging.

Residence for a reference year is the country with the most distinct
calendar days carrying a geo-tagged post in that year. Nationality combines
the user's all-time geo-post distribution with the dominant countries of
their friends; the language weight of the underlying identification method
is pinned to zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, FriendGraph, Post, counted, distinct
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


# One user's labels: a row of profiles.csv.
UserProfile = NamedTuple("UserProfile", PROFILE_COLUMNS.items())


@dataclass
class LabelSummary:
    """Labeling funnel counts."""

    n_users: int = 0
    n_with_residence: int = 0
    n_with_nationality: int = 0
    n_with_both: int = 0
    n_migrants: int = 0
    n_edges_without_posts: int = 0  # friend edges with an end that has no posts, so carry no evidence


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


def _geo_evidence(corpus: Corpus, group: np.ndarray, year: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geo evidence rows ``(key, days, posts)``: distinct-day and post counts per ``group * C + country`` key.

    C is ``len(corpus.countries)`` (at least 1). With ``year`` set, only posts
    from that year count; with None, all-time. Keys are sorted, and a key
    without such posts is absent.
    """
    keep = corpus.country >= 0
    if year is not None:
        keep &= corpus.year == year
    pairs = group[keep].astype(np.int64)
    pairs *= max(len(corpus.countries), 1)
    pairs += corpus.country[keep]
    # One int64 key per (pair, day): days shifted to start at 0 fit below span.
    day = corpus.day[keep]
    day -= corpus.day.min(initial=0)
    span = int(day.max(initial=0)) + 1
    days = pairs * span
    days += day
    del keep, day
    keys, posts = counted(pairs)
    days = distinct(days)
    days //= span  # still sorted: one pair key per distinct day
    return keys, counted(days)[1], posts


def _pooled_evidence(posts: Iterable[Post], year: int | None):
    """Geo evidence of all ``posts`` taken together, as {country: distinct calendar days} and {country: posts}.

    Counted post by post, apart from ``_geo_evidence``, so that the adapters
    below are an oracle for ``label_population``.
    """
    days: dict[str, set] = defaultdict(set)
    n_posts: Counter[str] = Counter()
    for post in posts:
        if post.country is not None and (year is None or post.year == year):
            days[post.country].add(post.timestamp.date())
            n_posts[post.country] += 1
    return {country: len(dates) for country, dates in days.items()}, dict(n_posts)


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


def language_fractions(posts: Iterable[Post]) -> dict[str, float]:
    """Fraction of the user's posts per language, over language-tagged posts, counted post by post."""
    counts = Counter(post.language for post in posts if post.language is not None)
    total = sum(counts.values())
    return {language: n / total for language, n in counts.items()}


def _pick(n_users: int, user: np.ndarray, country: np.ndarray, rank: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Per user, the country of its first row in the order of (``keys``, country code); -1 for a user without rows.

    ``rank`` gives each country id's place in the sorted country codes.
    """
    order = np.lexsort((rank[country], *reversed(keys), user))
    user, country = user[order], country[order]
    first = np.ones(len(user), dtype=bool)
    first[1:] = user[1:] != user[:-1]
    picked = np.full(n_users, -1, dtype=np.int32)
    picked[user[first]] = country[first]
    return picked


def label_population(
    corpus: Corpus,
    friends: FriendGraph,
    year: int,
) -> tuple[dict[str, UserProfile], LabelSummary]:
    """Label every user that has at least one post.

    Each decision is ``pick_country`` or ``assign_nationality``'s rule, made
    for all users at once over sparse ``(user, country)`` evidence rows:
    dominant countries for everyone first (friend evidence), then residence
    and nationality. A friend edge counts when both its ends have posts.
    Deterministic under input reordering: all evidence is aggregated before
    any decision, and ties break on the country code.
    """
    n_users, n_countries = len(corpus.users), max(len(corpus.countries), 1)
    rank = np.argsort(np.argsort(np.array(corpus.countries, dtype=str)))

    def pick(keys, *order):
        return _pick(n_users, keys // n_countries, keys % n_countries, rank, *order)

    self_keys, days, self_counts = _geo_evidence(corpus, corpus.user, None)
    dominant = pick(self_keys, -days, -self_counts)
    keys, days, counts = _geo_evidence(corpus, corpus.user, year)
    residence = pick(keys, -days, -counts)

    # Nationality: SELF_WEIGHT * count / n_geo over the user's own geotagged
    # posts plus FRIEND_WEIGHT * count / n_friends over the dominant countries
    # of the friends that have one, a missing term adding 0.0.
    index = {user_id: i for i, user_id in enumerate(corpus.users)}
    ends = np.array([index.get(i, -1) for i in friends.ids], dtype=np.int32)
    source, target = ends[friends.source], ends[friends.target]
    posted = (source >= 0) & (target >= 0)
    n_edges_without_posts = len(posted) - int(np.count_nonzero(posted))
    source, country = source[posted], dominant[target[posted]]
    del target, posted
    labeled = country >= 0
    source, country = source[labeled], country[labeled]
    n_friends = np.bincount(source, minlength=n_users)
    friend_keys = source.astype(np.int64)
    friend_keys *= n_countries
    friend_keys += country
    del source, country
    friend_keys, friend_counts = counted(friend_keys)
    n_geo = np.bincount(self_keys // n_countries, weights=self_counts, minlength=n_users)
    keys = distinct(np.concatenate((self_keys, friend_keys)))
    own, theirs = np.zeros(len(keys)), np.zeros(len(keys))
    own[np.searchsorted(keys, self_keys)] = SELF_WEIGHT * self_counts / n_geo[self_keys // n_countries]
    theirs[np.searchsorted(keys, friend_keys)] = FRIEND_WEIGHT * friend_counts / n_friends[friend_keys // n_countries]
    nationality = pick(keys, -(own + theirs))

    codes = (*corpus.countries, None)  # id -1 is None
    labels = zip(corpus.users, map(codes.__getitem__, residence.tolist()), map(codes.__getitem__, nationality.tolist()))
    profiles = {
        user_id: UserProfile(user_id, resident, national, _is_migrant(resident, national))
        for user_id, resident, national in sorted(labels)
    }
    both = (residence >= 0) & (nationality >= 0)
    summary = LabelSummary(
        n_users=n_users,
        n_with_residence=int((residence >= 0).sum()),
        n_with_nationality=int((nationality >= 0).sum()),
        n_with_both=int(both.sum()),
        n_migrants=int((both & (residence != nationality)).sum()),
        n_edges_without_posts=n_edges_without_posts,
    )
    return profiles, summary


def language_shares(corpus: Corpus) -> Iterator[tuple[str, str, float]]:
    """Each user's share of their language-tagged posts in each language, as ``(user_id, language, share)``.

    A user without a language-tagged post has no share. The shares come in
    the order of the corpus's user and language ids, not of their names.
    """
    # Language-tagged posts per user * L + language key.
    n_languages = max(len(corpus.languages), 1)
    tagged = corpus.language >= 0
    language_keys = corpus.user[tagged].astype(np.int64)
    language_keys *= n_languages
    language_keys += corpus.language[tagged]
    del tagged
    language_keys, language_counts = counted(language_keys)
    speaker = language_keys // n_languages
    shares = language_counts / np.bincount(speaker, weights=language_counts)[speaker]
    for user, language, share in zip(speaker.tolist(), (language_keys % n_languages).tolist(), shares.tolist()):
        yield corpus.users[user], corpus.languages[language], share


def write_profiles(path: str | Path, profiles: Mapping[str, UserProfile], header: Sequence[str] = ()) -> None:
    """Persist profiles as CSV ``user_id,residence,nationality,is_migrant``."""
    write_table(path, PROFILE_COLUMNS, (profiles[user_id] for user_id in sorted(profiles)), header)


def write_lang_fractions(path: str | Path, corpus: Corpus, header: Sequence[str] = ()) -> None:
    """Persist ``language_shares`` as CSV ``user_id,lang,fraction``, by user and then language."""
    write_table(path, LANG_COLUMNS, sorted(language_shares(corpus)), header)


def read_profiles(path: str | Path) -> dict[str, UserProfile]:
    """Load profiles back from CSV; a row that breaks PROFILE_KEY or PROFILE_RULES is a TableError."""
    return {row["user_id"]: UserProfile(**row) for row in read_table(path, PROFILE_COLUMNS, PROFILE_KEY, PROFILE_RULES)}
