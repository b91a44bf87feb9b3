"""Home and destination attachment indices for migrants.

For a migrant with nationality N and residence R, home attachment is the
fraction of their hashtag uses assigned to N and destination attachment the
fraction assigned to R. Uses of international tokens, and of tokens absent
from the atlas, stay in the denominator, so the two indices always sum to at
most 1. Migrants with fewer than ``min_hashtags`` uses in the reference year
are excluded.

``coded_uses`` codes the uses once: each use's assignment, and its migrant's
home and destination, as country codes. ``compute_scores`` and the shuffle
null (``nullmodel.null_distribution``) both count from it with
``count_uses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atlas import INTERNATIONAL, HashtagRecord
from .corpus import Corpus
from .labeling import UserProfile, language_shares
from .tables import read_table, write_table

DEFAULT_MIN_HASHTAGS = 10
# Shares of a migrant's language-tagged posts in the destination language
# that make a speaker (at least) and a non-speaker (at most).
SPEAKER_SHARE = 0.9
NON_SPEAKER_SHARE = 0.1

ASSIMILATION = "assimilation"
INTEGRATION = "integration"
MARGINALISATION = "marginalisation"
SEPARATION = "separation"

SCORE_COLUMNS = {
    "user_id": str, "nationality": str, "residence": str, "ha": float, "da": float,
    "n_hashtags": int, "n_home": int, "n_dest": int, "acc_class": str | None, "speaks_dest_lang": bool | None,
}
SCORE_KEY = ("user_id",)
SCORE_RULES = {
    "n_hashtags >= 1": lambda row: row["n_hashtags"] >= 1,
    "no negative count": lambda row: row["n_home"] >= 0 and row["n_dest"] >= 0,
    "n_home + n_dest <= n_hashtags": lambda row: row["n_home"] + row["n_dest"] <= row["n_hashtags"],
    "ha == n_home / n_hashtags": lambda row: row["ha"] == row["n_home"] / row["n_hashtags"],
    "da == n_dest / n_hashtags": lambda row: row["da"] == row["n_dest"] / row["n_hashtags"],
}


@dataclass
class AttachmentScore:
    """Attachment indices and counts for one scored migrant."""

    user_id: str
    nationality: str
    residence: str
    ha: float
    da: float
    n_hashtags: int
    n_home: int
    n_dest: int
    acc_class: str | None = None
    speaks_dest_lang: bool | None = None


@dataclass
class CohortSplit:
    """Destination-language proficiency split of scored migrants."""

    speakers: list[AttachmentScore]
    non_speakers: list[AttachmentScore]
    unclassified: list[AttachmentScore]
    n_missing_language: int = 0
    n_untagged: int = 0


def count_uses(
    row: np.ndarray, drawn: np.ndarray, home: np.ndarray, dest: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row in ``range(n)``, its home and destination uses; use i is ``row[i]``'s, with code ``drawn[i]``.

    A use is home when its code is the nationality's (``home[i]``), else
    destination when it is the residence's (``dest[i]``).
    """
    is_home = drawn == home
    is_dest = ~is_home & (drawn == dest)
    return np.bincount(row[is_home], minlength=n), np.bincount(row[is_dest], minlength=n)


def score_rows(
    who: Iterable[tuple[str, str, str]], n_total: np.ndarray, n_home: np.ndarray, n_dest: np.ndarray
) -> Iterator[tuple]:
    """Scores-table rows, in SCORE_COLUMNS order, of migrants from their use counts.

    ``who`` gives each migrant's (user_id, nationality, residence) and the
    arrays give their counts, in the same order; no class or cohort is set
    yet.
    """
    ha = (n_home / n_total).tolist()
    da = (n_dest / n_total).tolist()
    counts = zip(n_total.tolist(), n_home.tolist(), n_dest.tolist())
    for (user_id, nationality, residence), h, d, (total, home, dest) in zip(who, ha, da, counts, strict=True):
        yield user_id, nationality, residence, h, d, total, home, dest, None, None


def coded_uses(
    corpus: Corpus,
    atlas: Mapping[str, HashtagRecord],
    year: int,
    who: Sequence[tuple[str, str, str]],
    everyone: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The in-year hashtag uses of the migrants of ``who``, coded for ``count_uses``.

    ``who`` gives each migrant's (user_id, nationality, residence). The pool
    is the uses (``Corpus.uses``) of those migrants, or of every user when
    ``everyone``. Returns, as arrays: each pooled use's assignment code (-1
    for a token assigned to no country of ``who``, -2 for an international
    one and -3 for one absent from the atlas);
    the positions in the pool of the migrants' uses; each such use's row in
    ``who``; and that row's home and destination codes.
    """
    # Codes and rows are int32, the width of the corpus's own ids.
    countries: dict[str, int] = {}
    home = np.array([countries.setdefault(nationality, len(countries)) for _, nationality, _ in who], dtype=np.int32)
    dest = np.array([countries.setdefault(residence, len(countries)) for _, _, residence in who], dtype=np.int32)
    row_of = {user_id: row for row, (user_id, _, _) in enumerate(who)}
    user_row = np.array([row_of.get(user_id, -1) for user_id in corpus.users], dtype=np.int32)
    slots, user = corpus.uses(year, None if everyone else user_row >= 0)
    row = user_row[user]
    del user
    owned = np.flatnonzero(row >= 0)
    row = row[owned]
    records = (atlas.get(token) for token in corpus.tokens)
    other = {INTERNATIONAL: -2}
    assignment = np.array(
        [-3 if r is None else countries.get(r.assignment, other.get(r.assignment, -1)) for r in records], dtype=np.int32
    )
    codes = corpus.tags[slots]
    del slots
    return assignment[codes], owned, row, home[row], dest[row]


def compute_scores(
    corpus: Corpus,
    profiles: Mapping[str, UserProfile],
    atlas: Mapping[str, HashtagRecord],
    year: int,
    min_hashtags: int = DEFAULT_MIN_HASHTAGS,
) -> list[AttachmentScore]:
    """Score every migrant with at least ``min_hashtags`` hashtag uses in the year, by user id.

    Every use counts, a repeated token as often as it is used.
    """
    if min_hashtags < 1:
        raise ValueError(f"min_hashtags must be >= 1, got {min_hashtags}")
    who = sorted((user_id, p.nationality, p.residence) for user_id, p in profiles.items() if p.is_migrant)
    codes, owned, row, home, dest = coded_uses(corpus, atlas, year, who)
    n_total = np.bincount(row, minlength=len(who))
    n_home, n_dest = count_uses(row, codes[owned], home, dest, len(who))
    kept = np.flatnonzero(n_total >= min_hashtags)
    scored = [who[i] for i in kept.tolist()]
    return [AttachmentScore(*r) for r in score_rows(scored, n_total[kept], n_home[kept], n_dest[kept])]


def atlas_coverage(
    corpus: Corpus,
    scores: Sequence[AttachmentScore],
    atlas: Mapping[str, HashtagRecord],
    year: int,
) -> dict[str, int]:
    """How the in-year hashtag uses of the migrants of ``scores`` fall in the atlas.

    Each use counts once, under the first that applies: its token is
    assigned to the migrant's home, to their destination, to another
    country, international, or not in the atlas. The counts sum to the uses.
    """
    who = [(s.user_id, s.nationality, s.residence) for s in scores]
    codes, owned, row, home, dest = coded_uses(corpus, atlas, year, who)
    drawn = codes[owned]
    n_home, n_dest = (int(n.sum()) for n in count_uses(row, drawn, home, dest, len(who)))
    n_international, n_absent = int((drawn == -2).sum()), int((drawn == -3).sum())
    return {
        "home": n_home,
        "destination": n_dest,
        "other country": len(drawn) - n_home - n_dest - n_international - n_absent,
        "international": n_international,
        "not in the atlas": n_absent,
    }


def classify_acculturation(ha: float, da: float, ha_split: float, da_split: float) -> str:
    """Quadrant rule over (ha, da); "high" means strictly above the split."""
    high_ha = ha > ha_split
    high_da = da > da_split
    if high_ha and high_da:
        return INTEGRATION
    if high_ha:
        return SEPARATION
    if high_da:
        return ASSIMILATION
    return MARGINALISATION


def apply_acculturation(scores: Iterable[AttachmentScore]) -> tuple[float, float]:
    """Fill ``acc_class`` on every score; returns the (ha, da) splits used.

    The splits are the population medians of HA and DA over the given
    scores, since no fixed thresholds are defined for the quadrant taxonomy.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to classify")
    ha_split = float(np.median([s.ha for s in scores]))
    da_split = float(np.median([s.da for s in scores]))
    for score in scores:
        score.acc_class = classify_acculturation(score.ha, score.da, ha_split, da_split)
    return ha_split, da_split


def language_cohorts(
    scores: Sequence[AttachmentScore],
    corpus: Corpus,
    dest_lang_table: Mapping[str, str],
) -> CohortSplit:
    """Split scored migrants by destination-language proficiency.

    Speakers post at least SPEAKER_SHARE of their language-tagged posts in
    the corpus (``language_shares``) in the official language of the
    residence country; non-speakers at most NON_SPEAKER_SHARE. Everyone else
    stays unclassified, as do users whose residence is missing from the
    language table (``n_missing_language``) and users without a
    language-tagged post (``n_untagged``).
    """
    shares: dict[str, dict[str, float]] = {score.user_id: {} for score in scores}
    for user_id, language, share in language_shares(corpus):
        if user_id in shares:
            shares[user_id][language] = share
    split = CohortSplit(speakers=[], non_speakers=[], unclassified=[])
    for score in scores:
        dest_lang = dest_lang_table.get(score.residence)
        if dest_lang is None:
            split.n_missing_language += 1
            split.unclassified.append(score)
            continue
        fractions = shares[score.user_id]
        if not fractions:
            split.n_untagged += 1
            split.unclassified.append(score)
            continue
        fraction = fractions.get(dest_lang, 0.0)
        if fraction >= SPEAKER_SHARE:
            score.speaks_dest_lang = True
            split.speakers.append(score)
        elif fraction <= NON_SPEAKER_SHARE:
            score.speaks_dest_lang = False
            split.non_speakers.append(score)
        else:
            split.unclassified.append(score)
    return split


def write_scores(path: str | Path, scores: Iterable[AttachmentScore], header: Sequence[str] = ()) -> None:
    """Persist scores as CSV."""
    write_table(path, SCORE_COLUMNS, map(attrgetter(*SCORE_COLUMNS), scores), header)


def read_scores(path: str | Path) -> list[AttachmentScore]:
    """Load a scores CSV, one row per migrant; a row that breaks SCORE_KEY or SCORE_RULES is a TableError."""
    return [AttachmentScore(**row) for row in read_table(path, SCORE_COLUMNS, SCORE_KEY, SCORE_RULES)]

