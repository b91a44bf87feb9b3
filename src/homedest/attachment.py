"""Home and destination attachment indices for migrants.

For a migrant with nationality N and residence R, home attachment is the
fraction of their hashtag uses assigned to N and destination attachment the
fraction assigned to R. Uses of international or unassigned tokens stay in
the denominator, so the two indices always sum to at most 1. Migrants with
fewer than ``min_hashtags`` uses in the reference year are excluded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .corpus import Post, canonicalize_hashtag
from .labeling import UserProfile
from .tables import read_table, write_table

DEFAULT_MIN_HASHTAGS = 10

ASSIMILATION = "assimilation"
INTEGRATION = "integration"
MARGINALISATION = "marginalisation"
SEPARATION = "separation"
ACC_CLASSES = (ASSIMILATION, INTEGRATION, MARGINALISATION, SEPARATION)

SCORE_COLUMNS = (
    "user_id", "nationality", "residence", "ha", "da",
    "n_hashtags", "n_home", "n_dest", "acc_class", "speaks_dest_lang",
)


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


def compute_scores(
    posts: Iterable[Post],
    profiles: Mapping[str, UserProfile],
    atlas: Mapping[str, HashtagRecord],
    year: int,
    min_hashtags: int = DEFAULT_MIN_HASHTAGS,
    count_mode: str = "uses",
) -> list[AttachmentScore]:
    """Score every migrant with at least ``min_hashtags`` hashtag uses in the year.

    ``count_mode="uses"`` counts repeated tokens with multiplicity (default);
    ``"distinct"`` counts each token once per user.
    """
    if count_mode not in ("uses", "distinct"):
        raise ValueError(f"count_mode must be 'uses' or 'distinct', got {count_mode!r}")

    uses_by_user: dict[str, Counter] = {}
    for post in posts:
        if post.year != year:
            continue
        profile = profiles.get(post.user_id)
        if profile is None or not profile.is_migrant:
            continue
        counter = uses_by_user.setdefault(post.user_id, Counter())
        for raw in post.hashtags:
            token = canonicalize_hashtag(raw)
            if token is not None:
                counter[token] += 1

    scores = []
    for user_id in sorted(uses_by_user):
        counter = uses_by_user[user_id]
        profile = profiles[user_id]
        n_total = 0
        n_home = 0
        n_dest = 0
        for token, uses in counter.items():
            weight = 1 if count_mode == "distinct" else uses
            n_total += weight
            record = atlas.get(token)
            if record is None:
                continue
            if record.assignment == profile.nationality:
                n_home += weight
            elif record.assignment == profile.residence:
                n_dest += weight
        if n_total < min_hashtags:
            continue
        scores.append(
            AttachmentScore(
                user_id=user_id,
                nationality=profile.nationality,
                residence=profile.residence,
                ha=n_home / n_total,
                da=n_dest / n_total,
                n_hashtags=n_total,
                n_home=n_home,
                n_dest=n_dest,
            )
        )
    return scores


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


def apply_acculturation(
    scores: Iterable[AttachmentScore],
    ha_split: float | None = None,
    da_split: float | None = None,
) -> tuple[float, float]:
    """Fill ``acc_class`` on every score; returns the splits used.

    Splits default to the population medians of HA and DA over the given
    scores, since no fixed thresholds are defined for the quadrant taxonomy.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("no scores to classify")
    if ha_split is None:
        ha_split = float(np.median([s.ha for s in scores]))
    if da_split is None:
        da_split = float(np.median([s.da for s in scores]))
    for score in scores:
        score.acc_class = classify_acculturation(score.ha, score.da, ha_split, da_split)
    return ha_split, da_split


def language_cohorts(
    scores: Iterable[AttachmentScore],
    profiles: Mapping[str, UserProfile],
    dest_lang_table: Mapping[str, str],
    hi: float = 0.9,
    lo: float = 0.1,
) -> CohortSplit:
    """Split scored migrants by destination-language proficiency.

    Speakers post at least ``hi`` of their language-tagged posts in the
    official language of the residence country; non-speakers at most ``lo``.
    Everyone else, and users whose residence is missing from the language
    table, stays unclassified.
    """
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"need 0 <= lo < hi <= 1, got lo={lo}, hi={hi}")
    split = CohortSplit(speakers=[], non_speakers=[], unclassified=[])
    for score in scores:
        dest_lang = dest_lang_table.get(score.residence)
        if dest_lang is None:
            split.n_missing_language += 1
            split.unclassified.append(score)
            continue
        fraction = profiles[score.user_id].lang_fractions.get(dest_lang, 0.0)
        if fraction >= hi:
            score.speaks_dest_lang = True
            split.speakers.append(score)
        elif fraction <= lo:
            score.speaks_dest_lang = False
            split.non_speakers.append(score)
        else:
            split.unclassified.append(score)
    return split


def write_scores(
    path: str | Path,
    scores: Iterable[AttachmentScore],
    header: Sequence[str] = (),
    replicate: Iterable[int] | None = None,
) -> None:
    """Persist scores as CSV.

    Null-model runs pass ``replicate``, one replicate index per score, which
    adds a ``replicate`` column.
    """
    rows = map(attrgetter(*SCORE_COLUMNS), scores)
    if replicate is None:
        write_table(path, SCORE_COLUMNS, rows, header)
    else:
        rows = ((*row, index) for row, index in zip(rows, replicate, strict=True))
        write_table(path, (*SCORE_COLUMNS, "replicate"), rows, header)


def read_scores(path: str | Path) -> list[AttachmentScore]:
    """Load a scores CSV (optionally carrying a replicate column)."""
    scores = []
    for row in read_table(path, SCORE_COLUMNS):
        flag = row["speaks_dest_lang"]
        scores.append(
            AttachmentScore(
                user_id=row["user_id"],
                nationality=row["nationality"],
                residence=row["residence"],
                ha=float(row["ha"]),
                da=float(row["da"]),
                n_hashtags=int(row["n_hashtags"]),
                n_home=int(row["n_home"]),
                n_dest=int(row["n_dest"]),
                acc_class=row["acc_class"] or None,
                speaks_dest_lang=None if flag == "" else flag == "true",
            )
        )
    return scores
