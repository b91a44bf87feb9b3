"""Home and destination attachment indices for migrants.

For a migrant with nationality N and residence R, home attachment is the
fraction of their hashtag uses assigned to N and destination attachment the
fraction assigned to R. Uses of international or unassigned tokens stay in
the denominator, so the two indices always sum to at most 1. Migrants with
fewer than ``min_hashtags`` uses in the reference year are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .corpus import Corpus, Post
from .labeling import UserProfile
from .tables import bool_cell, read_table, write_table

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
    posts: Iterable[Post] | Corpus,
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
    corpus = Corpus.from_posts(posts)
    n_users = len(corpus.users)

    # Countries as codes: a token's assignment against each migrant's
    # nationality and residence; -1 matches neither.
    codes: dict[str | None, int] = {}
    home = np.full(n_users, -1, dtype=np.int64)
    dest = np.full(n_users, -1, dtype=np.int64)
    for index, user_id in enumerate(corpus.users):
        profile = profiles.get(user_id)
        if profile is not None and profile.is_migrant:
            home[index] = codes.setdefault(profile.nationality, len(codes))
            dest[index] = codes.setdefault(profile.residence, len(codes))
    records = (atlas.get(token) for token in corpus.tokens)
    assignment = np.array(
        [-1 if r is None else codes.get(r.assignment, -1) for r in records], dtype=np.int64
    )

    in_year = (corpus.year == year) & (home[corpus.user] >= 0)
    slot_post = corpus.slot_post()
    keep = (corpus.tags >= 0) & in_year[slot_post]
    user = corpus.user[slot_post[keep]].astype(np.int64)
    token = corpus.tags[keep].astype(np.int64)
    if count_mode == "distinct":
        user, token = np.divmod(np.unique(user * len(corpus.tokens) + token), len(corpus.tokens))
    is_home = assignment[token] == home[user]
    is_dest = ~is_home & (assignment[token] == dest[user])
    n_total = np.bincount(user, minlength=n_users).tolist()
    n_home = np.bincount(user[is_home], minlength=n_users).tolist()
    n_dest = np.bincount(user[is_dest], minlength=n_users).tolist()

    scores = []
    for index in sorted(np.unique(corpus.user[in_year]).tolist(), key=corpus.users.__getitem__):
        if n_total[index] < min_hashtags:
            continue
        user_id = corpus.users[index]
        profile = profiles[user_id]
        scores.append(
            AttachmentScore(
                user_id=user_id,
                nationality=profile.nationality,
                residence=profile.residence,
                ha=n_home[index] / n_total[index],
                da=n_dest[index] / n_total[index],
                n_hashtags=n_total[index],
                n_home=n_home[index],
                n_dest=n_dest[index],
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
                speaks_dest_lang=bool_cell(path, row, "speaks_dest_lang"),
            )
        )
    return scores
