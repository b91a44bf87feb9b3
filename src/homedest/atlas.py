"""Country assignment for hashtags via the nationality distribution of
non-migrant users, with a normalized-entropy filter for international tags.

A token's distribution P counts distinct non-migrant users per nationality
(one count per user regardless of repetition); only tokens with at least
one such user in the year enter the atlas. Tokens whose normalized entropy
exceeds the threshold are labeled "international", the others their top
nationality.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, distinct
from .labeling import UserProfile
from .tables import read_table, write_table

INTERNATIONAL = "international"

DEFAULT_ENTROPY_THRESHOLD = 0.5
# Equal bins over [0, 1] of every histogram the report writes.
HISTOGRAM_BINS = 50

ATLAS_COLUMNS = {"token": str, "assignment": str, "entropy": float, "n_users": int, "top_country_fraction": float}
ATLAS_KEY = ("token",)
ATLAS_RULES = {
    "0 <= entropy <= 1": lambda row: 0 <= row["entropy"] <= 1,
    "0 < top_country_fraction <= 1": lambda row: 0 < row["top_country_fraction"] <= 1,
    "n_users >= 1": lambda row: row["n_users"] >= 1,
}
# One token's nationality shares, one row per country with a user of it.
DISTRIBUTION_COLUMNS = {"token": str, "country": str, "fraction": float}

# An atlas.csv row, plus ``p``: the token's share of users per nationality.
HashtagRecord = NamedTuple("HashtagRecord", [*ATLAS_COLUMNS.items(), ("p", dict)])


def normalized_entropy(p: Mapping[str, float]) -> float:
    """Shannon entropy of ``p`` divided by log of its support size.

    ``p`` must be a nonempty distribution with strictly positive values
    summing to 1. A single-country distribution has entropy 0 by convention
    (the 0/0 limit; one country is maximally specific). Natural log; the
    normalization cancels the base.
    """
    if not p:
        raise ValueError("empty distribution")
    if len(p) == 1:
        return 0.0
    values = sorted(p.values())
    # The uniform case is exactly 1 by definition; the float sum below can
    # drift a couple of ulp either side of it (including above 1.0).
    if values[0] == values[-1]:
        return 1.0
    # Summation in sorted order keeps the result independent of dict order.
    h = -sum(v * math.log(v) for v in values)
    return min(max(h / math.log(len(p)), 0.0), 1.0)


def build_atlas(
    corpus: Corpus,
    profiles: Mapping[str, UserProfile],
    year: int,
    threshold: float = DEFAULT_ENTROPY_THRESHOLD,
) -> dict[str, HashtagRecord]:
    """Assign a nationality (or "international") to every canonical token
    used by at least one non-migrant in the year.

    Assignment is the argmax of the user distribution when entropy is at or
    below the threshold; argmax ties break by higher user count, then
    lexicographic country code.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    n_users = len(corpus.users)
    nationalities: dict[str | None, int] = {}
    nationality = np.full(n_users, -1, dtype=np.int64)
    for index, user_id in enumerate(corpus.users):
        profile = profiles.get(user_id)
        if profile is not None and profile.is_migrant is False:
            nationality[index] = nationalities.setdefault(profile.nationality, len(nationalities))

    slots, user = corpus.uses(year, nationality >= 0)
    token_user = distinct(corpus.tags[slots].astype(np.int64) * n_users + user)
    token, user = np.divmod(token_user, n_users)
    names = tuple(nationalities)
    keys, n = np.unique(token * len(names) + nationality[user], return_counts=True)
    token, country = np.divmod(keys, len(names))
    records = []
    for t, group in groupby(zip(token.tolist(), country.tolist(), n.tolist()), key=itemgetter(0)):
        counts = {names[c]: count for _, c, count in group}
        total = sum(counts.values())
        best = max(counts.values())
        p = {c: count / total for c, count in counts.items()}
        entropy = normalized_entropy(p)
        assignment = INTERNATIONAL
        if entropy <= threshold:
            assignment = min(c for c, count in counts.items() if count == best)
        records.append(HashtagRecord(corpus.tokens[t], assignment, entropy, total, best / total, p))
    return {record.token: record for record in sorted(records)}


def unit_histogram(values: Sequence[float] | np.ndarray) -> tuple[list[float], list[int]]:
    """Histogram of values in [0, 1] over HISTOGRAM_BINS equal bins; (edges, counts).

    Bin i holds [i/bins, (i+1)/bins); the last bin also holds 1.0.
    """
    bins = HISTOGRAM_BINS
    edges = [i / bins for i in range(bins + 1)]
    index = (np.asarray(values, dtype=float) * bins).astype(np.int64)
    counts = np.bincount(np.clip(index, 0, bins - 1), minlength=bins)
    return edges, counts.tolist()


def write_atlas(
    path: str | Path,
    atlas: Mapping[str, HashtagRecord],
    header: Sequence[str],
    distributions_path: str | Path,
) -> None:
    """Persist the atlas as CSV, and each token's distribution in a long-format file."""
    records = [atlas[token] for token in sorted(atlas)]
    write_table(path, ATLAS_COLUMNS, (record[: len(ATLAS_COLUMNS)] for record in records), header)
    rows = ((r.token, c, f) for r in records for c, f in sorted(r.p.items()))
    write_table(distributions_path, DISTRIBUTION_COLUMNS, rows, header)


def read_atlas(path: str | Path) -> dict[str, HashtagRecord]:
    """Load an atlas CSV back into records; a row that breaks ATLAS_KEY or ATLAS_RULES is a TableError.

    The full per-country distribution lives in the companion file and is not
    reloaded here (``p`` is empty); downstream scoring only needs the assignment column.
    """
    return {row["token"]: HashtagRecord(**row, p={}) for row in read_table(path, ATLAS_COLUMNS, ATLAS_KEY, ATLAS_RULES)}
