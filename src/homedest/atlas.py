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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Post, distinct, tally
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


@dataclass
class HashtagRecord:
    """Nationality distribution and assignment for one canonical token."""

    token: str
    counts: dict[str, int]
    p: dict[str, float]
    entropy: float
    assignment: str
    n_users: int = 0
    top_fraction: float = 0.0


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


def _make_record(token: str, counts: Mapping[str, int], threshold: float) -> HashtagRecord:
    counts = dict(counts)
    total = sum(counts.values())
    p = {c: n / total for c, n in counts.items()}
    entropy = normalized_entropy(p)
    if entropy <= threshold:
        best = max(counts.values())
        assignment = min(c for c, n in counts.items() if n == best)
    else:
        assignment = INTERNATIONAL
    return HashtagRecord(token, counts, p, entropy, assignment, total, max(p.values()))


def build_atlas(
    posts: Iterable[Post] | Corpus,
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
    corpus = Corpus.from_posts(posts)
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
    counts = tally(token * len(nationalities) + nationality[user], tuple(nationalities))
    by_name = {corpus.tokens[t]: token_counts for t, token_counts in counts.items()}
    return {name: _make_record(name, by_name[name], threshold) for name in sorted(by_name)}


def build_distribution(
    posts: Iterable[Post],
    profiles: Mapping[str, UserProfile],
    token: str,
    year: int,
) -> dict[str, float]:
    """Nationality distribution of non-migrant users of ``token`` in ``year``.

    Users are counted once per token. Tokens used by no eligible user give
    an empty mapping.
    """
    record = build_atlas(posts, profiles, year).get(token)
    return record.p if record is not None else {}


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
    rows = ((r.token, r.assignment, r.entropy, r.n_users, r.top_fraction) for r in records)
    write_table(path, ATLAS_COLUMNS, rows, header)
    rows = ((r.token, c, f) for r in records for c, f in sorted(r.p.items()))
    write_table(distributions_path, {"token": str, "country": str, "fraction": float}, rows, header)


def read_atlas(path: str | Path) -> dict[str, HashtagRecord]:
    """Load an atlas CSV back into records; a row that breaks ATLAS_KEY or ATLAS_RULES is a TableError.

    The full per-country distribution lives in the companion file and is not
    reloaded here; downstream scoring only needs the assignment column.
    """
    atlas = {}
    for row in read_table(path, ATLAS_COLUMNS, ATLAS_KEY, ATLAS_RULES):
        top_fraction = row.pop("top_country_fraction")
        atlas[row["token"]] = HashtagRecord(counts={}, p={}, top_fraction=top_fraction, **row)
    return atlas
