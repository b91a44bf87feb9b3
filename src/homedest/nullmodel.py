"""Shuffle null model: volume-preserving random redistribution of hashtags.

The pooled multiset of canonical hashtag uses of the shuffle population is
permuted uniformly at random and dealt back so that every user keeps
exactly their original number of uses. Attachment recomputed on the
shuffled corpus gives the null indices; the atlas is not rebuilt (it
derives from non-migrants, untouched by a migrant-only shuffle).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .attachment import AttachmentScore, compute_scores
from .corpus import Corpus, Post
from .labeling import UserProfile

DEFAULT_REPLICATES = 5


@dataclass
class ShuffleRun:
    """One null-model replicate."""

    seed: int
    replicate_index: int
    scores0: list[AttachmentScore]


def _pool(corpus: Corpus, year: int | None, users: set[str] | None) -> np.ndarray:
    """Hashtag slots that enter the shuffle, in post and tag order.

    These are the slots holding a canonical token, in posts matching the
    ``year`` and ``users`` filters.
    """
    selected = np.ones(corpus.n_posts, dtype=bool)
    if year is not None:
        selected &= corpus.year == year
    if users is not None:
        selected &= np.array([u in users for u in corpus.users], dtype=bool)[corpus.user]
    return np.flatnonzero(selected[corpus.slot_post()] & (corpus.tags >= 0))


def _permuted(corpus: Corpus, pool: np.ndarray, seed: int) -> np.ndarray:
    """Token ids with those in ``pool`` permuted uniformly at random by ``seed``."""
    order = np.random.default_rng(seed).permutation(len(pool))
    tags = corpus.tags.copy()
    tags[pool] = corpus.tags[pool[order]]
    return tags


def shuffle_hashtags(
    posts: Sequence[Post],
    seed: int,
    year: int | None = None,
    users: set[str] | None = None,
) -> list[Post]:
    """Permute canonical hashtag uses across posts, preserving per-user volumes.

    Only canonicalizable tags in posts matching the ``year`` and ``users``
    filters enter the pool; they are written back in canonical form, which
    keeps volumes exact under re-canonicalization. Everything else about
    every post is untouched. Deterministic in (posts, seed); the same
    permutation as one ``null_distribution`` replicate with that seed.
    """
    corpus = Corpus.from_posts(posts)
    pool = _pool(corpus, year, users)
    tags = _permuted(corpus, pool, seed).tolist()
    pooled = np.zeros(len(tags), dtype=bool)
    pooled[pool] = True
    pooled = pooled.tolist()

    shuffled: list[Post] = []
    for post, start, end in zip(posts, corpus.offsets.tolist(), corpus.offsets[1:].tolist()):
        if not any(pooled[start:end]):
            shuffled.append(post)
            continue
        hashtags = tuple(
            corpus.tokens[tags[slot]] if pooled[slot] else raw
            for slot, raw in enumerate(post.hashtags, start)
        )
        shuffled.append(dataclasses.replace(post, hashtags=hashtags))
    return shuffled


def null_distribution(
    posts: Iterable[Post] | Corpus,
    profiles: Mapping[str, UserProfile],
    atlas: Mapping[str, HashtagRecord],
    year: int,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    min_hashtags: int = 10,
    shuffle_population: str = "scored",
) -> list[ShuffleRun]:
    """Run the shuffle + rescore loop; one ShuffleRun per replicate.

    Replicate i uses derived seed ``seed + i``. The shuffle population is
    the scored migrants by default; ``shuffle_population="all"`` pools the
    hashtags of every user instead (per-user volumes are still preserved,
    so the same migrants are scored).
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if shuffle_population not in ("scored", "all"):
        raise ValueError(f"unknown shuffle population {shuffle_population!r}")
    corpus = Corpus.from_posts(posts)

    users: set[str] | None = None
    if shuffle_population == "scored":
        real = compute_scores(corpus, profiles, atlas, year, min_hashtags=min_hashtags)
        users = {s.user_id for s in real}
    pool = _pool(corpus, year, users)

    runs = []
    for index in range(replicates):
        derived = seed + index
        shuffled = corpus.with_tags(_permuted(corpus, pool, derived))
        scores0 = compute_scores(shuffled, profiles, atlas, year, min_hashtags=min_hashtags)
        runs.append(ShuffleRun(seed=derived, replicate_index=index, scores0=scores0))
    return runs


def pooled(runs: Iterable[ShuffleRun], index: str) -> list[float]:
    """Pool HA0 or DA0 samples over replicates; ``index`` is "ha" or "da"."""
    if index not in ("ha", "da"):
        raise ValueError(f"index must be 'ha' or 'da', got {index!r}")
    values = []
    for run in runs:
        values.extend(getattr(score, index) for score in run.scores0)
    return values
