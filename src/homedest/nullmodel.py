"""Shuffle null model: volume-preserving random redistribution of hashtags.

The pooled multiset of canonical hashtag uses of the shuffle population is
permuted uniformly at random and dealt back so that every user keeps
exactly their original number of uses. Attachment recomputed on the
shuffled corpus gives the null indices; the atlas is not rebuilt (it
derives from non-migrants, untouched by a migrant-only shuffle).

A replicate is computed on arrays, without shuffling any post: each pooled
slot's owner, the owner's home and destination codes and the assignment
code of the slot's token are found once per call, and a replicate permutes
the assignment codes, compares them with the owners' codes and counts the
matches per scored migrant. The permutation is the one ``shuffle_hashtags``
deals with the same seed, so the counts equal those of ``compute_scores`` on
the shuffled posts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .attachment import AttachmentScore, compute_scores, country_codes, score_rows
from .corpus import Corpus, Post
from .labeling import UserProfile

DEFAULT_REPLICATES = 5


@dataclass(eq=False)
class ShuffleRun:
    """One null-model replicate: the shuffled home and destination counts of every scored migrant.

    ``who`` (each migrant's user_id, nationality and residence) and
    ``n_hashtags`` are in scores-row order and shared by every replicate of
    one ``null_distribution`` call; ``n_home`` and ``n_dest`` are this
    replicate's own.
    """

    seed: int
    replicate_index: int
    who: Sequence[tuple[str, str, str]]
    n_hashtags: np.ndarray
    n_home: np.ndarray
    n_dest: np.ndarray

    def rows(self) -> Iterator[tuple]:
        """The replicate's rows of a null scores table (NULL_SCORE_COLUMNS), without score objects."""
        for row in score_rows(self.who, self.n_hashtags, self.n_home, self.n_dest):
            yield (*row, self.replicate_index)

    @cached_property
    def scores0(self) -> list[AttachmentScore]:
        """The replicate's scores, built on first use."""
        return [AttachmentScore(*row) for row in score_rows(self.who, self.n_hashtags, self.n_home, self.n_dest)]


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
    hashtags of every user instead. Per-user volumes are preserved either
    way, so every replicate scores the observed scored migrants, in the
    same order.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if shuffle_population not in ("scored", "all"):
        raise ValueError(f"unknown shuffle population {shuffle_population!r}")
    corpus = Corpus.from_posts(posts)
    real = compute_scores(corpus, profiles, atlas, year, min_hashtags=min_hashtags)
    who = [(s.user_id, s.nationality, s.residence) for s in real]
    n_hashtags = np.array([s.n_hashtags for s in real], dtype=np.int64)
    pool = _pool(corpus, year, {s.user_id for s in real} if shuffle_population == "scored" else None)

    # Once per call: the scored row owning each pooled slot, kept only where
    # there is one, that row's home and destination codes, and the
    # assignment code of every pooled slot's token.
    row_of = {user_id: row for row, (user_id, _, _) in enumerate(who)}
    user_row = np.array([row_of.get(user_id, -1) for user_id in corpus.users], dtype=np.int64)
    owner = corpus.user[corpus.slot_post()[pool]]
    owned = np.flatnonzero(user_row[owner] >= 0)
    owner = owner[owned]
    row = user_row[owner]
    home, dest, assignment = country_codes(corpus, profiles, atlas)
    home, dest = home[owner], dest[owner]
    codes = assignment[corpus.tags[pool]]

    runs = []
    for index in range(replicates):
        derived = seed + index
        # Pooled slot j receives the token of slot order[j], as _permuted deals them.
        order = np.random.default_rng(derived).permutation(len(pool))
        drawn = codes[order[owned]]
        is_home = drawn == home
        is_dest = ~is_home & (drawn == dest)
        n_home = np.bincount(row[is_home], minlength=len(who))
        n_dest = np.bincount(row[is_dest], minlength=len(who))
        runs.append(ShuffleRun(derived, index, who, n_hashtags, n_home, n_dest))
    return runs


def pooled(runs: Iterable[ShuffleRun], index: str) -> list[float]:
    """Pool HA0 or DA0 samples over replicates; ``index`` is "ha" or "da"."""
    if index not in ("ha", "da"):
        raise ValueError(f"index must be 'ha' or 'da', got {index!r}")
    values = []
    for run in runs:
        values.extend(((run.n_home if index == "ha" else run.n_dest) / run.n_hashtags).tolist())
    return values
