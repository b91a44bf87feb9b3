"""Shuffle null model: volume-preserving random redistribution of hashtags.

The pooled multiset of canonical hashtag uses of the shuffle population is
permuted uniformly at random and dealt back so that every user keeps
exactly their original number of uses. Attachment recomputed on the
shuffled corpus gives the null indices; the atlas is not rebuilt (it
derives from non-migrants, untouched by a migrant-only shuffle).

A replicate is computed on arrays, without shuffling any post: each pooled
slot's owner, the owner's home and destination codes and the assignment
code of the slot's token are found once per call, and a replicate permutes
the assignment codes and counts them per scored migrant with
``count_uses``, the rule ``compute_scores`` counts by. The permutation is
the one ``shuffle_hashtags`` deals with the same seed, so the counts equal
those of ``compute_scores`` on the shuffled posts.

The scored migrants are the rows of a scores table, not a second volume
filter. Before the first replicate the unshuffled slots are counted with
the same rule, and a row whose counts they do not give is refused: the table
does not fit the posts, atlas or year.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .attachment import AttachmentScore, assignment_codes, count_uses, score_rows
from .corpus import Corpus, Post

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
    scores: Sequence[AttachmentScore],
    atlas: Mapping[str, HashtagRecord],
    year: int,
    replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    shuffle_population: str = "scored",
) -> list[ShuffleRun]:
    """Run the shuffle + rescore loop over the migrants of ``scores``; one ShuffleRun per replicate.

    Replicate i uses derived seed ``seed + i``. The shuffle population is
    the scored migrants by default; ``shuffle_population="all"`` pools the
    hashtags of every user instead. Per-user volumes are preserved either
    way, so every replicate scores the migrants of ``scores``, in their order.

    Each score row must fit the posts, atlas and year: counted unshuffled,
    its user's ``n_hashtags``, ``n_home`` and ``n_dest`` must equal the
    row's, or a ValueError names the first user whose row does not.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if shuffle_population not in ("scored", "all"):
        raise ValueError(f"unknown shuffle population {shuffle_population!r}")
    corpus = Corpus.from_posts(posts)
    who = [(s.user_id, s.nationality, s.residence) for s in scores]
    n_hashtags = np.array([s.n_hashtags for s in scores], dtype=np.int64)
    row_of = {user_id: row for row, (user_id, _, _) in enumerate(who)}
    pool = _pool(corpus, year, set(row_of) if shuffle_population == "scored" else None)

    # Once per call: the score row owning each pooled slot, kept only where
    # there is one, that row's home and destination codes, and the
    # assignment code of every pooled slot's token.
    countries: dict[str, int] = {}
    home = np.array([countries.setdefault(s.nationality, len(countries)) for s in scores], dtype=np.int64)
    dest = np.array([countries.setdefault(s.residence, len(countries)) for s in scores], dtype=np.int64)
    user_row = np.array([row_of.get(user_id, -1) for user_id in corpus.users], dtype=np.int64)
    owner_row = user_row[corpus.user[corpus.slot_post()[pool]]]
    owned = np.flatnonzero(owner_row >= 0)
    row = owner_row[owned]
    home, dest = home[row], dest[row]
    codes = assignment_codes(corpus.tokens, atlas, countries)[corpus.tags[pool]]

    observed = np.stack([np.bincount(row, minlength=len(who)), *count_uses(row, codes[owned], home, dest, len(who))])
    expected = np.array([n_hashtags, [s.n_home for s in scores], [s.n_dest for s in scores]], dtype=np.int64)
    unfit = np.flatnonzero((observed != expected).any(axis=0))
    if len(unfit):
        first = unfit[0]
        raise ValueError(
            f"user_id {who[first][0]}: its row holds n_hashtags, n_home, n_dest = {expected[:, first].tolist()}, "
            f"but the posts, atlas and year {year} give {observed[:, first].tolist()}"
        )

    runs = []
    for index in range(replicates):
        derived = seed + index
        # Pooled slot j receives the token of slot order[j], as _permuted deals them.
        order = np.random.default_rng(derived).permutation(len(pool))
        n_home, n_dest = count_uses(row, codes[order[owned]], home, dest, len(who))
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
