"""Shuffle null model: volume-preserving random redistribution of hashtags.

The pooled multiset of canonical hashtag uses of the shuffle population is
permuted uniformly at random and dealt back so that every user keeps
exactly their original number of uses. Attachment recomputed on the
shuffled corpus gives the null indices; the atlas is not rebuilt (it
derives from non-migrants, untouched by a migrant-only shuffle).

A replicate is computed on arrays, without shuffling any post: the pool is
coded once per call by ``attachment.coded_uses``, the function
``compute_scores`` counts from, and a replicate permutes the pooled
assignment codes and counts them per scored migrant with ``count_uses``.
The permutation is the one ``shuffle_hashtags`` deals with the same seed,
so the counts equal those of ``compute_scores`` on the shuffled posts.

The scored migrants are the rows of a scores table, not a second volume
filter. Before the first replicate the unshuffled uses are counted the same
way, and a row whose counts they do not give is refused: the table does not
fit the posts, atlas or year.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atlas import HashtagRecord
from .attachment import SCORE_COLUMNS, AttachmentScore, coded_uses, count_uses, score_rows
from .corpus import Corpus, Post
from .tables import TableError, read_table, write_table

DEFAULT_REPLICATES = 5

# One block of rows per replicate; only ``ha`` and ``da`` are read back.
NULL_SCORE_COLUMNS = {**SCORE_COLUMNS, "replicate": int}
NULL_SCORE_RULES = {
    "0 <= ha <= 1": lambda row: 0 <= row["ha"] <= 1,
    "0 <= da <= 1": lambda row: 0 <= row["da"] <= 1,
    "ha + da <= 1": lambda row: row["ha"] + row["da"] <= 1,
}


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

    @cached_property
    def scores0(self) -> list[AttachmentScore]:
        """The replicate's scores, built on first use."""
        return list(score_rows(self.who, self.n_hashtags, self.n_home, self.n_dest))


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
    flagged = None if users is None else np.array([user_id in users for user_id in corpus.users], dtype=bool)
    pool, _ = corpus.uses(year, flagged)
    # Pooled slot j receives the token of slot order[j].
    order = np.random.default_rng(seed).permutation(len(pool))
    tags = corpus.tags.copy()
    tags[pool] = corpus.tags[pool[order]]
    tags = tags.tolist()
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
    corpus: Corpus,
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
    who = [(s.user_id, s.nationality, s.residence) for s in scores]
    n_hashtags = np.array([s.n_hashtags for s in scores], dtype=np.int64)
    everyone = shuffle_population == "all"
    codes, owned, row, home, dest = coded_uses(corpus, atlas, year, who, everyone)

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
        # Pooled use j receives the code of use order[j], as shuffle_hashtags deals them.
        order = np.random.default_rng(derived).permutation(len(codes))
        n_home, n_dest = count_uses(row, codes[order][owned], home, dest, len(who))
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


def write_null_scores(path: str | Path, runs: Iterable[ShuffleRun], header: Sequence[str] = ()) -> None:
    """Write the replicates' rows as a null scores table, each formatted as it is written, not kept."""
    rows = (
        (*row, run.replicate_index) for run in runs for row in score_rows(run.who, run.n_hashtags, run.n_home, run.n_dest)
    )
    write_table(path, NULL_SCORE_COLUMNS, rows, header)


def read_null_indices(
    path: str | Path, user_ids: Sequence[str], scores_path: str | Path
) -> tuple[np.ndarray, np.ndarray]:
    """The ``ha`` and ``da`` columns of the null of the migrants ``user_ids``, as float arrays.

    R rows per migrant are kept as arrays, not row objects. A row that breaks
    NULL_SCORE_RULES is a TableError. So is a table whose rows are not whole
    replicate blocks of ``user_ids`` in their order, the way
    ``write_null_scores`` writes their null; the message names
    ``scores_path``, the table those migrants come from.
    """
    rows = read_table(path, {"user_id": str, "ha": float, "da": float}, rules=NULL_SCORE_RULES)
    values = np.fromiter(
        ((row["user_id"], row["ha"], row["da"]) for row in rows), dtype=[("user_id", object), ("ha", float), ("da", float)]
    )
    ids = values["user_id"].tolist()
    if ids != list(user_ids) * (len(ids) // max(len(user_ids), 1)):
        raise TableError(
            f"{path}: its {len(ids)} rows are not whole replicate blocks of the {len(user_ids)} migrants of "
            f"{scores_path}, in their order: run `homedest null` again"
        )
    return values["ha"], values["da"]
