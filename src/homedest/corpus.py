"""Post and friend-graph ingestion, validation, and hashtag canonicalization.

Input contracts:

* posts file: UTF-8 JSON lines, one object per line with fields ``user_id``
  (string), ``ts`` (ISO-8601 UTC string), ``cc`` (alpha-2 string or null),
  ``lang`` (string or null) and ``tags`` (array of strings). Unknown fields
  are ignored; malformed lines are skipped and counted.
* friends file: UTF-8 CSV with header ``user_id,friend_id``. Edges are
  directed (follower -> followed); duplicates collapse, self-loops drop.

A posts file is parsed once, streamed, into a :class:`Corpus`: interned
integer columns per post and one canonical token id per hashtag slot, with
each distinct raw tag canonicalized once. Labeling, the atlas, scoring and
the null model all run on those arrays.

The CLI caches the corpus in its workspace as ``corpus.npz``: a binary
cache, not a CSV artifact, with no config header. It is keyed by the sha256
of the posts file's bytes (and the cache format), written atomically by
whichever command parses the posts first and loaded by the rest without
pickles. A stale, truncated or unreadable cache is rebuilt from the posts
file, so deleting it is always safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import zipfile
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .countries import normalize_alpha2
from .tables import read_table

logger = logging.getLogger(__name__)

# Punctuation removed from raw hashtags, plus the leading marker itself.
HASHTAG_STRIP_CHARS = ",\"';/\\#"

_TS_MIN = datetime(1970, 1, 1, tzinfo=timezone.utc)
_TS_MAX = datetime(2100, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _TS_MIN.toordinal()

# Bump when the cached columns change meaning, so older caches are rebuilt.
CACHE_FORMAT = "homedest-corpus-1"


@dataclass(frozen=True, slots=True)
class Post:
    """One social-media message."""

    user_id: str
    timestamp: datetime
    country: str | None
    language: str | None
    hashtags: tuple[str, ...]

    @property
    def year(self) -> int:
        return self.timestamp.year

    @property
    def day(self):
        """UTC calendar date of the post."""
        return self.timestamp.date()


@dataclass
class LoadStats:
    """Bookkeeping for a streamed load: lines seen, records kept, lines skipped."""

    lines: int = 0
    loaded: int = 0
    skipped: int = 0


@dataclass
class FriendGraph:
    """Directed follower -> followed adjacency with dedup bookkeeping."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)
    n_edges: int = 0
    n_duplicates: int = 0
    n_self_loops: int = 0

    def friends_of(self, user_id: str) -> set[str]:
        return self.adjacency.get(user_id, set())


def canonicalize_hashtag(raw: str) -> str | None:
    """Normalize a raw hashtag into a canonical token.

    Lowercases (full case folding), removes the strip set
    (comma, quotes, semicolons, slashes and the '#' marker), and trims
    whitespace. Tokens shorter than 2 characters are rejected (None).
    """
    folded = raw.casefold()
    cleaned = "".join(ch for ch in folded if ch not in HASHTAG_STRIP_CHARS).strip()
    if len(cleaned) < 2:
        return None
    return cleaned


def _parse_timestamp(value: str) -> datetime:
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    else:
        ts = ts.astimezone(timezone.utc)
    if not (_TS_MIN <= ts < _TS_MAX):
        raise ValueError(f"timestamp out of range: {value!r}")
    return ts


def _parse_language(value) -> str | None:
    """Extract the BCP-47 primary subtag; unusable values become None."""
    if value is None:
        return None
    primary = str(value).strip().replace("_", "-").split("-")[0].lower()
    if 2 <= len(primary) <= 8 and primary.isalpha():
        return primary
    return None


def parse_post(record: dict) -> Post:
    """Build a validated Post from a decoded JSON object.

    Raises ValueError/KeyError/TypeError on records violating the contract
    (missing user, unparseable or out-of-range timestamp, unrecognized
    country code, non-list tags).
    """
    user_id = record["user_id"]
    if not isinstance(user_id, str) or not user_id:
        raise ValueError("user_id must be a non-empty string")
    ts = _parse_timestamp(record["ts"])
    cc = record.get("cc")
    country = None
    if cc is not None:
        country = normalize_alpha2(str(cc))
        if country is None:
            raise ValueError(f"unrecognized country code: {cc!r}")
    tags = record.get("tags", [])
    if not isinstance(tags, list) or any(not isinstance(t, str) for t in tags):
        raise ValueError("tags must be a list of strings")
    return Post(
        user_id=user_id,
        timestamp=ts,
        country=country,
        language=_parse_language(record.get("lang")),
        hashtags=tuple(tags),
    )


def iter_posts(path: str | Path, stats: LoadStats | None = None) -> Iterator[Post]:
    """Stream posts from a JSONL file, skipping and counting malformed lines.

    An unreadable file raises OSError; malformed lines are logged with their
    line number and tallied in ``stats`` when provided.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stats is not None:
                stats.lines += 1
            try:
                record = json.loads(stripped)
                post = parse_post(record)
            except (ValueError, KeyError, TypeError) as exc:
                logger.warning("%s:%d skipped malformed post: %s", path, lineno, exc)
                if stats is not None:
                    stats.skipped += 1
                continue
            if stats is not None:
                stats.loaded += 1
            yield post


@dataclass(frozen=True, eq=False)
class Corpus:
    """Posts as interned integer columns.

    Row ``i`` of the per-post columns is the ``i``-th post; its hashtags are
    the slots ``offsets[i]:offsets[i + 1]`` of ``tags``, in post order, one
    slot per raw hashtag. A slot holds the id of the tag's canonical token in
    ``tokens``, or -1 when the tag canonicalizes to nothing. Missing country
    or language is -1. Vocabularies are in order of first appearance.
    """

    users: tuple[str, ...]
    countries: tuple[str, ...]
    languages: tuple[str, ...]
    tokens: tuple[str, ...]
    user: np.ndarray  # int32 per post
    country: np.ndarray  # int16 per post
    language: np.ndarray  # int32 per post
    year: np.ndarray  # int16 per post
    day: np.ndarray  # int32 per post: UTC calendar day, counted from 1970-01-01
    offsets: np.ndarray  # int64, one more than there are posts
    tags: np.ndarray  # int32 per hashtag slot

    @property
    def n_posts(self) -> int:
        return len(self.user)

    def slot_post(self) -> np.ndarray:
        """Index of the post owning each hashtag slot."""
        return np.repeat(np.arange(self.n_posts), np.diff(self.offsets))

    def with_tags(self, tags: np.ndarray) -> Corpus:
        """The same posts with other token ids in their hashtag slots."""
        return dataclasses.replace(self, tags=tags)

    @classmethod
    def from_posts(cls, posts: Iterable[Post] | Corpus) -> Corpus:
        """Intern posts into columns; a Corpus is returned unchanged.

        ``canonicalize_hashtag`` runs once per distinct raw tag.
        """
        if isinstance(posts, Corpus):
            return posts
        users: dict[str, int] = {}
        countries: dict[str, int] = {}
        languages: dict[str, int] = {}
        tokens: dict[str, int] = {}
        canonical: dict[str, int] = {}
        user, country, language = array("i"), array("h"), array("i")
        year, day, offsets, tags = array("h"), array("i"), array("q", [0]), array("i")
        for post in posts:
            user.append(users.setdefault(post.user_id, len(users)))
            country.append(-1 if post.country is None else countries.setdefault(post.country, len(countries)))
            language.append(-1 if post.language is None else languages.setdefault(post.language, len(languages)))
            year.append(post.timestamp.year)
            day.append(post.timestamp.toordinal() - _EPOCH_ORDINAL)
            for raw in post.hashtags:
                token = canonical.get(raw)
                if token is None:
                    cleaned = canonicalize_hashtag(raw)
                    token = canonical[raw] = -1 if cleaned is None else tokens.setdefault(cleaned, len(tokens))
                tags.append(token)
            offsets.append(len(tags))
        return cls(
            users=tuple(users),
            countries=tuple(countries),
            languages=tuple(languages),
            tokens=tuple(tokens),
            user=np.array(user, dtype=np.int32),
            country=np.array(country, dtype=np.int16),
            language=np.array(language, dtype=np.int32),
            year=np.array(year, dtype=np.int16),
            day=np.array(day, dtype=np.int32),
            offsets=np.array(offsets, dtype=np.int64),
            tags=np.array(tags, dtype=np.int32),
        )


def tally(keys: np.ndarray, names: Sequence) -> dict[int, dict]:
    """Count ``group * len(names) + name`` keys into {group: {name: count}}."""
    counts: dict[int, dict] = {}
    values, n = np.unique(keys, return_counts=True)
    for value, count in zip(values.tolist(), n.tolist()):
        group, name = divmod(value, len(names))
        counts.setdefault(group, {})[names[name]] = count
    return counts


_VOCABULARIES = ("users", "countries", "languages", "tokens")
_COLUMNS = {
    "user": ("users", np.int32),
    "country": ("countries", np.int16),
    "language": ("languages", np.int32),
    "year": (None, np.int16),
    "day": (None, np.int32),
    "offsets": (None, np.int64),
    "tags": ("tokens", np.int32),
}


def _pack(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    ends = np.cumsum([len(b) for b in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ends


def _unpack(blob: np.ndarray, ends: np.ndarray) -> tuple[str, ...]:
    _check_column("vocabulary bytes", blob, np.uint8)
    _check_column("vocabulary ends", ends, np.int64)
    data = blob.tobytes()
    bounds = [0, *ends.tolist()]
    return tuple(data[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, bounds[1:]))


def _check_column(name: str, column: np.ndarray, dtype) -> None:
    if column.dtype != dtype or column.ndim != 1:
        raise ValueError(f"{name} is {column.dtype}[{column.ndim}d], expected a {np.dtype(dtype)} vector")


def _check(corpus: Corpus) -> None:
    """Raise ValueError unless the columns fit together and ids fit their vocabularies."""
    for name, (_, dtype) in _COLUMNS.items():
        _check_column(f"column {name}", getattr(corpus, name), dtype)
    for name, (vocabulary, _) in _COLUMNS.items():
        column = getattr(corpus, name)
        expected = {"offsets": corpus.n_posts + 1, "tags": len(column)}.get(name, corpus.n_posts)
        if len(column) != expected:
            raise ValueError(f"column {name} has {len(column)} rows, expected {expected}")
        if vocabulary is not None and column.size:
            floor = 0 if name == "user" else -1
            if column.min() < floor or column.max() >= len(getattr(corpus, vocabulary)):
                raise ValueError(f"column {name} holds ids outside {vocabulary}")
    steps = np.diff(corpus.offsets)
    if corpus.offsets[0] != 0 or corpus.offsets[-1] != len(corpus.tags) or (steps < 0).any():
        raise ValueError("offsets do not partition the hashtag slots")


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_corpus(path: str | Path, corpus: Corpus, source_sha256: str) -> None:
    """Cache a corpus as an ``.npz`` keyed by its posts file's sha256.

    The file is written under a temporary name and renamed into place, and
    its zip entries carry a fixed timestamp, so equal corpora give equal bytes.
    """
    path = Path(path)
    arrays = {"key": np.array([f"{CACHE_FORMAT}:{source_sha256}"])}
    for name in _VOCABULARIES:
        arrays[f"{name}_utf8"], arrays[f"{name}_ends"] = _pack(getattr(corpus, name))
    arrays.update((name, getattr(corpus, name)) for name in _COLUMNS)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with zipfile.ZipFile(temporary, "w") as archive:
            for name, value in arrays.items():
                entry = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                with archive.open(entry, "w", force_zip64=True) as handle:
                    np.lib.format.write_array(handle, value, allow_pickle=False)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def read_corpus(path: str | Path, source_sha256: str) -> Corpus | None:
    """Load a cached corpus; None when it is missing, stale or unreadable."""
    try:
        with zipfile.ZipFile(path) as archive:

            def load(name: str) -> np.ndarray:
                with archive.open(f"{name}.npy") as handle:
                    return np.lib.format.read_array(handle, allow_pickle=False)

            if load("key").tolist() != [f"{CACHE_FORMAT}:{source_sha256}"]:
                logger.info("%s: stale corpus cache, rebuilding", path)
                return None
            vocabularies = {name: _unpack(load(f"{name}_utf8"), load(f"{name}_ends")) for name in _VOCABULARIES}
            corpus = Corpus(**vocabularies, **{name: load(name) for name in _COLUMNS})
        _check(corpus)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        logger.warning("%s: unreadable corpus cache, rebuilding: %s", path, exc)
        return None
    return corpus


def load_posts(path: str | Path) -> tuple[Corpus, LoadStats]:
    """Parse a whole posts file into a Corpus; returns (corpus, stats)."""
    stats = LoadStats()
    corpus = Corpus.from_posts(iter_posts(path, stats))
    return corpus, stats


def load_friends(path: str | Path) -> FriendGraph:
    """Load a friends CSV into a deduplicated directed adjacency."""
    graph = FriendGraph()
    for row in read_table(path, ("user_id", "friend_id")):
        user = (row["user_id"] or "").strip()
        friend = (row["friend_id"] or "").strip()
        if not user or not friend:
            continue
        if user == friend:
            graph.n_self_loops += 1
            continue
        bucket = graph.adjacency.setdefault(user, set())
        if friend in bucket:
            graph.n_duplicates += 1
        else:
            bucket.add(friend)
            graph.n_edges += 1
    return graph


def write_posts(path: str | Path, posts: Iterable[Post]) -> int:
    """Serialize posts back to the JSONL contract; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for post in posts:
            record = {
                "user_id": post.user_id,
                "ts": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "cc": post.country,
                "lang": post.language,
                "tags": list(post.hashtags),
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n
