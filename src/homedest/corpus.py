"""Post and friend-graph ingestion, validation, and hashtag canonicalization.

Input contracts:

* posts file: UTF-8 JSON lines, one object per line with fields ``user_id``
  (non-empty string), ``ts`` (ISO-8601 string), ``cc`` (alpha-2 string, null
  or absent), ``lang`` (string, null or absent) and ``tags`` (array of
  strings, absent meaning none). ``ts`` is canonically
  ``YYYY-MM-DDTHH:MM:SSZ``; any other form ``datetime.fromisoformat`` reads
  (a lowercase ``z``, a ``+HH:MM`` offset, fractional seconds) is converted
  to UTC, one without an offset is taken as UTC, and the result must lie in
  [1970, 2100). ``cc`` is matched case-insensitively; ``lang`` keeps its
  primary subtag and is treated as missing when that is not 2-8 letters.
  Blank lines and lines starting with ``#`` are ignored, and so are unknown
  fields. Any other line that breaks the contract is skipped, logged at
  DEBUG and counted under the first check it fails, in this order (the
  SKIP_REASONS keys): a UTF-8 JSON object (``json``), ``user_id`` present
  (``missing``) and a non-empty string (``user_id``), ``ts`` present
  (``missing``) and valid (``ts``), ``cc`` (an unrecognized code skips the
  whole post) and ``tags``. So ``{"user_id": 5}`` counts as a bad ``user_id``.
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

import hashlib
import json
import logging
import os
import re
import zipfile
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

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


# Why a posts line is skipped, in the order the checks run.
SKIP_REASONS = {
    "json": "bad JSON",
    "missing": "missing field",
    "user_id": "bad user_id",
    "ts": "bad ts",
    "cc": "bad cc",
    "tags": "bad tags",
}


class BadPost(ValueError):
    """A posts line that breaks the input contract; ``reason`` keys SKIP_REASONS."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass
class LoadStats:
    """Bookkeeping for a streamed load: lines seen, records kept, lines skipped.

    ``reasons`` counts the skipped lines per SKIP_REASONS key and
    ``first_lines`` keeps the first three line numbers of each.
    """

    lines: int = 0
    loaded: int = 0
    skipped: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    first_lines: dict[str, list[int]] = field(default_factory=dict)

    def skip(self, reason: str, lineno: int) -> None:
        self.skipped += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        first = self.first_lines.setdefault(reason, [])
        if len(first) < 3:
            first.append(lineno)

    def skipped_text(self) -> str:
        """``N skipped``, followed by the count and first lines of each reason."""
        parts = [
            f"{label} {self.reasons[reason]}, first at line(s) "
            + ", ".join(map(str, self.first_lines[reason]))
            for reason, label in SKIP_REASONS.items()
            if reason in self.reasons
        ]
        return f"{self.skipped} skipped" + (f" ({'; '.join(parts)})" if parts else "")


# A friends file's columns: one directed edge per row.
FRIEND_COLUMNS = {"user_id": str, "friend_id": str}


@dataclass(frozen=True, eq=False)
class FriendGraph:
    """Directed follower -> followed edges over an id vocabulary, with dedup bookkeeping.

    Edge ``i`` runs from ``ids[source[i]]`` to ``ids[target[i]]``. Edges are
    distinct, without self-loops, and sorted by (source, target); ids are in
    order of first appearance.
    """

    ids: tuple[str, ...]
    source: np.ndarray  # int32 per edge
    target: np.ndarray  # int32 per edge
    n_duplicates: int = 0
    n_self_loops: int = 0
    n_empty: int = 0  # rows with an empty user_id or friend_id, counted by load_friends

    @property
    def n_edges(self) -> int:
        return len(self.source)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> FriendGraph:
        """The graph of ``(user_id, friend_id)`` edges; self-loops and repeated edges are dropped and counted."""
        ids: defaultdict[str, int] = defaultdict()
        ids.default_factory = ids.__len__  # an id not seen before gets the next number
        # One row per pair: user, friend.
        ends = np.frombuffer(array("i", map(ids.__getitem__, chain.from_iterable(pairs))), dtype=np.int32).reshape(-1, 2)
        n = max(len(ids), 1)
        kept = ends[:, 0] != ends[:, 1]
        n_pairs, n_self_loops = len(ends), len(ends) - int(np.count_nonzero(kept))
        edges = ends[kept, 0].astype(np.int64)  # one key per edge: source * n + target
        edges *= n
        edges += ends[kept, 1]
        del ends, kept
        edges = distinct(edges)  # sorted by (source, target)
        source, target = np.empty(len(edges), dtype=np.int32), np.empty(len(edges), dtype=np.int32)
        np.divmod(edges, n, out=(source, target))
        return cls(
            ids=tuple(ids),
            source=source,
            target=target,
            n_duplicates=n_pairs - n_self_loops - len(edges),
            n_self_loops=n_self_loops,
        )


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


_JSON = json.JSONDecoder()


def _decode(line: str) -> dict:
    """The JSON object on a stripped line (``json.loads`` without its wrappers)."""
    try:
        record, end = _JSON.raw_decode(line)
    except ValueError as exc:
        raise BadPost("json", f"bad JSON: {exc}") from None
    except RecursionError:
        raise BadPost("json", "bad JSON: nested too deeply") from None
    if end != len(line):
        raise BadPost("json", f"bad JSON: extra data at column {end + 1}")
    if not isinstance(record, dict):
        raise BadPost("json", "not a JSON object")
    return record


def _field(record: dict, name: str):
    try:
        return record[name]
    except KeyError:
        raise BadPost("missing", f"missing field {name!r}") from None


def _user_id(value) -> str:
    if not isinstance(value, str) or not value:
        raise BadPost("user_id", "user_id must be a non-empty string")
    return value


def _parse_timestamp(value) -> datetime:
    if not isinstance(value, str):
        raise BadPost("ts", f"timestamp must be a string: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=timezone.utc)
        else:
            ts = ts.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise BadPost("ts", f"bad timestamp {value!r}: {exc}") from None
    if not (_TS_MIN <= ts < _TS_MAX):
        raise BadPost("ts", f"timestamp out of range: {value!r}")
    return ts


# The shape of a canonical timestamp, ``YYYY-MM-DDTHH:MM:SSZ``.
_CANONICAL_TS = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z").fullmatch


def _year_day(value, dates: dict[str, tuple[int, int]], times: set[str]) -> tuple[int, int]:
    """(year, UTC day number) of a timestamp, as ``_parse_timestamp`` reads it.

    A canonical timestamp is the date, ``T``, the time of day and ``Z``;
    it is valid when both halves are, and its date is the first half's.
    So once ``_parse_timestamp`` has accepted a canonical timestamp, its
    date (with the year and day) and its ``THH:MM:SSZ`` part are kept, and
    a timestamp made of a kept date and a kept time part is not parsed again.
    """
    if type(value) is str and value[10:] in times and (known := dates.get(value[:10])) is not None:
        return known
    ts = _parse_timestamp(value)
    year_day = (ts.year, ts.toordinal() - _EPOCH_ORDINAL)
    if _CANONICAL_TS(value):
        dates[value[:10]] = year_day
        times.add(value[10:])
    return year_day


def _country(value) -> str | None:
    if value is None:
        return None
    country = normalize_alpha2(str(value))
    if country is None:
        raise BadPost("cc", f"unrecognized country code: {value!r}")
    return country


def _parse_language(value) -> str | None:
    """Extract the BCP-47 primary subtag; unusable values become None."""
    if value is None:
        return None
    primary = str(value).strip().replace("_", "-").split("-")[0].lower()
    if 2 <= len(primary) <= 8 and primary.isalpha():
        return primary
    return None


def _hashtags(value) -> list[str]:
    # all(map(str.__instancecheck__, ...)) is all(isinstance(t, str) ...) without a generator.
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise BadPost("tags", "tags must be a list of strings")
    return value


def _memo(cache: dict, parse, value):
    """``parse(value)``, computed once per distinct string value."""
    if type(value) is not str:
        return parse(value)
    try:
        return cache[value]
    except KeyError:
        result = cache[value] = parse(value)
        return result


def parse_post(record: dict) -> Post:
    """Build a validated Post from a decoded JSON object.

    Raises BadPost (a ValueError) naming the first check the record fails:
    a missing field, a bad user, an unparseable or out-of-range timestamp,
    an unrecognized country code or non-list tags.
    """
    user_id = _user_id(_field(record, "user_id"))
    ts = _parse_timestamp(_field(record, "ts"))
    country = _country(record.get("cc"))
    tags = _hashtags(record.get("tags", []))
    return Post(
        user_id=user_id,
        timestamp=ts,
        country=country,
        language=_parse_language(record.get("lang")),
        hashtags=tuple(tags),
    )


def _lines(path: str | Path, stats: LoadStats) -> Iterator[tuple[int, str]]:
    """Numbered, stripped lines of a posts file, without blanks and comments.

    Each line is decoded on its own; one that is not UTF-8 is skipped as bad
    JSON, since JSON text is UTF-8.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                stripped = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                stats.lines += 1
                _skip(stats, path, lineno, BadPost("json", f"bad JSON: not UTF-8 ({exc.reason})"))
                continue
            if stripped and not stripped.startswith("#"):
                stats.lines += 1
                yield lineno, stripped


def _skip(stats: LoadStats, path: str | Path, lineno: int, exc: BadPost) -> None:
    logger.debug("%s:%d skipped malformed post: %s", path, lineno, exc)
    stats.skip(exc.reason, lineno)


def iter_posts(path: str | Path, stats: LoadStats | None = None) -> Iterator[Post]:
    """Stream posts from a JSONL file, skipping and counting malformed lines.

    An unreadable file raises OSError; malformed lines are logged at DEBUG
    with their line number and counted in ``stats`` when provided.
    """
    stats = LoadStats() if stats is None else stats
    for lineno, line in _lines(path, stats):
        try:
            post = parse_post(_decode(line))
        except BadPost as exc:
            _skip(stats, path, lineno, exc)
            continue
        stats.loaded += 1
        yield post


def _intern(rows: Iterable[tuple]) -> Corpus:
    """Columns from ``(user_id, country, language, year, day, hashtags)`` rows.

    ``canonicalize_hashtag`` runs once per distinct raw tag.
    """
    users: dict[str, int] = {}
    countries: dict[str, int] = {}
    languages: dict[str, int] = {}
    tokens: dict[str, int] = {}
    canonical: dict[str, int] = {}
    user, country, language = array("i"), array("h"), array("i")
    year, day, offsets, tags = array("h"), array("i"), array("q", [0]), array("i")
    for user_id, country_code, language_code, post_year, post_day, hashtags in rows:
        user.append(users.setdefault(user_id, len(users)))
        country.append(-1 if country_code is None else countries.setdefault(country_code, len(countries)))
        language.append(-1 if language_code is None else languages.setdefault(language_code, len(languages)))
        year.append(post_year)
        day.append(post_day)
        for raw in hashtags:
            token = canonical.get(raw)
            if token is None:
                cleaned = canonicalize_hashtag(raw)
                token = canonical[raw] = -1 if cleaned is None else tokens.setdefault(cleaned, len(tokens))
            tags.append(token)
        offsets.append(len(tags))
    # Each column is a view of its buffer, not a copy: the two are never alive together.
    return Corpus(
        users=tuple(users),
        countries=tuple(countries),
        languages=tuple(languages),
        tokens=tuple(tokens),
        user=np.frombuffer(user, dtype=np.int32),
        country=np.frombuffer(country, dtype=np.int16),
        language=np.frombuffer(language, dtype=np.int32),
        year=np.frombuffer(year, dtype=np.int16),
        day=np.frombuffer(day, dtype=np.int32),
        offsets=np.frombuffer(offsets, dtype=np.int64),
        tags=np.frombuffer(tags, dtype=np.int32),
    )


# Per-post and per-use work is done this many at a time where a whole-length temporary would set the memory peak.
BLOCK = 1 << 14


def blocks(n: int) -> Iterator[slice]:
    """Slices that cover ``range(n)`` in order, BLOCK long but the last."""
    return (slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK))


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

    def uses(self, year: int | None, users: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The hashtag uses that count, as ``(slots, user)``: slot indices, in slot order, and each slot's user.

        A use is a slot holding a canonical token, in a post of ``year`` (None:
        every year) by a user flagged in ``users`` (one bool per entry of
        ``self.users``; None: every user).
        """
        post = np.ones(self.n_posts, dtype=bool) if year is None else self.year == year
        if users is not None:
            post &= users[self.user]
        # Index arrays as long as the posts or the uses are made a block at a time, so that none is
        # alive beside the slots.
        used = self.tags >= 0
        for block in blocks(self.n_posts):
            bounds = self.offsets[block.start : block.stop + 1]
            used[bounds[0] : bounds[-1]] &= np.repeat(post[block], np.diff(bounds))
        del post
        slots = np.flatnonzero(used)
        del used
        user = np.empty(len(slots), dtype=self.user.dtype)
        for block in blocks(len(slots)):
            # A use's post is the last one starting at or before its slot.
            post = np.searchsorted(self.offsets, slots[block], side="right")
            post -= 1
            user[block] = self.user[post]
        return slots, user

    @classmethod
    def from_posts(cls, posts: Iterable[Post]) -> Corpus:
        """Intern posts into columns; ``canonicalize_hashtag`` runs once per distinct raw tag."""
        return _intern(
            (post.user_id, post.country, post.language, post.year, post.timestamp.toordinal() - _EPOCH_ORDINAL, post.hashtags)
            for post in posts
        )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values of the vector ``keys``."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the integer vector ``keys``, as ``np.unique(keys)`` gives them.

    Sorting and keeping each value that differs from the one before avoids
    the hash table numpy 2.4's ``np.unique`` uses on integers: on 3M int64
    keys, 0.05 s against 3.5 s (2-core x86-64 host). The values are kept
    without a copy: ``keys`` is sorted in place, each repeat is set to the
    dtype's largest value, and a second sort moves the repeats behind the
    distinct values, so the result is a view of the front of ``keys``.
    """
    keys.sort()
    repeat = _run_starts(keys)
    np.logical_not(repeat, out=repeat)
    n_distinct = len(keys) - int(np.count_nonzero(repeat))
    keys[repeat] = np.iinfo(keys.dtype).max
    del repeat
    keys.sort()
    return keys[:n_distinct]


def counted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``keys`` and how often each occurs, as
    ``np.unique(keys, return_counts=True)`` gives them; ``keys`` is sorted in place."""
    keys.sort()
    starts = np.flatnonzero(_run_starts(keys))
    return keys[starts], np.diff(starts, append=len(keys))


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


def _pack(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    # Each string is encoded twice, so that no list of encoded copies is held.
    ends = np.cumsum([len(s.encode("utf-8", "surrogatepass")) for s in strings], dtype=np.int64)
    return np.frombuffer("".join(strings).encode("utf-8", "surrogatepass"), dtype=np.uint8), ends


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
    offsets = corpus.offsets
    if offsets[0] != 0 or offsets[-1] != len(corpus.tags) or (offsets[1:] < offsets[:-1]).any():
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
                    # write_array would copy the column through tobytes, as a zip member is not a real file.
                    np.lib.format.write_array_header_1_0(handle, np.lib.format.header_data_from_array_1_0(value))
                    handle.write(memoryview(value).cast("B"))
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


def _rows(path: str | Path, stats: LoadStats) -> Iterator[tuple]:
    """The ``_intern`` row of each valid line, through the checks of ``parse_post``.

    ``cc``, ``lang`` and the halves of a canonical timestamp are validated
    once per distinct value.
    """
    countries: dict[str, str | None] = {}
    languages: dict[str, str | None] = {}
    dates: dict[str, tuple[int, int]] = {}
    times: set[str] = set()
    for lineno, line in _lines(path, stats):
        try:
            record = _decode(line)
            user_id = _user_id(_field(record, "user_id"))
            year, day = _year_day(_field(record, "ts"), dates, times)
            country = _memo(countries, _country, record.get("cc"))
            tags = _hashtags(record.get("tags", []))
        except BadPost as exc:
            _skip(stats, path, lineno, exc)
            continue
        stats.loaded += 1
        yield user_id, country, _memo(languages, _parse_language, record.get("lang")), year, day, tags


def load_posts(path: str | Path) -> tuple[Corpus, LoadStats]:
    """Parse a whole posts file into a Corpus; returns (corpus, stats).

    Each decoded line goes straight into the columns, with no Post built.
    """
    stats = LoadStats()
    corpus = _intern(_rows(path, stats))
    return corpus, stats


def load_friends(path: str | Path) -> FriendGraph:
    """Load a friends CSV into a FriendGraph; a row with an id empty once stripped is dropped and counted."""
    empty = 0

    def pairs() -> Iterator[tuple[str, str]]:
        nonlocal empty
        for row in read_table(path, FRIEND_COLUMNS):
            user, friend = row["user_id"].strip(), row["friend_id"].strip()
            if user and friend:
                yield user, friend
            else:
                empty += 1

    graph = FriendGraph.from_pairs(pairs())
    return replace(graph, n_empty=empty)


def write_posts(path: str | Path, posts: Iterable[Post]) -> int:
    """Serialize posts to the JSONL contract; returns the line count.

    Each line is ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
    of the post's ``cc``, ``lang``, ``tags``, ``ts`` and ``user_id``, written
    from the fields: strings are quoted by json's own ``encode_basestring``
    (the function that encoder calls), ``None`` is ``null``, and each
    distinct value is encoded once. An aware timestamp is written as its UTC
    time and a naive one as it stands, which the parser reads as UTC.

    A field the parser would skip raises ValueError naming it and the post's
    line: a ``user_id`` that is not a non-empty string, a ``cc`` or ``lang``
    that is neither None nor a string, or a tag that is not a string.
    """
    users: dict[str, str] = {}
    codes: dict[str | None, str] = {None: "null"}
    tags: dict[str, str] = {}
    stamps: dict[datetime, str] = {}

    def line(post: Post) -> str:
        return (
            f'{{"cc": {codes[post.country]}, "lang": {codes[post.language]}, '
            f'"tags": [{", ".join(map(tags.__getitem__, post.hashtags))}], '
            f'"ts": {stamps[post.timestamp]}, "user_id": {users[post.user_id]}}}\n'
        )

    def learn(post: Post, lineno: int) -> None:
        """Encode the fields of ``post`` not seen before, refusing those the parser would skip."""

        def refuse(name: str, value, rule: str) -> NoReturn:
            raise ValueError(f"posts line {lineno}: {name} must be {rule}, got {value!r}")

        if not isinstance(post.user_id, str) or not post.user_id:
            refuse("user_id", post.user_id, "a non-empty string")
        if post.user_id not in users:
            users[post.user_id] = encode_basestring(post.user_id)
        for name, value in (("cc", post.country), ("lang", post.language)):
            if value is not None and not isinstance(value, str):
                refuse(name, value, "None or a string")
            if value not in codes:
                codes[value] = encode_basestring(value)
        for tag in post.hashtags:
            if not isinstance(tag, str):
                refuse("a tag", tag, "a string")
            if tag not in tags:
                tags[tag] = encode_basestring(tag)
        ts = post.timestamp
        if ts not in stamps:
            utc = ts if ts.utcoffset() is None else ts.astimezone(timezone.utc)
            stamps[ts] = utc.strftime('"%Y-%m-%dT%H:%M:%SZ"')

    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, post in enumerate(posts, 1):
            try:
                text = line(post)
            except (KeyError, TypeError):  # a value not encoded yet, or one no memo can hold
                learn(post, n)
                text = line(post)
            fh.write(text)
    return n
