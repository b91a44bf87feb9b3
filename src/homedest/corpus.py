"""Post and friend-graph ingestion, validation, and hashtag canonicalization.

Input contracts:

* posts file: UTF-8 JSON lines, one object per line with fields ``user_id``
  (string), ``ts`` (ISO-8601 UTC string), ``cc`` (alpha-2 string or null),
  ``lang`` (string or null) and ``tags`` (array of strings). Unknown fields
  are ignored; malformed lines are skipped and counted.
* friends file: UTF-8 CSV with header ``user_id,friend_id``. Edges are
  directed (follower -> followed); duplicates collapse, self-loops drop.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from .countries import normalize_alpha2
from .tables import read_table

logger = logging.getLogger(__name__)

# Punctuation removed from raw hashtags, plus the leading marker itself.
HASHTAG_STRIP_CHARS = ",\"';/\\#"

_TS_MIN = datetime(1970, 1, 1, tzinfo=timezone.utc)
_TS_MAX = datetime(2100, 1, 1, tzinfo=timezone.utc)


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


def load_posts(path: str | Path) -> tuple[list[Post], LoadStats]:
    """Load a whole posts file; returns (posts, stats)."""
    stats = LoadStats()
    posts = list(iter_posts(path, stats))
    return posts, stats


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
