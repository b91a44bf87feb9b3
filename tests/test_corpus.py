"""Ingestion and canonicalization unit tests."""

from __future__ import annotations

import dataclasses
import json
import logging
import random
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import homedest.corpus as corpus_module
from homedest.corpus import (
    BadPost,
    Corpus,
    FriendGraph,
    LoadStats,
    Post,
    blocks,
    canonicalize_hashtag,
    counted,
    distinct,
    iter_posts,
    load_friends,
    load_posts,
    parse_post,
    read_corpus,
    write_corpus,
    write_posts,
)
from homedest.synth import default_spec, generate_population

from conftest import YEAR, make_post


class TestCanonicalize:
    def test_casefold_and_marker(self):
        assert canonicalize_hashtag("#Roma") == "roma"
        assert canonicalize_hashtag("BERLIN") == "berlin"

    def test_strip_characters(self):
        assert canonicalize_hashtag("it's") == "its"
        assert canonicalize_hashtag('say,"hi";now') == "sayhinow"
        assert canonicalize_hashtag("a/b\\c") == "abc"

    def test_whitespace_trim(self):
        assert canonicalize_hashtag("  ciao  ") == "ciao"

    @pytest.mark.parametrize("raw", ["", "#", "x", " ,;'196", "//"])
    def test_too_short_rejected(self, raw):
        if raw == " ,;'196":
            assert canonicalize_hashtag(raw) == "196"
        else:
            assert canonicalize_hashtag(raw) is None

    def test_idempotent(self):
        for raw in ["#Foo'Bar", "HELLO", "a,b,c", "  x y  "]:
            once = canonicalize_hashtag(raw)
            assert once is not None
            assert canonicalize_hashtag(once) == once

    def test_unicode_casefolded(self):
        # casefold is aggressive: sharp s expands to "ss".
        assert canonicalize_hashtag("Grüße") == "grüsse"
        assert canonicalize_hashtag("CAFÉ") == "café"


class TestParsePost:
    def good(self, **over):
        record = {
            "user_id": "u1",
            "ts": "2018-06-01T08:30:00Z",
            "cc": "it",
            "lang": "it-IT",
            "tags": ["roma", "pizza"],
        }
        record.update(over)
        return record

    def test_round_numbers(self):
        post = parse_post(self.good())
        assert post.user_id == "u1"
        assert post.country == "IT"
        assert post.language == "it"
        assert post.hashtags == ("roma", "pizza")
        assert post.year == 2018
        assert post.timestamp.tzinfo == timezone.utc

    def test_zulu_and_offset_agree(self):
        a = parse_post(self.good(ts="2018-06-01T10:00:00Z"))
        b = parse_post(self.good(ts="2018-06-01T12:00:00+02:00"))
        assert a.timestamp == b.timestamp

    def test_naive_timestamp_is_utc(self):
        post = parse_post(self.good(ts="2018-06-01T10:00:00"))
        assert post.timestamp.tzinfo == timezone.utc

    def test_missing_country_allowed(self):
        assert parse_post(self.good(cc=None)).country is None

    def test_bad_country_raises(self):
        with pytest.raises(ValueError):
            parse_post(self.good(cc="XX"))

    def test_bad_timestamp_raises(self):
        with pytest.raises(ValueError):
            parse_post(self.good(ts="not-a-date"))
        with pytest.raises(ValueError):
            parse_post(self.good(ts="1969-12-31T23:59:59Z"))

    def test_bad_user_raises(self):
        with pytest.raises(ValueError):
            parse_post(self.good(user_id=""))

    def test_bad_tags_raise(self):
        with pytest.raises(ValueError):
            parse_post(self.good(tags="roma"))
        with pytest.raises(ValueError):
            parse_post(self.good(tags=["roma", 3]))

    def test_language_subtag(self):
        assert parse_post(self.good(lang="pt_BR")).language == "pt"
        assert parse_post(self.good(lang="x!")).language is None
        assert parse_post(self.good(lang=None)).language is None


# Text that json escapes, or that a hand-made writer could get wrong.
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "\u2028", "\u2029", "\U0001f600", '"}, {"'])
_TEXT = st.lists(st.one_of(st.text(), _AWKWARD), max_size=4).map("".join)
_posts = st.builds(
    Post,
    user_id=_TEXT.filter(bool),
    timestamp=st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(2099, 12, 31), timezones=st.none() | st.just(timezone.utc)
    ),
    country=st.none() | _TEXT,
    language=st.none() | _TEXT,
    hashtags=st.lists(_TEXT, max_size=4).map(tuple),
)


class TestFiles:
    def test_iter_posts_skips_junk(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        lines = [
            "# header comment",
            "",
            json.dumps({"user_id": "a", "ts": "2018-01-01T00:00:00Z", "tags": []}),
            "{broken json",
            json.dumps({"user_id": "b", "ts": "2018-01-02T00:00:00Z", "cc": "ZZ"}),
            json.dumps({"user_id": "c", "ts": "2018-01-03T00:00:00Z", "cc": "DE"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        stats = LoadStats()
        posts = list(iter_posts(path, stats))
        assert [p.user_id for p in posts] == ["a", "c"]
        assert stats.loaded == 2
        assert stats.skipped == 2

    def test_write_read_round_trip(self, tmp_path):
        posts = [
            make_post("u1", 3, cc="IT", lang="it", tags=["a b", "c"]),
            make_post("u2", 4),
        ]
        path = tmp_path / "posts.jsonl"
        write_posts(path, posts)
        stats = LoadStats()
        loaded = list(iter_posts(path, stats))
        assert stats.skipped == 0
        assert loaded == posts

    def test_offset_timestamps_round_trip_as_utc(self, tmp_path):
        noon = datetime(2018, 3, 1, 12, 0, 0)
        stamps = [
            noon.replace(tzinfo=timezone(timedelta(hours=2))),
            noon.replace(tzinfo=timezone(timedelta(hours=-5))),
            noon,  # naive: written as it stands and read as UTC
            noon.replace(tzinfo=timezone.utc),
            datetime(2018, 3, 1, 10, 0, 0, tzinfo=timezone.utc),  # the +02:00 instant again
        ]
        path = tmp_path / "posts.jsonl"
        write_posts(path, [Post("u1", ts, None, None, ()) for ts in stamps])
        written = [json.loads(line)["ts"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert written == [
            "2018-03-01T10:00:00Z",
            "2018-03-01T17:00:00Z",
            "2018-03-01T12:00:00Z",
            "2018-03-01T12:00:00Z",
            "2018-03-01T10:00:00Z",
        ]
        loaded = [post.timestamp for post in iter_posts(path)]
        assert loaded == [ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc) for ts in stamps]

    def test_writer_lines_match_one_json_dumps_per_post(self, tmp_path):
        rng = random.Random(7)
        tags = ["roma", "köln", "東京", "ça_va", "#Berlin", "a b", "x"]
        start = datetime(2018, 1, 1, 12, tzinfo=timezone.utc)
        stamps = [start, start + timedelta(seconds=1), start + timedelta(days=40), datetime(2017, 6, 1, 8, 30)]
        posts = [
            Post(
                f"u{rng.randrange(5)}",
                rng.choice(stamps),
                rng.choice([None, "IT", "DE"]),
                rng.choice([None, "it", "de"]),
                tuple(rng.choices(tags, k=rng.randrange(4))),
            )
            for _ in range(200)
        ]
        assert {len(p.hashtags) for p in posts} == {0, 1, 2, 3} and len({p.timestamp for p in posts}) == len(stamps)
        path = tmp_path / "posts.jsonl"
        assert write_posts(path, posts) == len(posts)
        expected = "".join(
            json.dumps(
                {
                    "user_id": post.user_id,
                    "ts": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "cc": post.country,
                    "lang": post.language,
                    "tags": list(post.hashtags),
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            + "\n"
            for post in posts
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(posts=st.lists(_posts, max_size=8))
    def test_writer_lines_equal_json_dumps_over_arbitrary_text(self, posts):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "posts.jsonl"
            assert write_posts(path, posts) == len(posts)
            lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        assert lines == [
            json.dumps(
                {
                    "user_id": post.user_id,
                    "ts": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "cc": post.country,
                    "lang": post.language,
                    "tags": list(post.hashtags),
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            for post in posts
        ]

    def test_written_synth_posts_load_as_the_same_corpus(self, tmp_path):
        population = generate_population(default_spec(seed=3, n_users=150))
        path = tmp_path / "posts.jsonl"
        write_posts(path, population.posts)
        corpus, stats = load_posts(path)
        assert (stats.lines, stats.loaded, stats.skipped) == (len(population.posts), len(population.posts), 0)
        assert _same_corpus(corpus, Corpus.from_posts(population.posts))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("user_id", 5, "user_id must be a non-empty string, got 5"),
            ("user_id", "", "user_id must be a non-empty string, got ''"),
            ("country", 5, "cc must be None or a string, got 5"),
            ("language", b"it", "lang must be None or a string, got b'it'"),
            ("hashtags", ("roma", 7), "a tag must be a string, got 7"),
        ],
    )
    def test_writer_refuses_a_field_the_parser_would_skip(self, tmp_path, name, value, message):
        good = make_post("u1", 0, cc="IT", lang="it", tags=["roma"])
        posts = [good, dataclasses.replace(good, **{name: value})]
        with pytest.raises(ValueError, match=f"^posts line 2: {re.escape(message)}$"):
            write_posts(tmp_path / "posts.jsonl", posts)

    def test_load_friends_dedup_and_self_loops(self, tmp_path):
        path = tmp_path / "friends.csv"
        path.write_text(
            "user_id,friend_id\na,b\na,b\na,a\nb,a\na,c\n c , a\n,a\n", encoding="utf-8"
        )
        graph = load_friends(path)
        assert edges(graph) == [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")]
        assert (graph.n_edges, graph.n_duplicates, graph.n_self_loops, graph.n_empty) == (4, 1, 1, 1)


def edges(graph: FriendGraph) -> list[tuple[str, str]]:
    return [(graph.ids[s], graph.ids[t]) for s, t in zip(graph.source.tolist(), graph.target.tolist())]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=30))
def test_from_pairs_dedup_and_self_loop_counts(pairs):
    graph = FriendGraph.from_pairs(pairs)
    loops = [p for p in pairs if p[0] == p[1]]
    kept = {p for p in pairs if p[0] != p[1]}
    assert set(edges(graph)) == kept
    assert graph.n_edges == len(kept) == len(edges(graph))  # no edge twice
    assert graph.n_self_loops == len(loops)
    assert graph.n_duplicates == len(pairs) - len(loops) - len(kept)
    assert graph.ids == tuple(dict.fromkeys(end for p in pairs for end in p))  # in order of first appearance
    assert sorted(zip(graph.source.tolist(), graph.target.tolist())) == list(zip(graph.source.tolist(), graph.target.tolist()))


def _same_corpus(a: Corpus, b: Corpus) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        if isinstance(getattr(a, f.name), np.ndarray)
        else getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(Corpus)
    )


class TestCorpus:
    def make_posts(self):
        return [
            make_post("u1", 0, cc="IT", lang="it", tags=["#Roma", "x", "roma"]),
            make_post("u2", 1, year=2017, tags=["Berlin"]),
            make_post("u1", 2, lang="de"),
        ]

    def test_columns(self):
        corpus = Corpus.from_posts(self.make_posts())
        assert corpus.users == ("u1", "u2")
        assert corpus.countries == ("IT",) and corpus.languages == ("it", "de")
        assert corpus.tokens == ("roma", "berlin")
        assert corpus.user.tolist() == [0, 1, 0]
        assert corpus.country.tolist() == [0, -1, -1]
        assert corpus.language.tolist() == [0, -1, 1]
        assert corpus.year.tolist() == [2018, 2017, 2018]
        assert corpus.day.tolist() == [17532, 17168, 17534]  # days since 1970-01-01
        assert corpus.offsets.tolist() == [0, 3, 4, 4]
        assert corpus.tags.tolist() == [0, -1, 0, 1]  # "x" is too short for a token
        assert [column.tolist() for column in corpus.uses(None)] == [[0, 2, 3], [0, 0, 1]]  # slots, and their users

    def test_canonicalizes_each_distinct_raw_tag_once(self, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return canonicalize_hashtag(raw)

        monkeypatch.setattr("homedest.corpus.canonicalize_hashtag", counting)
        posts = [make_post("u", d, tags=["#Roma", "roma", "x"]) for d in range(50)]
        Corpus.from_posts(posts)
        assert sorted(calls) == ["#Roma", "roma", "x"]

    def test_load_posts_builds_the_corpus(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        write_posts(path, self.make_posts())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken json\n")
        corpus, stats = load_posts(path)
        assert (stats.lines, stats.loaded, stats.skipped) == (4, 3, 1)
        assert _same_corpus(corpus, Corpus.from_posts(self.make_posts()))

    def test_cache_round_trip_is_byte_stable(self, tmp_path):
        corpus = Corpus.from_posts(self.make_posts())
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        write_corpus(a, corpus, "f" * 64)
        write_corpus(b, corpus, "f" * 64)
        assert a.read_bytes() == b.read_bytes()
        assert _same_corpus(read_corpus(a, "f" * 64), corpus)
        assert sorted(tmp_path.iterdir()) == [a, b]  # no temporary file left behind

    def test_stale_key_is_not_loaded(self, tmp_path):
        path = tmp_path / "corpus.npz"
        write_corpus(path, Corpus.from_posts(self.make_posts()), "a" * 64)
        assert read_corpus(path, "b" * 64) is None

    @pytest.mark.parametrize(
        "damage",
        [
            "missing", "empty", "garbage", "truncated", "npy", "pickle",
            "bad ids", "float ids", "scalar column", "short column", "bad offsets",
        ],
    )
    def test_damaged_cache_is_not_loaded(self, tmp_path, damage):
        corpus = Corpus.from_posts(self.make_posts())
        path = tmp_path / "corpus.npz"
        write_corpus(path, corpus, "a" * 64)
        if damage == "missing":
            path.unlink()
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "garbage":
            path.write_bytes(b"not a zip archive at all\n" * 40)
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "npy":
            with open(path, "wb") as handle:
                np.save(handle, corpus.tags)
        elif damage == "pickle":
            np.savez(path, key=np.array(["a" * 64], dtype=object))
        elif damage == "bad ids":
            write_corpus(path, dataclasses.replace(corpus, tags=corpus.tags + 5), "a" * 64)
        elif damage == "float ids":
            write_corpus(path, dataclasses.replace(corpus, user=corpus.user.astype(float)), "a" * 64)
        elif damage == "short column":
            write_corpus(path, dataclasses.replace(corpus, year=corpus.year[:-1]), "a" * 64)
        elif damage == "bad offsets":
            offsets = corpus.offsets.copy()
            offsets[-1] += 1  # past the last slot
            write_corpus(path, dataclasses.replace(corpus, offsets=offsets), "a" * 64)
        else:
            write_corpus(path, dataclasses.replace(corpus, user=np.int32(0)), "a" * 64)
        assert read_corpus(path, "a" * 64) is None

    def test_cache_with_decreasing_offsets_is_not_loaded(self, tmp_path):
        corpus = Corpus.from_posts(self.make_posts())
        offsets = corpus.offsets.copy()
        assert offsets[2] > offsets[1]
        offsets[1] = offsets[2] + 1  # the second post ends before it starts
        offsets[2] = offsets[1] - 1
        path = tmp_path / "corpus.npz"
        write_corpus(path, dataclasses.replace(corpus, offsets=offsets), "a" * 64)
        assert read_corpus(path, "a" * 64) is None


class TestUses:
    """``Corpus.uses`` against a per-post loop over the posts the corpus was built from."""

    TAGS = ("#Roma", "roma", "Berlin", "x", "#", " ", "pizza")  # "x", "#" and " " canonicalize to nothing

    @staticmethod
    def naive(posts, year, flagged):
        slots, owners = [], []
        slot = 0
        for post in posts:
            for raw in post.hashtags:
                in_year = year is None or post.year == year
                by_flagged = flagged is None or post.user_id in flagged
                if in_year and by_flagged and canonicalize_hashtag(raw) is not None:
                    slots.append(slot)
                    owners.append(post.user_id)
                slot += 1
        return slots, owners

    def test_matches_a_per_post_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            posts = [
                make_post(
                    f"u{rng.integers(4)}",
                    int(rng.integers(20)),
                    year=YEAR - int(rng.integers(2)),
                    tags=[self.TAGS[i] for i in rng.integers(len(self.TAGS), size=rng.integers(4))],
                )
                for _ in range(rng.integers(1, 10))
            ]
            corpus = Corpus.from_posts(posts)
            flags = rng.random(len(corpus.users)) < 0.5
            flagged = {user_id for user_id, flag in zip(corpus.users, flags) if flag}
            for year in (None, YEAR, YEAR - 1):
                for users, selected in ((None, None), (flags, flagged)):
                    slots, user = corpus.uses(year, users)
                    owners = [corpus.users[u] for u in user.tolist()]
                    assert (slots.tolist(), owners) == self.naive(posts, year, selected)

    def test_matches_a_per_post_loop_in_small_blocks(self, monkeypatch):
        # Posts and uses are mapped a block at a time; blocks of two put boundaries everywhere.
        monkeypatch.setattr(corpus_module, "BLOCK", 2)
        self.test_matches_a_per_post_loop()

    TAGGED, TAGLESS = ("#Roma", "x", "pizza"), ()
    EDGE_CASES = {
        "no posts": [],
        "no slots": [("u0", 0, YEAR, TAGLESS), ("u1", 1, YEAR, TAGLESS)],
        "only tags that canonicalize to nothing": [("u0", 0, YEAR, ("x", "#")), ("u1", 1, YEAR, (" ",))],
        "tagless posts first": [("u0", 0, YEAR, TAGLESS), ("u1", 1, YEAR, TAGLESS), ("u0", 2, YEAR, TAGGED)],
        "tagless posts last": [("u1", 0, YEAR, TAGGED), ("u0", 1, YEAR, TAGLESS), ("u1", 2, YEAR, TAGLESS)],
        "tagless posts in runs": [
            ("u0", 0, YEAR, TAGGED), ("u1", 1, YEAR, TAGLESS), ("u1", 2, YEAR, TAGLESS), ("u2", 3, YEAR - 1, TAGGED),
            ("u0", 4, YEAR, TAGLESS), ("u0", 5, YEAR, TAGLESS), ("u0", 6, YEAR, TAGLESS), ("u1", 7, YEAR, ("pizza",)),
        ],
    }

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 14])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_match_a_per_post_loop(self, monkeypatch, case, block):
        monkeypatch.setattr(corpus_module, "BLOCK", block)
        posts = [make_post(user, day, year=year, tags=tags) for user, day, year, tags in self.EDGE_CASES[case]]
        corpus = Corpus.from_posts(posts)
        nobody = np.zeros(len(corpus.users), dtype=bool)
        everybody = np.ones(len(corpus.users), dtype=bool)
        for year in (None, YEAR, YEAR - 1, YEAR - 5):  # no post is from YEAR - 5
            for users, selected in ((None, None), (nobody, set()), (everybody, set(corpus.users))):
                slots, user = corpus.uses(year, users)
                assert user.dtype == corpus.user.dtype
                owners = [corpus.users[u] for u in user.tolist()]
                assert (slots.tolist(), owners) == self.naive(posts, year, selected)


class TestSortedKeys:
    """``distinct`` and ``counted`` against ``np.unique``, and ``blocks`` against ``range``."""

    EXTREMES = (np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max)  # the largest value is distinct's filler

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(EXTREMES), st.integers(-(2**63), 2**63 - 1))))
    def test_distinct_and_counted_are_np_unique(self, values):
        for dtype in (np.int64, np.int32):
            keys = np.array(values, dtype=np.int64).astype(dtype)  # int32 wraps, which is still a key set
            expected, counts = np.unique(keys, return_counts=True)
            assert distinct(keys.copy()).tolist() == expected.tolist()
            got, got_counts = counted(keys.copy())
            assert (got.tolist(), got_counts.tolist()) == (expected.tolist(), counts.tolist())
            assert distinct(keys.copy()).dtype == counted(keys.copy())[0].dtype == dtype

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_cover_the_range_in_order(self, monkeypatch, block):
        monkeypatch.setattr(corpus_module, "BLOCK", block)
        for n in range(0, 16):
            parts = list(blocks(n))
            assert [i for part in parts for i in range(n)[part]] == list(range(n))
            assert all(part.stop - part.start == block for part in parts[:-1])


class TestSkipReasons:
    def test_each_reason_counted_with_its_first_three_lines(self, tmp_path):
        good = {"user_id": "u1", "ts": "2018-06-01T08:30:00Z", "cc": "IT", "tags": ["roma"]}
        bad = [
            ("json", "{broken"),
            ("json", "[1, 2]"),
            ("missing", json.dumps({"user_id": "u1"})),
            ("user_id", json.dumps({**good, "user_id": 7})),
            ("ts", json.dumps({**good, "ts": None})),
            ("ts", json.dumps({**good, "ts": "0001-01-01T00:30:00+01:00"})),  # UTC before year 1
            ("cc", json.dumps({**good, "cc": "ZZ"})),
            ("tags", json.dumps({**good, "tags": None})),
            ("json", "3"),
            ("json", "{} x"),
        ]
        path = tmp_path / "posts.jsonl"
        path.write_text("\n".join([json.dumps(good)] + [line for _, line in bad]) + "\n", encoding="utf-8")
        corpus, stats = load_posts(path)
        assert (stats.lines, stats.loaded, stats.skipped, corpus.n_posts) == (11, 1, 10, 1)
        assert stats.reasons == {"json": 4, "missing": 1, "user_id": 1, "ts": 2, "cc": 1, "tags": 1}
        assert stats.first_lines["json"] == [2, 3, 10]
        assert stats.first_lines["ts"] == [6, 7]
        reference = LoadStats()
        list(iter_posts(path, reference))
        assert reference == stats

    def test_a_skipped_line_is_logged_at_debug_not_warning(self, tmp_path, caplog):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps({"user_id": "u1", "ts": "nope"}) + "\n", encoding="utf-8")
        for load in (load_posts, lambda p: list(iter_posts(p))):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="homedest.corpus"):
                load(path)
            (record,) = caplog.records
            assert record.levelno == logging.DEBUG
            assert record.getMessage().startswith(f"{path}:1 skipped malformed post: bad timestamp 'nope'")

    def test_user_id_is_checked_before_ts_is_looked_at(self):
        with pytest.raises(BadPost) as exc:
            parse_post({"user_id": 5})
        assert exc.value.reason == "user_id"

    def test_line_that_is_not_utf8_skipped_as_json(self, tmp_path):
        good = json.dumps({"user_id": "u1", "ts": "2018-06-01T08:30:00Z", "cc": "IT", "tags": ["roma"]}).encode()
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b"\n".join([good, good.replace(b"roma", b"caf\xe9"), good]) + b"\n")
        corpus, stats = load_posts(path)
        assert (stats.lines, stats.loaded, stats.skipped, corpus.n_posts) == (3, 2, 1, 2)
        assert stats.reasons == {"json": 1}
        assert stats.first_lines["json"] == [2]
        reference = LoadStats()
        assert len(list(iter_posts(path, reference))) == 2
        assert reference == stats

    def test_parse_post_names_the_reason(self):
        with pytest.raises(BadPost) as exc:
            parse_post({"user_id": "u1", "ts": "2018-06-01T08:30:00Z", "cc": "XX"})
        assert exc.value.reason == "cc"
        with pytest.raises(BadPost) as exc:
            parse_post({"ts": "2018-06-01T08:30:00Z"})
        assert exc.value.reason == "missing"


# Lines for the oracle test: valid records, records with one field broken
# (or removed), and junk. Canonical timestamps (``YYYY-MM-DDTHH:MM:SSZ``)
# come from a few dates and times, so a date recurs with other times, valid
# or not; other ISO-8601 forms and random instants in and out of range mix in.
_ABSENT = object()
_DATES = ["2018-06-01", "2018-12-31", "1970-01-01", "2099-12-31"]
_TIMES = ["00:00:00", "08:30:00", "23:59:59"]
_canonical = st.builds("{}T{}Z".format, st.sampled_from(_DATES), st.sampled_from(_TIMES))
_valid_ts = st.one_of(
    _canonical,
    _canonical,
    st.builds(
        "{}{}{}{}".format,
        st.sampled_from(_DATES + ["2018-W22-5", "20180601"]),
        st.sampled_from(["T", " ", "x"]),
        st.sampled_from(_TIMES + ["08:30", "08:30:00.250", "083000"]),
        st.sampled_from(["Z", "z", "+02:00", "-05:30", "+14:00", "", "+0200"]),
    ),  # an offset can move the first and last date out of range
    st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2099, 12, 31)).map(
        lambda d: d.strftime("%Y-%m-%dT%H:%M:%SZ")
    ),
)
_valid = st.fixed_dictionaries(
    {"user_id": st.sampled_from(["u1", "u2", "u3"]), "ts": _valid_ts},
    optional={
        "cc": st.sampled_from(["IT", "de", " fr ", None]),
        "lang": st.sampled_from(["it", "pt_BR", "de-DE", "x!", None, 1, True, "TRUE"]),
        "tags": st.lists(st.sampled_from(["#Roma", "roma", "x", "", "Grüße", "a b", "CAFÉ"]), max_size=4),
    },
)
_BROKEN = {
    "user_id": st.sampled_from(["", 5, None, _ABSENT]),
    "ts": st.one_of(
        st.builds("{}T{}Z".format, st.sampled_from(_DATES), st.sampled_from(["24:00:00", "12:60:00", "12:00:60"])),
        st.builds("{}T{}Z".format, st.sampled_from(["2018-02-30", "1969-12-31", "2100-01-01"]), st.sampled_from(_TIMES)),
        st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1)).map(
            lambda d: d.strftime("%Y-%m-%dT%H:%M:%SZ")
        ),
        st.sampled_from([5, None, "", "not-a-date", "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00", _ABSENT]),
    ),
    "cc": st.sampled_from(["ZZ", "XX", 5, True]),
    "tags": st.sampled_from(["roma", None, ["roma", 3]]),
}


@st.composite
def _broken(draw):
    record = draw(_valid)
    name = draw(st.sampled_from(sorted(_BROKEN)))
    value = draw(_BROKEN[name])
    if value is _ABSENT:
        del record[name]
    else:
        record[name] = value
    return record


_lines = st.one_of(
    _valid.map(json.dumps),
    _valid.map(lambda r: json.dumps(r, ensure_ascii=False)),
    _broken().map(json.dumps),
    st.sampled_from(["{broken", "[1, 2]", "3", "null", '{"user_id": "u1"} x', "", "# comment", "  "]),
)


class TestLoadPostsOracle:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lines=st.lists(_lines, max_size=60))
    def test_matches_the_post_by_post_reference(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "posts.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            corpus, stats = load_posts(path)
            reference_stats = LoadStats()
            reference = Corpus.from_posts(iter_posts(path, reference_stats))
        assert _same_corpus(corpus, reference)
        assert stats == reference_stats
        assert stats.loaded + stats.skipped == stats.lines
