"""Ingestion and canonicalization unit tests."""

from __future__ import annotations

import dataclasses
import json
from datetime import timezone

import numpy as np
import pytest

from homedest.corpus import (
    Corpus,
    LoadStats,
    canonicalize_hashtag,
    iter_posts,
    load_friends,
    load_posts,
    parse_post,
    read_corpus,
    write_corpus,
    write_posts,
)

from conftest import make_post


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
        assert a.day == b.day

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

    def test_load_friends_dedup_and_self_loops(self, tmp_path):
        path = tmp_path / "friends.csv"
        path.write_text(
            "user_id,friend_id\na,b\na,b\na,a\nb,a\na,c\n", encoding="utf-8"
        )
        graph = load_friends(path)
        assert graph.friends_of("a") == {"b", "c"}
        assert graph.friends_of("b") == {"a"}
        assert graph.n_duplicates == 1
        assert graph.n_self_loops == 1
        assert graph.friends_of("zzz") == set()


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
        assert corpus.slot_post().tolist() == [0, 0, 0, 1]

    def test_canonicalizes_each_distinct_raw_tag_once(self, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return canonicalize_hashtag(raw)

        monkeypatch.setattr("homedest.corpus.canonicalize_hashtag", counting)
        posts = [make_post("u", d, tags=["#Roma", "roma", "x"]) for d in range(50)]
        Corpus.from_posts(posts)
        assert sorted(calls) == ["#Roma", "roma", "x"]

    def test_from_posts_returns_a_corpus_unchanged(self):
        corpus = Corpus.from_posts(self.make_posts())
        assert Corpus.from_posts(corpus) is corpus

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
        ["missing", "empty", "garbage", "truncated", "npy", "pickle", "bad ids", "float ids", "scalar column"],
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
            write_corpus(path, corpus.with_tags(corpus.tags + 5), "a" * 64)
        elif damage == "float ids":
            write_corpus(path, dataclasses.replace(corpus, user=corpus.user.astype(float)), "a" * 64)
        else:
            write_corpus(path, dataclasses.replace(corpus, user=np.int32(0)), "a" * 64)
        assert read_corpus(path, "a" * 64) is None
