"""Residence/nationality assignment unit tests."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homedest.corpus import Corpus, FriendGraph
from homedest.labeling import (
    LANG_COLUMNS,
    LANG_KEY,
    LANG_RULES,
    assign_nationality,
    assign_residence,
    dominant_country,
    label_population,
    language_fractions,
    language_shares,
    pick_country,
    read_profiles,
    write_lang_fractions,
    write_profiles,
)
from homedest.tables import TableError, read_table

from conftest import YEAR, make_post


class TestPickCountry:
    def test_most_days_wins(self):
        assert pick_country({"IT": 3, "DE": 1}, {"IT": 3, "DE": 9}) == "IT"

    def test_day_tie_broken_by_posts(self):
        assert pick_country({"IT": 2, "DE": 2}, {"IT": 1, "DE": 5}) == "DE"

    def test_full_tie_broken_lexicographically(self):
        assert pick_country({"IT": 2, "DE": 2}, {"IT": 4, "DE": 4}) == "DE"

    def test_empty_is_none(self):
        assert pick_country({}, {}) is None


class TestResidence:
    def test_reference_year_only(self):
        posts = [make_post("u", d, cc="DE") for d in range(3)]
        posts += [make_post("u", d, cc="IT", year=YEAR - 1) for d in range(10)]
        assert assign_residence(posts, YEAR) == "DE"

    def test_distinct_days_not_post_volume(self):
        # Five posts on one ES day versus two days in FR.
        posts = [make_post("u", 7, cc="ES") for _ in range(5)]
        posts += [make_post("u", d, cc="FR") for d in (20, 21)]
        assert assign_residence(posts, YEAR) == "FR"

    def test_no_geo_is_none(self):
        assert assign_residence([make_post("u", 1, tags=["x"])], YEAR) is None


class TestNationality:
    def test_blends_self_and_friends(self):
        # Geo: 3 IT days vs 1 DE day all-time; friends: 1 IT, 3 DE.
        posts = [make_post("u", d, cc="IT") for d in range(3)]
        posts.append(make_post("u", 9, cc="DE"))
        friend_countries = {"f1": "IT", "f2": "DE", "f3": "DE", "f4": "DE"}
        # score(IT) = .5*.75 + .5*.25 = .5 ; score(DE) = .5*.25 + .5*.75 = .5
        # -> lexicographic tie-break picks DE.
        got = assign_nationality(posts, {"f1", "f2", "f3", "f4"}, friend_countries)
        assert got == "DE"

    def test_friends_without_countries_ignored(self):
        posts = [make_post("u", 1, cc="IT")]
        assert assign_nationality(posts, {"ghost"}, {}) == "IT"

    def test_no_evidence_is_none(self):
        assert assign_nationality([make_post("u", 1)], set(), {}) is None

    def test_uses_all_years(self):
        posts = [make_post("u", d, cc="DE") for d in range(2)]
        posts += [make_post("u", d, cc="IT", year=YEAR - 3) for d in range(5)]
        assert dominant_country(posts) == "IT"


def test_language_fractions():
    posts = [
        make_post("u", 1, lang="it"),
        make_post("u", 2, lang="it"),
        make_post("u", 3, lang="de"),
        make_post("u", 4),  # no language: excluded from the denominator
    ]
    fractions = language_fractions(posts)
    assert fractions == {"it": 2 / 3, "de": 1 / 3}


class TestLabelPopulation:
    def test_micro_corpus_labels(self, micro_corpus):
        posts, graph = micro_corpus
        profiles, summary = label_population(Corpus.from_posts(posts), graph, YEAR)
        m1 = profiles["m1"]
        assert (m1.residence, m1.nationality, m1.is_migrant) == ("DE", "IT", True)
        for uid in ("n_it1", "n_it2", "n_it3"):
            assert profiles[uid].residence == profiles[uid].nationality == "IT"
            assert profiles[uid].is_migrant is False
        assert profiles["n_fr1"].nationality == "FR"
        assert summary.n_migrants == 1
        assert summary.n_with_both == summary.n_users == 7

    def test_order_invariant(self, micro_corpus):
        posts, graph = micro_corpus
        reference, _ = label_population(Corpus.from_posts(posts), graph, YEAR)
        shuffled = posts[:]
        random.Random(13).shuffle(shuffled)
        again, _ = label_population(Corpus.from_posts(shuffled), graph, YEAR)
        assert {u: (p.residence, p.nationality) for u, p in reference.items()} == {
            u: (p.residence, p.nationality) for u, p in again.items()
        }


def test_profile_round_trip(tmp_path, micro_corpus):
    posts, graph = micro_corpus
    corpus = Corpus.from_posts(posts)
    profiles, _ = label_population(corpus, graph, YEAR)
    ppath = tmp_path / "profiles.csv"
    lpath = tmp_path / "langs.csv"
    write_profiles(ppath, profiles, ["test header"])
    write_lang_fractions(lpath, corpus, ["test header"])
    assert read_profiles(ppath) == profiles
    rows = [tuple(row.values()) for row in read_table(lpath, LANG_COLUMNS, LANG_KEY, LANG_RULES)]
    assert rows == sorted(language_shares(corpus))
    assert {(user, lang) for user, lang, _ in rows} == {(p.user_id, p.language) for p in posts if p.language}


def test_language_shares_do_not_depend_on_post_order(micro_corpus):
    posts, _ = micro_corpus
    shuffled = posts[:]
    random.Random(13).shuffle(shuffled)
    assert sorted(language_shares(Corpus.from_posts(shuffled))) == sorted(language_shares(Corpus.from_posts(posts)))


def test_a_corpus_without_language_tags_has_no_shares(tmp_path):
    corpus = Corpus.from_posts([make_post("u", 0, cc="DE"), make_post("v", 1, cc="IT")])
    assert list(language_shares(corpus)) == []
    path = tmp_path / "langs.csv"
    write_lang_fractions(path, corpus)
    assert path.read_text() == "user_id,lang,fraction\n"


def test_distinct_days_far_from_the_epoch():
    # Days before 1970 and after 2149 still count one per calendar day.
    posts = [make_post("u", d, cc="DE", year=1900) for d in (0, 0, 1)]
    posts += [make_post("u", d, cc="IT", year=2200) for d in (0, 0, 0)]
    posts += [make_post("u", d, cc="FR", year=2200) for d in (1, 2)]
    assert dominant_country(posts) == "DE"
    profiles, _ = label_population(Corpus.from_posts(posts), FriendGraph.from_pairs(()), 2200)
    assert profiles["u"].residence == "FR"  # two days beat three posts on one day


@pytest.mark.parametrize(
    "row, fits",
    [
        ("u1,DE,IT,true", True),
        ("u1,DE,DE,false", True),
        ("u1,DE,,", True),
        ("u1,,,", True),
        ("u1,DE,,false", False),
        ("u1,,IT,true", False),
        ("u1,DE,IT,", False),
        ("u1,DE,IT,false", False),
        ("u1,IT,IT,true", False),
    ],
)
def test_read_profiles_checks_the_migrant_flag_against_the_countries(tmp_path, row, fits):
    path = tmp_path / "profiles.csv"
    path.write_text(f"user_id,residence,nationality,is_migrant\n{row}\n")
    if fits:
        assert list(read_profiles(path)) == ["u1"]
    else:
        rule = "is_migrant is empty without both countries, else residence != nationality"
        with pytest.raises(TableError, match=f"^{re.escape(str(path))}: line 2: user_id u1 breaks the rule {rule}$"):
            read_profiles(path)


def test_read_profiles_refuses_a_repeated_user(tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text("user_id,residence,nationality,is_migrant\nu1,MX,BR,true\nu2,BR,BR,false\nu1,DE,BR,true\n")
    with pytest.raises(TableError, match=f"^{re.escape(str(path))}: line 4: user_id u1 repeats line 2$"):
        read_profiles(path)


# Micro-corpora for the oracle: posts as (user, day, cc, lang, year), friend edges as (user, friend).
USERS = ("a", "b", "c", "d", "e", "f")
POST = st.tuples(
    st.sampled_from(USERS),
    st.integers(0, 3),
    st.sampled_from((None, "DE", "FR", "IT")),
    st.sampled_from((None, "de", "it")),
    st.sampled_from((YEAR, YEAR - 1)),
)
EDGE = st.tuples(st.sampled_from(USERS + ("ghost",)), st.sampled_from(USERS + ("ghost",)))
PLANTED = (
    [
        ("a", 1, "DE", None, YEAR), ("a", 1, "DE", None, YEAR), ("a", 2, "IT", None, YEAR), ("a", 2, "IT", None, YEAR),
        ("b", 1, "DE", "de", YEAR), ("b", 2, "IT", "it", YEAR), ("b", 2, "IT", "it", YEAR),
        ("c", 1, "IT", "it", YEAR),
        ("d", 1, "DE", "de", YEAR),
        ("e", 1, None, "it", YEAR), ("e", 2, None, "de", YEAR), ("e", 3, None, "de", YEAR),
        ("f", 1, "FR", None, YEAR - 1),
    ],
    [("c", "d"), ("c", "ghost"), ("c", "e"), ("a", "b"), ("a", "a"), ("a", "b"), ("ghost", "f")],
)


@settings(max_examples=150, deadline=None)
@given(st.lists(POST, max_size=25), st.lists(EDGE, max_size=15))
# a: days and posts tie (DE by code); b: days tie, posts pick IT; c: IT 0.5 against friend d's DE 0.5, and
# friends with no posts (ghost) and no geotag (e); e: no geotag; f: no in-year geotag and no friends.
@example(*PLANTED)
# g: three posts on one DE day against two IT days, so days and posts pick different countries.
@example([("g", 1, "DE", None, YEAR)] * 3 + [("g", 1, "IT", None, YEAR), ("g", 2, "IT", None, YEAR)], [])
def test_label_population_equals_the_adapters(rows, pairs):
    posts = [make_post(user, day, cc=cc, lang=lang, year=year) for user, day, cc, lang, year in rows]
    corpus = Corpus.from_posts(posts)
    profiles, summary = label_population(corpus, FriendGraph.from_pairs(pairs), YEAR)
    own = {user: [p for p in posts if p.user_id == user] for user in dict.fromkeys(p.user_id for p in posts)}
    dominant = {user: c for user, mine in own.items() if (c := dominant_country(mine)) is not None}
    shares = {user: {} for user in own}
    for user, language, share in language_shares(corpus):
        shares[user][language] = share
    assert list(profiles) == sorted(own)
    for user, mine in own.items():
        profile = profiles[user]
        assert profile.residence == assign_residence(mine, YEAR)
        friends = {friend for source, friend in pairs if source == user and friend != user}
        assert profile.nationality == assign_nationality(mine, friends, dominant)
        assert shares[user] == language_fractions(mine)
    edges = {(u, f) for u, f in pairs if u != f}
    assert summary.n_edges_without_posts == sum(u not in own or f not in own for u, f in edges)
    labelled = profiles.values()
    assert (summary.n_with_residence, summary.n_with_nationality, summary.n_with_both, summary.n_migrants) == (
        sum(p.residence is not None for p in labelled),
        sum(p.nationality is not None for p in labelled),
        sum(p.is_migrant is not None for p in labelled),
        sum(p.is_migrant is True for p in labelled),
    )


def test_planted_ties_fall_on_the_code():
    profiles, summary = label_population(
        Corpus.from_posts(make_post(user, day, cc=cc, lang=lang, year=year) for user, day, cc, lang, year in PLANTED[0]),
        FriendGraph.from_pairs(PLANTED[1]),
        YEAR,
    )
    labels = {user: (p.residence, p.nationality) for user, p in profiles.items()}
    assert labels == {
        "a": ("DE", "IT"), "b": ("IT", "IT"), "c": ("IT", "DE"), "d": ("DE", "DE"), "e": (None, None), "f": (None, "FR"),
    }
    assert summary.n_edges_without_posts == 2  # c -> ghost and ghost -> f
