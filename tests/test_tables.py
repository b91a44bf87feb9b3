"""The shared table format: typed cells, strict rows, leading comments."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homedest.attachment import read_scores
from homedest.atlas import read_atlas
from homedest.corpus import load_friends
from homedest.covariates import load_hofstede, load_pair_covariates
from homedest.labeling import UserProfile, read_profiles, write_profiles
from homedest.synth import read_ground_truth
from homedest.tables import TableError, read_table, write_table


def read_flags(path, cells):
    path.write_text("id,flag\n" + "".join(f"{cell}\n" for cell in cells))
    return [row["flag"] for row in read_table(path, {"id": str, "flag": bool | None})]


@pytest.mark.parametrize("cell, expected", [("true", True), ("false", False), ("", None)])
def test_bool_cell_values(tmp_path, cell, expected):
    assert read_flags(tmp_path / "t.csv", [f"u1,{cell}"]) == [expected]


@pytest.mark.parametrize("cell", ["True", "FALSE", "1", "0", "yes", " true", None])
def test_bool_cell_rejects_anything_else(tmp_path, cell):
    if cell is None:  # a row without the flag cell
        row, message = "u1", r"t\.csv: line 2 has 1 cells, expected 2"
    else:
        row, message = f"u1,{cell}", rf"t\.csv: line 2: column flag holds '{cell}'"
    with pytest.raises(TableError, match=message):
        read_flags(tmp_path / "t.csv", [row])


def test_readers_reject_a_bad_flag(tmp_path):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("user_id,residence,nationality,is_migrant\nu1,DE,IT,yes\n")
    with pytest.raises(TableError, match="is_migrant holds 'yes'"):
        read_profiles(profiles)
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "user_id,nationality,residence,ha,da,n_hashtags,n_home,n_dest,acc_class,speaks_dest_lang\n"
        "u1,IT,DE,0.5,0.25,4,2,1,integration,1\n"
    )
    with pytest.raises(TableError, match="speaks_dest_lang holds '1'"):
        read_scores(scores)


# Each reader's file with one bad cell: (reader, file, text, column, value).
BAD_CELLS = [
    (read_scores, "scores.csv",
     "user_id,nationality,residence,ha,da,n_hashtags,n_home,n_dest,acc_class,speaks_dest_lang\n"
     "u1,IT,DE,abc,0.25,4,2,1,integration,true\n", "ha", "abc"),
    (read_atlas, "atlas.csv",
     "token,assignment,entropy,n_users,top_country_fraction\nroma,IT,0.0,three,1.0\n", "n_users", "three"),
    (read_ground_truth, "ground_truth.csv",
     "user_id,residence,nationality,acc_class,planted_ha,planted_da,n_tags\nu1,DE,IT,integration,0.4,x,20\n",
     "planted_da", "x"),
    (load_hofstede, "hofstede.csv", "country,pdi,idv,mas,uai,lto,ivr\nAR,49,46,56,86,20,6 2\n", "ivr", "6 2"),
    (load_pair_covariates, "pair_covariates.csv",
     "country_a,country_b,distcap,contig,comlang_off,csl,cnl\nDE,IT,far,0,0,0.1,0.2\n", "distcap", "far"),
    (load_friends, "friends.csv", "user_id,friend_id\nu3\nu1,u2\n", None, None),
    # A float cell must be finite, whether or not it may be empty.
    (read_scores, "scores_nan.csv",
     "user_id,nationality,residence,ha,da,n_hashtags,n_home,n_dest,acc_class,speaks_dest_lang\n"
     "u1,IT,DE,nan,0.25,4,2,1,integration,true\n", "ha", "nan"),
    (load_hofstede, "hofstede_-inf.csv", "country,pdi,idv,mas,uai,lto,ivr\nAR,49,46,56,86,20,-inf\n", "ivr", "-inf"),
    (load_pair_covariates, "pair_covariates_1e999.csv",
     "country_a,country_b,distcap,contig,comlang_off,csl,cnl\nDE,IT,1e999,0,0,0.1,0.2\n", "distcap", "1e999"),
]


@pytest.mark.parametrize(
    "reader, name, text, column, value", BAD_CELLS, ids=[case[1] for case in BAD_CELLS]
)
def test_every_reader_names_the_bad_cell(tmp_path, reader, name, text, column, value):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(TableError) as exc:
        reader(path)
    assert str(exc.value).startswith(f"{path}: line 2")
    if column is None:  # every friends column is text, so only a ragged row can be bad
        assert str(exc.value) == f"{path}: line 2 has 1 cells, expected 2"
    else:
        assert f"column {column} holds {value!r}" in str(exc.value)


def test_user_ids_with_line_breaks_and_hashes_round_trip(tmp_path):
    path = tmp_path / "profiles.csv"
    profiles = {
        "\n#x": UserProfile("\n#x", "DE", "IT", True),
        "#y": UserProfile("#y", None, None, None),
        "a\rb": UserProfile("a\rb", "IT", "IT", False),
    }
    write_profiles(path, profiles, header=["written by a test"])
    assert read_profiles(path) == profiles


@pytest.mark.parametrize(
    "text, message",
    [
        ('id,flag\nu1,"x\nu2,y\n', "line 3: unexpected end of data"),
        ('id,flag\nu1,"' + "x" * 200_000 + "\n", "line 2: field larger than field limit"),
    ],
    ids=["short", "oversized"],
)
def test_unterminated_quote_is_a_table_error(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(TableError, match=rf"t\.csv: {message}"):
        list(read_table(path, {"id": str, "flag": str}))


def test_a_keyless_row_that_breaks_a_rule_names_only_the_rule(tmp_path):
    path = tmp_path / "t.csv"
    for blank_lines, line in ((0, 4), (2, 6)):  # blank lines are skipped but counted
        path.write_text("# header\nid,x\na,1\n" + "\n" * blank_lines + "b,-1\n")
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}: line {line}: breaks the rule x >= 0$"):
            list(read_table(path, {"x": int}, rules={"x >= 0": lambda row: row["x"] >= 0}))


CELL_TYPES = {
    str: st.text(st.characters(exclude_categories=["Cs"]))
    | st.sampled_from(["a,b", 'say "hi"', "two\nlines", "\r\n", "a\rb", "#lead", "\n#x", " "]),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),  # a float cell must be finite
    bool: st.booleans(),
}


@st.composite
def tables(draw, cell_types=CELL_TYPES):
    """Column types, some ``| None``, and rows of values of those types."""
    kinds = draw(st.lists(st.sampled_from(list(cell_types)), min_size=1, max_size=5))
    optional = [draw(st.booleans()) for _ in kinds]
    cells = []
    for kind, nullable in zip(kinds, optional):
        values = cell_types[kind]
        if nullable:  # a blank cell of a | None column reads as None
            values = values.filter(lambda v: not isinstance(v, str) or v.strip()) | st.none()
        cells.append(values)
    columns = {f"c{i}": kind | None if nullable else kind for i, (kind, nullable) in enumerate(zip(kinds, optional))}
    rows = draw(st.lists(st.tuples(*cells), max_size=8))
    return columns, rows


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), header=st.lists(st.sampled_from(["config_hash=abc", "", "#"]), max_size=2))
def test_write_then_read_gives_the_rows_back(tmp_path, table, header):
    columns, rows = table
    path = tmp_path / "t.csv"
    write_table(path, columns, rows, header)
    assert [tuple(row.values()) for row in read_table(path, columns)] == rows


def non_finite(value):
    return isinstance(value, float) and not math.isfinite(value)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables({**CELL_TYPES, float: st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])}))
def test_a_non_finite_float_is_refused_on_write(tmp_path, table):
    columns, rows = table
    path = tmp_path / "t.csv"
    bad = [(number, c, v) for number, row in enumerate(rows, 1) for c, v in zip(columns, row) if non_finite(v)]
    if not bad:
        write_table(path, columns, rows)
        assert [tuple(row.values()) for row in read_table(path, columns)] == rows
        return
    number, column, value = bad[0]
    message = f"{path}: row {number}: column {column} would hold {value}, not a finite number"
    with pytest.raises(TableError, match=re.escape(message)):
        write_table(path, columns, rows)
    assert not path.exists()
