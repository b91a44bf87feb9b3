"""The shared table format: boolean cells."""

from __future__ import annotations

import pytest

from homedest.attachment import read_scores
from homedest.labeling import read_profiles
from homedest.tables import TableError, bool_cell


@pytest.mark.parametrize("cell, expected", [("true", True), ("false", False), ("", None)])
def test_bool_cell_values(cell, expected):
    assert bool_cell("t.csv", {"flag": cell}, "flag") is expected


@pytest.mark.parametrize("cell", ["True", "FALSE", "1", "0", "yes", " true", None])
def test_bool_cell_rejects_anything_else(cell):
    with pytest.raises(TableError, match=r"t\.csv: column flag holds"):
        bool_cell("t.csv", {"flag": cell}, "flag")


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
