"""Every declared table key and row rule is enforced by every command that reads the table.

One small workspace is built per module. Every declared key and rule is a
case of its own, so each run checks them all. Each example breaks the case's
key or rule in one row of its table, then runs, in process, each command that reads that
table: the command must exit 2 with one stderr line naming the file, the line,
the row's key cells (if the table has a key) and the broken rule, and must
write none of its outputs.
"""

from __future__ import annotations

import csv
import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homedest.atlas import ATLAS_KEY, ATLAS_RULES
from homedest.attachment import SCORE_KEY, SCORE_RULES
from homedest.cli import COMMANDS, FILES, main
from homedest.covariates import (
    HOFSTEDE_DIMENSIONS,
    HOFSTEDE_KEY,
    HOFSTEDE_RULES,
    PAIR_KEY,
    PAIR_RULES,
    packaged_data_path,
)
from homedest.labeling import LANG_KEY, LANG_RULES, PROFILE_KEY, PROFILE_RULES
from homedest.nullmodel import NULL_SCORE_RULES

# Each table's declared key and rules, by the input name its commands give it.
CONTRACTS = {
    "profiles": (PROFILE_KEY, PROFILE_RULES),
    "lang_fractions": (LANG_KEY, LANG_RULES),
    "atlas": (ATLAS_KEY, ATLAS_RULES),
    "scores": (SCORE_KEY, SCORE_RULES),
    "hofstede": (HOFSTEDE_KEY, HOFSTEDE_RULES),
    "pair_covariates": (PAIR_KEY, PAIR_RULES),
    "null_scores": ((), NULL_SCORE_RULES),
}
KEY = "key"


def outside(low, high):
    """Finite floats below ``low`` or above ``high``."""
    finite = {"allow_nan": False, "allow_infinity": False}
    below = st.floats(max_value=low, exclude_max=True, **finite)
    above = st.floats(min_value=high, exclude_min=True, **finite)
    return st.one_of(below, above).filter(lambda value: not low <= value <= high)  # -0.0 is not below 0.0


def wrong_migrant_flag(draw, row):
    both = row["residence"] and row["nationality"]
    right = ("true" if row["residence"] != row["nationality"] else "false") if both else ""
    return {"is_migrant": draw(st.sampled_from([flag for flag in ("true", "false", "") if flag != right]))}


def unnormalised_code(column):
    """A breaker of ``column is upper case, without spaces``: the code lower-cased, or padded with a space."""

    def breaker(draw, row):
        code = row[column]
        return {column: draw(st.sampled_from([code.lower(), f" {code}", f"{code} "]))}

    return breaker


def swapped_pair(draw, row):
    """A breaker of ``country_a < country_b``: the pair written in the other order."""
    return {"country_a": row["country_b"], "country_b": row["country_a"]}


def more_home_and_dest_than_uses(draw, row):
    excess = draw(st.integers(min_value=1, max_value=10**6))
    return {"n_home": str(int(row["n_hashtags"]) - int(row["n_dest"]) + excess)}


def not_the_quotient(index, count):
    """A breaker of ``index == count / n_hashtags``: a finite float in [0, 1] that is not that quotient."""

    def breaker(draw, row):
        exact = int(row[count]) / int(row["n_hashtags"])
        return {index: repr(draw(st.floats(0.0, 1.0).filter(lambda value: value != exact)))}

    return breaker


def indices_over_one(draw, row):
    """A breaker of ``ha + da <= 1``: each index in [0, 1], their sum above 1."""
    unit = st.floats(0.0, 1.0)
    ha, da = draw(st.tuples(unit, unit).filter(lambda pair: pair[0] + pair[1] > 1))
    return {"ha": repr(ha), "da": repr(da)}


# For each (table, rule), new cells that make one row break the rule, given the
# row and hypothesis's `draw`. Where they break more rules than one, this one is
# the first in declared order, which is the one read_table names.
BREAKERS = {
    ("profiles", "is_migrant is empty without both countries, else residence != nationality"): wrong_migrant_flag,
    ("lang_fractions", "0 <= fraction <= 1"): lambda draw, row: {"fraction": repr(draw(outside(0.0, 1.0)))},
    ("atlas", "0 <= entropy <= 1"): lambda draw, row: {"entropy": repr(draw(outside(0.0, 1.0)))},
    ("atlas", "0 < top_country_fraction <= 1"): lambda draw, row: {
        "top_country_fraction": repr(draw(st.one_of(st.just(0.0), outside(0.0, 1.0))))
    },
    ("atlas", "n_users >= 1"): lambda draw, row: {"n_users": str(draw(st.integers(max_value=0)))},
    ("scores", "n_hashtags >= 1"): lambda draw, row: {
        "n_hashtags": str(draw(st.integers(max_value=0))), "n_home": "0", "n_dest": "0"
    },
    ("scores", "no negative count"): lambda draw, row: {
        draw(st.sampled_from(["n_home", "n_dest"])): str(draw(st.integers(max_value=-1)))
    },
    ("scores", "n_home + n_dest <= n_hashtags"): more_home_and_dest_than_uses,
    ("scores", "ha == n_home / n_hashtags"): not_the_quotient("ha", "n_home"),
    ("scores", "da == n_dest / n_hashtags"): not_the_quotient("da", "n_dest"),
    ("hofstede", "country is upper case, without spaces"): unnormalised_code("country"),
    **{
        ("pair_covariates", f"{column} is upper case, without spaces"): unnormalised_code(column)
        for column in PAIR_KEY
    },
    ("pair_covariates", "country_a < country_b"): swapped_pair,
    ("null_scores", "0 <= ha <= 1"): lambda draw, row: {"ha": repr(draw(outside(0.0, 1.0)))},
    ("null_scores", "0 <= da <= 1"): lambda draw, row: {"da": repr(draw(outside(0.0, 1.0)))},
    ("null_scores", "ha + da <= 1"): indices_over_one,
    **{
        ("hofstede", f"{dim} is empty or in [0, 120]"): lambda draw, row, dim=dim: {dim: repr(draw(outside(0.0, 120.0)))}
        for dim in HOFSTEDE_DIMENSIONS
    },
    **{(table, KEY): None for table, (key, _) in CONTRACTS.items() if key},  # a key is broken by a copy of a row
}


def test_every_declared_key_and_rule_has_a_breaker():
    keys = {(table, KEY) for table, (key, _) in CONTRACTS.items() if key}
    declared = keys | {(table, rule) for table, (_, rules) in CONTRACTS.items() for rule in rules}
    assert set(BREAKERS) == declared


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 300-user workspace after `null`, with the bundled cultural table beside it."""
    out = tmp_path_factory.mktemp("rules")
    for argv in (["synth", "--users", "300", "--seed", "42"], ["label"], ["atlas"], ["score"], ["null", "--replicates", "2"]):
        with redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
    shutil.copy(packaged_data_path("hofstede.csv"), out / "hofstede.csv")
    return out


def table_path(out: Path, table: str) -> Path:
    return out / FILES.get(table, f"{table}.csv")


def read_lines(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """A table's comment lines, column row and data rows; no cell of these tables spans lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    names, *rows = csv.reader(lines[len(comments):])
    return comments, names, rows


def run_refused(out: Path, command: str) -> str:
    """Run ``command`` in ``out``, which must refuse it with exit 2; its stderr."""
    argv = [command, "--out", str(out)]
    for key in COMMANDS[command].inputs:
        if key not in FILES:  # a bundled table, read from the copy in the workspace
            argv += ["--" + key, str(table_path(out, key))]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return stderr.getvalue()


@pytest.mark.parametrize("table, rule", sorted(BREAKERS))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_a_row_that_breaks_a_declared_key_or_rule_is_refused_by_every_reader(workspace, table, rule, data):
    key = CONTRACTS[table][0]
    comments, names, rows = read_lines(table_path(workspace, table))
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    first_data_line = len(comments) + 2
    if rule == KEY:
        j = data.draw(st.integers(i + 1, len(rows)), label="copy at")
        rows.insert(j, rows[i])
        line, broken = first_data_line + j, f"repeats line {first_data_line + i}"
    else:
        row = dict(zip(names, rows[i]))
        row.update(BREAKERS[table, rule](data.draw, row))
        rows[i] = [row[name] for name in names]
        line, broken = first_data_line + i, f"breaks the rule {rule}"
    cells = dict(zip(names, rows[line - first_data_line]))
    named = ", ".join(f"{name} {cells[name]}" for name in key)
    message = f"{named} {broken}" if key else broken

    readers = [name for name, command in COMMANDS.items() if table in command.inputs + command.optional]
    assert readers
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(shutil.copytree(workspace, Path(scratch) / "ws"))
        path = table_path(out, table)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(f"{comment}\n" for comment in comments)
            csv.writer(handle, lineterminator="\n").writerows([names, *rows])
        for command in readers:
            outputs = [out / FILES[name] for name in COMMANDS[command].outputs] + [out / "report"]
            for output in outputs:
                output.unlink(missing_ok=True)
            assert run_refused(out, command) == f"error: {path}: line {line}: {message}\n", command
            assert not any(output.exists() for output in outputs), command
            for output in outputs:  # a later reader may need it as an input
                if (workspace / output.name).is_file():
                    shutil.copy(workspace / output.name, output)
