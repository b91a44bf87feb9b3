"""End-to-end command-line behaviour, run in process via main()."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from homedest.atlas import read_atlas
from homedest.attachment import compute_scores, read_scores
from homedest.cli import COMMANDS, FILES, main
from homedest.corpus import Corpus, file_sha256, iter_posts, read_corpus
from homedest.labeling import read_profiles
from homedest.nullmodel import NULL_SCORE_COLUMNS, shuffle_hashtags
from homedest.reporting import REPORT_COLUMNS
from homedest.covariates import CORRELATION_COLUMNS, packaged_data_path
from homedest.synth import read_ground_truth
from homedest.tables import read_table, write_table


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def chain_dir(tmp_path_factory):
    """One small population pushed through every stage."""
    out = tmp_path_factory.mktemp("chain")
    assert run("synth", "--out", out, "--users", 240, "--countries", "de,es,it,us", "--seed", 11) == 0
    assert run("label", "--out", out) == 0
    assert run("atlas", "--out", out) == 0
    assert run("score", "--out", out) == 0
    assert run("null", "--out", out, "--replicates", 2) == 0
    assert run("stats", "--out", out) == 0
    assert run("correlate", "--out", out, "--min-group-size", 2) == 0
    assert run("report", "--out", out) == 0
    return Path(out)


def copy_chain(chain_dir, out, cells=lambda i: {}, n_rows=None):
    """The chain's tables in ``out``; scores keep ``n_rows`` data rows, row i's cells set to ``cells(i)`` (column -> text).

    The null scores keep the rows of the users kept in scores, so they stay that table's null.
    """
    for key in ("profiles", "atlas", "pair_covariates"):
        shutil.copy(chain_dir / FILES[key], out / FILES[key])
    lines = (chain_dir / FILES["scores"]).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    names = lines[start - 1].split(",")
    rows = [line.split(",") for line in lines[start:]][:n_rows]
    kept = {row[0] for row in rows}
    for i, row in enumerate(rows):
        for name, text in cells(i).items():
            row[names.index(name)] = text
    (out / FILES["scores"]).write_text("\n".join(lines[:start] + [",".join(row) for row in rows]) + "\n")
    null = (chain_dir / FILES["null_scores"]).read_text().splitlines(keepends=True)
    (out / FILES["null_scores"]).write_text(
        "".join(line for line in null if line.startswith(("#", "user_id,")) or line.partition(",")[0] in kept)
    )
    return start + 1  # the line number of the first data row


class TestChain:
    def test_all_artifacts_exist(self, chain_dir):
        for name in FILES.values():
            assert (chain_dir / name).exists(), name
        for name in REPORT_COLUMNS:
            assert (chain_dir / "report" / name).exists(), name

    def test_headers_on_artifacts(self, chain_dir):
        for key in ("profiles", "atlas", "scores", "null_scores", "test_results"):
            first = (chain_dir / FILES[key]).read_text().splitlines()[0]
            assert first.startswith("# config_hash="), key
            assert "version=" in first

    def test_countries_flag_normalized(self, chain_dir):
        truth = read_ground_truth(chain_dir / FILES["ground_truth"])
        seen = {t.nationality for t in truth.values()} | {t.residence for t in truth.values()}
        assert seen <= {"DE", "ES", "IT", "US"}

    def test_scores_cover_all_migrants(self, chain_dir):
        truth = read_ground_truth(chain_dir / FILES["ground_truth"])
        n_migrants = sum(t.residence != t.nationality for t in truth.values())
        lines = [
            line
            for line in (chain_dir / FILES["scores"]).read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) - 1 == n_migrants  # header row

    def test_null_scores_have_replicate_column(self, chain_dir):
        lines = (chain_dir / FILES["null_scores"]).read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header.endswith(",replicate")
        replicates = {line.rsplit(",", 1)[1] for line in lines[2:] if not line.startswith("#")}
        assert replicates == {"0", "1"}

    def test_stats_battery_rows(self, chain_dir):
        lines = [
            line
            for line in (chain_dir / FILES["test_results"]).read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "comparison,method,statistic,p_value,n1,n2,stars"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("ha_vs_null", "wilcoxon_rank_sum"),
            ("ha_vs_null", "ks_two_sample"),
            ("da_vs_null", "wilcoxon_rank_sum"),
            ("da_vs_null", "ks_two_sample"),
            ("ha_vs_da", "pearson"),
            ("ha_vs_da", "spearman"),
        ]
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0
            assert r[6] in ("", "*", "**", "***")

    def test_report_holds_exactly_the_report_files(self, chain_dir):
        assert sorted(p.name for p in (chain_dir / "report").iterdir()) == sorted(REPORT_COLUMNS)
        for name, columns in REPORT_COLUMNS.items():
            lines = (chain_dir / "report" / name).read_text().splitlines()
            assert next(line for line in lines if not line.startswith("#")) == ",".join(columns), name

    def test_individual_correlations_hold_covariates_only(self, chain_dir):
        # ha against da is written once, as test_results.csv's ha_vs_da rows.
        rows = list(read_table(chain_dir / FILES["correlations_individual"], CORRELATION_COLUMNS))
        assert rows and not any(row["covariate"] == "da" for row in rows)

    def test_report_without_null_scores(self, chain_dir, tmp_path):
        for key in ("profiles", "atlas", "scores"):
            shutil.copy(chain_dir / FILES[key], tmp_path / FILES[key])
        assert run("report", "--out", tmp_path) == 0
        name = "attachment_distributions.csv"
        rows = read_table(tmp_path / "report" / name, REPORT_COLUMNS[name])
        assert {row["series"] for row in rows} == {"ha", "da"}  # no null histograms


def holed(source, target, drop, blank):
    """CSV ``source`` written to ``target`` without the row that starts with ``drop``, each (row start, column) of ``blank`` emptied."""
    lines = source.read_text().splitlines()
    names = lines[0].split(",")
    kept = []
    for line in lines:
        if line.startswith(drop + ","):
            continue
        cells = line.split(",")
        for start, column in blank:
            if line.startswith(start + ","):
                cells[names.index(column)] = ""
        kept.append(",".join(cells))
    assert len(kept) == len(lines) - 1
    target.write_text("\n".join(kept) + "\n")
    return target


def data_sha256(path):
    """sha256 of a table's data lines: the ``#`` header dropped, so that a version bump does not move it."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return hashlib.sha256("".join(line for line in lines if not line.startswith("#")).encode()).hexdigest()


class TestLabelBytes:
    # sha256 of the data lines of profiles.csv and lang_fractions.csv for the chain's posts
    # and friends. A change to how labels are decided must keep every residence, nationality
    # and fraction, and every tie, where it falls.
    PINNED = (
        "6fda4db05cbad3f892e5aef8fef253254f4b18bd0930db0e89d42cfd54708bcd",
        "d428e1ce51cb12fec4006db2fad6533c398154e407e8ef5a7fbca36d680471c7",
    )

    def test_label_bytes_are_pinned(self, chain_dir):
        digests = tuple(data_sha256(chain_dir / FILES[key]) for key in ("profiles", "lang_fractions"))
        assert digests == self.PINNED, (
            "profiles.csv or lang_fractions.csv changed for fixed posts and friends: a label or a fraction moved. "
            "Never re-pin these digests without comparing the files with those the unchanged code writes"
        )


class TestCorrelationBytes:
    # sha256 of the data lines of correlations_individual.csv and correlations_grouped.csv
    # for the chain's scores, the # header dropped so that a version bump does not move
    # them. A refactor of the join or of the group means must keep every r and p to the bit.
    PINNED = {
        "default": (
            "6b66c8d008aeaeec424d0ca2062195b9294836becee29a78f687ea30bd696465",
            "6748ee0d5a32d7b7eb21090458494e6edb7198d6f216910d89556c88862d3fa8",
        ),
        "signed": (
            "41e74f2cfe32eaf762919c4b5d4cbd6391e15e2d9bd8559bc518d7e1a2e660d2",
            "5a3780ab2ecc8dbd1b6aab0c5f1bd09c80180c2447a7186efdc8dfbab5e414d1",
        ),
        "holed": (
            "694026652a030e2fb3d04880789697d5d89eb104681a7312889f159cf6b56815",
            "71e452d924d76db47bd98e71c2d34add914d5a5d007df4c198735eb4b46c2e9d",
        ),
    }

    @pytest.mark.parametrize("setting", PINNED)
    def test_correlation_bytes_are_pinned(self, chain_dir, tmp_path, capsys, setting):
        hofstede = packaged_data_path("hofstede.csv")
        pairs = chain_dir / FILES["pair_covariates"]
        if setting == "holed":
            hofstede = holed(hofstede, tmp_path / "hofstede.csv", "ES", [("IT", "ivr"), ("US", "pdi")])
            pairs = holed(pairs, tmp_path / "pairs.csv", "DE,ES", [("ES,US", "distcap"), ("IT,US", "cnl")])
        argv = ["--hofstede", hofstede, "--pair-covariates", pairs, "--min-group-size", 2]
        argv += ["--signed-deltas"] if setting == "signed" else []
        assert run("correlate", "--out", tmp_path, "--scores", chain_dir / FILES["scores"], *argv) == 0
        digests = tuple(data_sha256(tmp_path / FILES[key]) for key in ("correlations_individual", "correlations_grouped"))
        assert digests == self.PINNED[setting], (
            "the correlation files changed for fixed scores and covariates: an r, a p-value or a row moved. "
            "A change of summation order does this; never re-pin these digests without comparing the files "
            "with those the unchanged code writes"
        )
        if setting == "holed":  # the NaN paths are taken: a user dropped, a covariate some joined users lack
            printed = re.match(r"correlated (\d+) users \((\d+) dropped\)", capsys.readouterr().out)
            joined, dropped = map(int, printed.groups())
            assert dropped >= 1
            rows = read_table(tmp_path / FILES["correlations_individual"], CORRELATION_COLUMNS)
            assert any(row["n"] < joined for row in rows)


class TestMissingPrerequisites:
    def test_label_without_posts(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("label", "--out", tmp_path)
        assert exc.value.code == 2
        assert "run `homedest synth` first" in capsys.readouterr().err

    def test_stats_without_scores(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("stats", "--out", tmp_path)
        assert exc.value.code == 2
        assert "run `homedest score` first" in capsys.readouterr().err

    def test_score_without_atlas(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        assert run("label", "--out", tmp_path) == 0
        with pytest.raises(SystemExit) as exc:
            run("score", "--out", tmp_path)
        assert exc.value.code == 2
        assert "run `homedest atlas` first" in capsys.readouterr().err


    @pytest.mark.parametrize("junk", [None, "user_id,lang,fraction\nnobody,xx,half\nnobody,xx,7.5\n"], ids=["absent", "junk"])
    def test_score_reads_no_lang_fractions(self, chain_dir, tmp_path, junk):
        # score counts each migrant's language shares from the posts, so label's record of them is not an input.
        for key in ("posts", "profiles", "atlas"):
            shutil.copy(chain_dir / FILES[key], tmp_path / FILES[key])
        if junk is not None:
            (tmp_path / FILES["lang_fractions"]).write_text(junk)
        assert run("score", "--out", tmp_path) == 0
        assert (tmp_path / FILES["scores"]).read_bytes() == (chain_dir / FILES["scores"]).read_bytes()

    def test_correlate_with_missing_hofstede(self, chain_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("correlate", "--out", chain_dir, "--hofstede", tmp_path / "nope.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'nope.csv'} not found\n"

    @pytest.mark.parametrize(
        "command, key, producer",
        [("correlate", "pair_covariates", "synth"), ("report", "null_scores", "null")],
    )
    def test_optional_input_named_by_a_flag_must_exist(self, chain_dir, tmp_path, capsys, command, key, producer):
        # Only an optional input's workspace default may be absent; a file a flag names is read or refused.
        copied = sorted(FILES[name] for name in ("profiles", "atlas", "scores"))
        for name in copied:
            shutil.copy(chain_dir / name, tmp_path / name)
        missing = tmp_path / "typo.csv"
        with pytest.raises(SystemExit) as exc:
            run(command, "--out", tmp_path, f"--{key.replace('_', '-')}", missing)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {missing} not found; run `homedest {producer}` first\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == copied  # nothing written


class TestBadInput:
    @staticmethod
    def exit_2_stderr(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_friends_with_wrong_columns(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        friends = tmp_path / FILES["friends"]
        edges = friends.read_text().splitlines(keepends=True)[1:]
        friends.write_text("follower,followed\n" + "".join(edges))
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path)
        assert "friends.csv: missing column(s) user_id, friend_id" in err

    def test_profiles_without_migrant_flag(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        assert run("label", "--out", tmp_path) == 0
        profiles = tmp_path / FILES["profiles"]
        profiles.write_text(profiles.read_text().replace(",is_migrant\n", ",migrant\n"))
        err = self.exit_2_stderr(capsys, "atlas", "--out", tmp_path)
        assert "profiles.csv: missing column(s) is_migrant" in err

    def test_no_loadable_posts(self, tmp_path, capsys):
        record = {"user_id": "u1", "timestamp": "2018-03-01T12:00:00Z", "country": "IT"}
        (tmp_path / FILES["posts"]).write_text((json.dumps(record) + "\n") * 3)
        (tmp_path / FILES["friends"]).write_text("user_id,friend_id\n")
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path)
        assert "error: no posts loaded from" in err
        assert "posts.jsonl: 3 lines, 3 skipped" in err


    def test_label_without_a_user_to_score(self, tmp_path, capsys):
        posts = [
            {"user_id": "u1", "ts": "2018-03-01T12:00:00Z", "cc": "IT"},
            {"user_id": "u1", "ts": "2018-03-02T12:00:00Z", "cc": "DE"},
            {"user_id": "u2", "ts": "2017-05-01T12:00:00Z", "cc": "FR"},
            {"user_id": "u3", "ts": "2018-05-01T12:00:00Z", "tags": ["roma"]},
        ]
        (tmp_path / FILES["posts"]).write_text("".join(json.dumps(post) + "\n" for post in posts))
        (tmp_path / FILES["friends"]).write_text("user_id,friend_id\nu3,u2\n")
        assert run("label", "--out", tmp_path) == 0  # u1 has both countries in 2018
        for output in ("profiles", "lang_fractions"):
            (tmp_path / FILES[output]).unlink()
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path, "--year", 1990)
        assert err == (
            "error: no user has both a residence in 1990 and a nationality: "
            "3 users: 0 with a residence, 3 with a nationality, 0 with both, 0 migrants\n"
        )
        assert not any((tmp_path / FILES[output]).exists() for output in ("profiles", "lang_fractions"))

    def test_entropy_threshold_out_of_range(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        assert run("label", "--out", tmp_path) == 0
        err = self.exit_2_stderr(capsys, "atlas", "--out", tmp_path, "--entropy-threshold", 2)
        assert err.startswith("error: --entropy-threshold must lie in [0, 1], got 2.0")
        assert not (tmp_path / FILES["atlas"]).exists()

    def test_zero_replicates(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replicates": 0}))
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--config", cfg)
        assert err.startswith("error: --replicates must be at least 1, got 0")
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--replicates", 0)
        assert err.startswith("error: --replicates must be at least 1, got 0")

    def test_unknown_shuffle_population_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shuffle_population": "none"}))
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--config", cfg)  # no input in tmp_path
        assert err == 'error: --shuffle-population must be one of scored, all, got "none"\n'

    def test_negative_null_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3}))
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--config", cfg)
        assert err.startswith("error: --seed must be at least 0, got -3")
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--seed", -3)
        assert err.startswith("error: --seed must be at least 0, got -3")

    @pytest.mark.parametrize("command", ["score"])
    def test_min_hashtags_below_one(self, tmp_path, capsys, command):
        for value in (0, -3):
            err = self.exit_2_stderr(capsys, command, "--out", tmp_path, "--min-hashtags", value)
            assert err.startswith(f"error: --min-hashtags must be at least 1, got {value}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_hashtags": 0}))
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, "--config", cfg)
        assert err.startswith("error: --min-hashtags must be at least 1, got 0")

    def test_min_group_size_below_one(self, tmp_path, capsys):
        for value in (0, -5):
            err = self.exit_2_stderr(capsys, "correlate", "--out", tmp_path, "--min-group-size", value)
            assert err.startswith(f"error: --min-group-size must be at least 1, got {value}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_group_size": 0}))
        err = self.exit_2_stderr(capsys, "correlate", "--out", tmp_path, "--config", cfg)
        assert err.startswith("error: --min-group-size must be at least 1, got 0")

    def test_atlas_without_a_country_tag(self, chain_dir, tmp_path, capsys):
        inputs = ["--posts", chain_dir / FILES["posts"], "--profiles", chain_dir / FILES["profiles"]]
        err = self.exit_2_stderr(capsys, "atlas", "--out", tmp_path, *inputs, "--year", 2017)
        assert err == "error: no hashtag of 2017 is assigned to a country: 0 hashtags, 0 international\n"
        assert not (tmp_path / FILES["atlas"]).exists()

    @pytest.mark.parametrize("international", [False, True], ids=["header-only", "all-international"])
    def test_score_without_a_home_or_destination_use(self, chain_dir, tmp_path, capsys, international):
        shutil.copy(chain_dir / FILES["profiles"], tmp_path / FILES["profiles"])
        lines = (chain_dir / FILES["atlas"]).read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]] if international else []
        atlas = tmp_path / FILES["atlas"]
        atlas.write_text("\n".join(lines[:2] + [",".join([r[0], "international", *r[2:]]) for r in rows]) + "\n")
        err = self.exit_2_stderr(capsys, "score", "--out", tmp_path, "--posts", chain_dir / FILES["posts"])
        assert err.startswith(f"error: {atlas}: no hashtag use of the ") and err.count("\n") == 1
        assert "assigned to their home or destination; atlas coverage of their " in err
        assert re.search(r" uses in 2018: 0 home, 0 destination, 0 other country, \d+ international, \d+ not in the atlas$", err)
        assert not (tmp_path / FILES["scores"]).exists()

    def test_correlate_without_a_covered_pair(self, chain_dir, tmp_path, capsys):
        shutil.copy(chain_dir / FILES["scores"], tmp_path / FILES["scores"])
        n_scores = len(read_scores(tmp_path / FILES["scores"]))
        hofstede = tmp_path / "hofstede.csv"
        hofstede.write_text("country,pdi,idv,mas,uai,lto,ivr\nXX,10,20,30,40,50,60\n")
        err = self.exit_2_stderr(capsys, "correlate", "--out", tmp_path, "--hofstede", hofstede)
        assert err == f"error: fewer than 3 users joined to any covariate: 0 joined, {n_scores} dropped\n"
        assert not (tmp_path / FILES["correlations_individual"]).exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--users", 0], "--users must be at least 1, got 0"),
            (["--noise", 2], "--noise must lie in [0, 1], got 2.0"),
            (["--tags-min", 50, "--tags-max", 10], "tags_per_user must be an increasing positive range"),
            (["--countries", "de,DE"], "countries must be distinct"),
            (["--countries", "IT,DE,ZZ"], "countries must be upper-case ISO alpha-2 codes, got ZZ"),
            (["--seed", -1], "--seed must be at least 0, got -1"),
            (["--year", 1970], "year must lie in [1971, 2099], got 1970"),
            (["--year", 2100], "year must lie in [1971, 2099], got 2100"),
            (["--year", 0], "year must lie in [1971, 2099], got 0"),
        ],
    )
    def test_bad_synth_spec(self, tmp_path, capsys, argv, message):
        err = self.exit_2_stderr(capsys, "synth", "--out", tmp_path, *argv)
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / FILES["posts"]).exists()

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("abc", "line 2: column pdi holds 'abc', expected a number, or empty"),
            ("150", "line 2: country AR breaks the rule pdi is empty or in [0, 120]"),
        ],
    )
    def test_bad_hofstede_cell(self, chain_dir, tmp_path, capsys, cell, message):
        table = tmp_path / "hofstede.csv"
        table.write_text(packaged_data_path("hofstede.csv").read_text().replace("\nAR,49,", f"\nAR,{cell},"))
        err = self.exit_2_stderr(capsys, "correlate", "--out", chain_dir, "--hofstede", table)
        assert err.startswith(f"error: {table}: {message}")

    def test_stats_on_a_short_scores_row(self, chain_dir, tmp_path, capsys):
        lines = (chain_dir / FILES["scores"]).read_text().splitlines(keepends=True)
        scores = tmp_path / FILES["scores"]
        scores.write_text("".join(lines[:-1]) + lines[-1].rpartition(",")[0] + "\n")
        err = self.exit_2_stderr(capsys, "stats", "--out", tmp_path, "--null-scores", chain_dir / FILES["null_scores"])
        assert err == f"error: {scores}: line {len(lines)} has 9 cells, expected 10\n"

    @pytest.mark.parametrize("command", ["stats", "correlate", "report"])
    def test_non_finite_score(self, chain_dir, tmp_path, capsys, command):
        line = copy_chain(chain_dir, tmp_path, cells=lambda i: {"ha": "nan"} if i == 0 else {})
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path)
        assert err == f"error: {tmp_path / FILES['scores']}: line {line}: column ha holds 'nan', expected a number\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["stats", "report"])
    @pytest.mark.parametrize(
        "cells, rule",
        [({"ha": "1.5"}, "0 <= ha <= 1"), ({"da": "-0.1"}, "0 <= da <= 1"), ({"ha": "0.75", "da": "0.5"}, "ha + da <= 1")],
    )
    def test_null_row_outside_the_rules(self, chain_dir, tmp_path, capsys, command, cells, rule):
        copy_chain(chain_dir, tmp_path)
        null = tmp_path / FILES["null_scores"]
        lines = null.read_text().splitlines()
        names, row = lines[1].split(","), lines[-1].split(",")
        for name, text in cells.items():
            row[names.index(name)] = text
        null.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path)
        assert err == f"error: {null}: line {len(lines)}: breaks the rule {rule}\n"
        assert not (tmp_path / FILES["test_results"]).exists() and not (tmp_path / "report").exists()

    def test_report_on_header_only_scores(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path, n_rows=0)
        err = self.exit_2_stderr(capsys, "report", "--out", tmp_path)
        assert err == f"error: {tmp_path / FILES['scores']}: no scores to report\n"
        assert not (tmp_path / "report").exists()

    def test_report_on_header_only_null_scores(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path)
        null = tmp_path / FILES["null_scores"]
        lines = null.read_text().splitlines(keepends=True)
        null.write_text("".join(line for line in lines if line.startswith(("#", "user_id,"))))
        err = self.exit_2_stderr(capsys, "report", "--out", tmp_path)
        assert err == f"error: {null}: no null scores to report\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("key, message", [("profiles", "no profiles to report"), ("atlas", "no hashtags to report")])
    def test_report_on_header_only_table(self, chain_dir, tmp_path, capsys, key, message):
        copy_chain(chain_dir, tmp_path)
        table = tmp_path / FILES[key]
        lines = table.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))  # the column row
        table.write_text("".join(lines[: first + 1]))
        err = self.exit_2_stderr(capsys, "report", "--out", tmp_path)
        assert err == f"error: {table}: {message}\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["stats", "report"])
    def test_null_of_the_migrants_of_an_earlier_score(self, chain_dir, tmp_path, capsys, command):
        """``null``, then ``score`` with a higher --min-hashtags: the null table holds other migrants."""
        shutil.copytree(chain_dir, tmp_path, dirs_exist_ok=True)
        shutil.rmtree(tmp_path / "report")
        (tmp_path / FILES["test_results"]).unlink()
        scores, null = tmp_path / FILES["scores"], tmp_path / FILES["null_scores"]
        counts = sorted(s.n_hashtags for s in read_scores(scores))
        assert run("score", "--out", tmp_path, "--min-hashtags", counts[len(counts) // 2]) == 0
        n_scored = len(read_scores(scores))
        assert 0 < n_scored < len(counts)
        capsys.readouterr()
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path)
        assert err == (
            f"error: {null}: its {2 * len(counts)} rows are not whole replicate blocks of the {n_scored} migrants "
            f"of {scores}, in their order: run `homedest null` again\n"
        )
        assert not (tmp_path / FILES["test_results"]).exists() and not (tmp_path / "report").exists()

    def test_null_on_header_only_scores(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path, n_rows=0)
        (tmp_path / FILES["null_scores"]).unlink()
        err = self.exit_2_stderr(capsys, "null", "--out", tmp_path, "--posts", chain_dir / FILES["posts"])
        assert err == f"error: {tmp_path / FILES['scores']}: no scores to shuffle\n"
        assert not (tmp_path / FILES["null_scores"]).exists()

    @pytest.mark.parametrize("command", ["stats", "correlate", "report", "null"])
    def test_repeated_scores_row(self, chain_dir, tmp_path, capsys, command):
        copy_chain(chain_dir, tmp_path)
        scores = tmp_path / FILES["scores"]
        lines = scores.read_text().splitlines()
        with scores.open("a") as handle:
            handle.write(lines[-1] + "\n")
        posts = []
        if command == "null":
            (tmp_path / FILES["null_scores"]).unlink()
            posts = ["--posts", chain_dir / FILES["posts"]]
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, *posts)
        user = lines[-1].split(",")[0]
        assert err == f"error: {scores}: line {len(lines) + 1}: user_id {user} repeats line {len(lines)}\n"
        assert (tmp_path / FILES["null_scores"]).exists() == (command != "null")
        assert not (tmp_path / "report").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["null", "stats", "correlate", "report"])
    def test_scores_row_whose_counts_cannot_be_a_score(self, chain_dir, tmp_path, capsys, command):
        copy_chain(chain_dir, tmp_path)
        scores = tmp_path / FILES["scores"]
        line = len(scores.read_text().splitlines()) + 1
        with scores.open("a") as handle:
            handle.write("zz_nobody,IT,DE,0.0,0.0,0,0,0,,\n")
        posts = []
        if command == "null":
            (tmp_path / FILES["null_scores"]).unlink()
            posts = ["--posts", chain_dir / FILES["posts"]]
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, *posts)
        assert err == f"error: {scores}: line {line}: user_id zz_nobody breaks the rule n_hashtags >= 1\n"
        assert (tmp_path / FILES["null_scores"]).exists() == (command != "null")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["atlas", "report"])
    def test_repeated_profiles_row(self, chain_dir, tmp_path, capsys, command):
        copy_chain(chain_dir, tmp_path)
        profiles = tmp_path / FILES["profiles"]
        lines = profiles.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        user = lines[first].split(",")[0]
        profiles.write_text("\n".join(lines + [lines[first]]) + "\n")
        posts = ["--posts", chain_dir / FILES["posts"]] if command == "atlas" else []
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, *posts)
        assert err == f"error: {profiles}: line {len(lines) + 1}: user_id {user} repeats line {first + 1}\n"

    @pytest.mark.parametrize(
        "command, row",
        [
            ("atlas", "{user},DE,,false"),
            ("atlas", "{user},DE,IT,false"),
            ("report", "{user},,IT,true"),
            ("report", "{user},DE,DE,true"),
        ],
    )
    def test_profile_whose_migrant_flag_does_not_fit_its_countries(self, chain_dir, tmp_path, capsys, command, row):
        copy_chain(chain_dir, tmp_path)
        profiles = tmp_path / FILES["profiles"]
        lines = profiles.read_text().splitlines()
        user = lines[-1].split(",")[0]
        profiles.write_text("\n".join(lines[:-1] + [row.format(user=user)]) + "\n")
        posts = ["--posts", chain_dir / FILES["posts"]] if command == "atlas" else []
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, *posts)
        rule = "is_migrant is empty without both countries, else residence != nationality"
        assert err == f"error: {profiles}: line {len(lines)}: user_id {user} breaks the rule {rule}\n"

    @pytest.mark.parametrize(
        "n_rows, cells, no_null_rows, message",
        [
            (None, {}, True, "cannot test ha_vs_null on {n} and 0 values: samples must be nonempty"),
            (2, {}, False, "cannot test ha_vs_da on 2 and 2 values: need at least 3 pairs"),
            (None, {"n_home": "0", "ha": "0.0"}, False, "cannot test ha_vs_da on {n} and {n} values: zero variance sample"),
        ],
        ids=["header-only null scores", "two scores", "constant ha"],
    )
    def test_stats_on_samples_it_cannot_test(self, chain_dir, tmp_path, capsys, n_rows, cells, no_null_rows, message):
        copy_chain(chain_dir, tmp_path, cells=lambda i: cells, n_rows=n_rows)
        null_scores = tmp_path / FILES["null_scores"]
        if no_null_rows:
            lines = null_scores.read_text().splitlines(keepends=True)
            null_scores.write_text("".join(line for line in lines if line.startswith(("#", "user_id,"))))
        n = len(read_scores(tmp_path / FILES["scores"]))
        err = self.exit_2_stderr(capsys, "stats", "--out", tmp_path)
        assert err == f"error: {message.format(n=n)}\n"
        assert not (tmp_path / FILES["test_results"]).exists()

    @pytest.mark.parametrize("command", ["score", "null", "report"])
    def test_atlas_entropy_above_1(self, chain_dir, tmp_path, capsys, command):
        copy_chain(chain_dir, tmp_path)
        outputs = [tmp_path / FILES[key] for key in COMMANDS[command].outputs] + [tmp_path / "report"]
        for path in outputs:
            path.unlink(missing_ok=True)
        atlas = tmp_path / FILES["atlas"]
        lines = atlas.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1  # the first data row
        row = lines[at].split(",")
        row[lines[at - 1].split(",").index("entropy")] = "7.5"
        lines[at] = ",".join(row)
        atlas.write_text("\n".join(lines) + "\n")
        posts = ["--posts", chain_dir / FILES["posts"]] if command != "report" else []
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, *posts)
        assert err == f"error: {atlas}: line {at + 1}: token {row[0]} breaks the rule 0 <= entropy <= 1\n"
        assert not any(path.exists() for path in outputs)

    def test_correlate_skips_a_constant_ha(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path, cells=lambda i: {"n_home": "0", "ha": "0.0"})
        assert run("correlate", "--out", tmp_path, "--min-group-size", 2) == 0
        for key in ("correlations_individual", "correlations_grouped"):
            lines = [line for line in (tmp_path / FILES[key]).read_text().splitlines() if not line.startswith("#")]
            targets = {line.split(",")[0] for line in lines[1:]}
            assert targets == {"da"}, key

    def test_correlate_with_every_group_below_the_minimum(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path)
        assert run("correlate", "--out", tmp_path, "--min-group-size", 1000) == 0
        err = capsys.readouterr().err
        assert err == "grouped correlations skipped: need at least 3 groups of 1000+ users for ha, got 0\n"
        grouped = read_table(tmp_path / FILES["correlations_grouped"], CORRELATION_COLUMNS)
        individual = read_table(tmp_path / FILES["correlations_individual"], CORRELATION_COLUMNS)
        assert list(grouped) == [] and len(list(individual)) > 0

    def test_hofstede_is_a_directory(self, chain_dir, tmp_path, capsys):
        err = self.exit_2_stderr(capsys, "correlate", "--out", chain_dir, "--hofstede", tmp_path)
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err

    def test_posts_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "posts").mkdir()
        (tmp_path / FILES["friends"]).write_text("user_id,friend_id\n")
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path, "--posts", tmp_path / "posts")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / "posts") in err

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path / "file")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / "file") in err

    def test_friends_not_utf8(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        friends = tmp_path / FILES["friends"]
        friends.write_bytes(b"user_id,friend_id\nu1,caf\xe9\n")
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path)
        assert err == f"error: {friends}: not UTF-8\n"

    def test_skip_reasons_named_when_nothing_loads(self, tmp_path, capsys):
        good = {"user_id": "u1", "ts": "2018-03-01T12:00:00Z", "cc": "IT"}
        lines = ["{broken", json.dumps({**good, "cc": "ZZ"}), json.dumps({**good, "ts": "2018-02-30T12:00:00Z"})]
        (tmp_path / FILES["posts"]).write_text("\n".join(lines + lines[1:2]) + "\n")
        (tmp_path / FILES["friends"]).write_text("user_id,friend_id\n")
        err = self.exit_2_stderr(capsys, "label", "--out", tmp_path)
        assert "posts.jsonl: 4 lines, 4 skipped (bad JSON 1, first at line(s) 1; bad ts 1, first at line(s) 3; bad cc 2, first at line(s) 2, 4)" in err

    def test_score_prints_the_language_cohorts(self, tmp_path, capsys):
        # Iceland is not in the bundled language table, so its residents stay unclassified.
        assert run("synth", "--out", tmp_path, "--users", 300, "--countries", "de,it,is", "--seed", 2) == 0
        for step in ("label", "atlas"):
            assert run(step, "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("score", "--out", tmp_path) == 0
        scored, _, cohorts = capsys.readouterr().out.splitlines()  # the middle line is the atlas coverage
        scores = read_scores(tmp_path / FILES["scores"])
        speakers = sum(s.speaks_dest_lang is True for s in scores)
        non_speakers = sum(s.speaks_dest_lang is False for s in scores)
        missing = sum(s.residence == "IS" for s in scores)
        assert scored.startswith(f"scored {len(scores)} migrants")
        assert missing and speakers and non_speakers
        assert cohorts == (
            f"language cohorts: {speakers} speakers, {non_speakers} non-speakers, "
            f"{len(scores) - speakers - non_speakers} unclassified, of which {missing} "
            "with a residence missing from the language table and 0 with no language-tagged post"
        )

    def test_score_leaves_migrants_without_language_tags_unclassified(self, tmp_path, capsys):
        # The input format lets a post omit lang; a migrant with no language-tagged post has no share to test.
        assert run("synth", "--out", tmp_path, "--users", 400, "--seed", 3) == 0
        posts = tmp_path / FILES["posts"]
        records = [json.loads(line) for line in posts.read_text().splitlines()]
        posts.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "lang"}) + "\n" for r in records))
        for step in ("label", "atlas"):
            assert run(step, "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("score", "--out", tmp_path) == 0
        scores = read_scores(tmp_path / FILES["scores"])
        assert scores and all(s.speaks_dest_lang is None for s in scores)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"language cohorts: 0 speakers, 0 non-speakers, {len(scores)} unclassified, of which 0 "
            f"with a residence missing from the language table and {len(scores)} with no language-tagged post"
        )

    def test_score_prints_the_volume_filter_funnel(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 1000, "--seed", 42) == 0
        for step in ("label", "atlas"):
            assert run(step, "--out", tmp_path) == 0
        capsys.readouterr()
        assert run("score", "--out", tmp_path, "--min-hashtags", 40) == 0
        scored = capsys.readouterr().out.splitlines()[0]
        assert scored.startswith("scored 45 migrants of 100 labelled, 55 below --min-hashtags 40 (median splits ")
        assert len(read_scores(tmp_path / FILES["scores"])) == 45
        err = self.exit_2_stderr(capsys, "score", "--out", tmp_path, "--min-hashtags", 10**6)
        assert err == "error: none of 100 labelled migrants passed the hashtag volume filter (--min-hashtags 1000000)\n"

    def test_label_prints_the_funnel(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        posts = tmp_path / FILES["posts"]
        lines = posts.read_text().splitlines()
        lines[1] = lines[1].replace('"ts": "', '"ts": "x')
        posts.write_text("\n".join(lines + ["[]"]) + "\n")
        capsys.readouterr()
        assert run("label", "--out", tmp_path) == 0
        funnel = capsys.readouterr().out.splitlines()[0]
        n = len(lines) + 1
        assert funnel == (
            f"posts: {n} lines, {n - 2} loaded, 2 skipped "
            f"(bad JSON 1, first at line(s) {n}; bad ts 1, first at line(s) 2)"
        )
        assert run("label", "--out", tmp_path) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"posts: {n - 2} loaded from corpus.npz"


    def test_label_prints_the_friends_funnel(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        rows = ["a,b", "a,b", "b,a", "a,a", " c , a ", "b,", ",c", " ,a", "c,a"]
        (tmp_path / FILES["friends"]).write_text("user_id,friend_id\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert run("label", "--out", tmp_path) == 0
        funnel = capsys.readouterr().out.splitlines()[1:3]
        assert funnel[0] == "friends: 3 edges, 2 duplicates, 1 self-loops and 3 rows with an empty id dropped"
        assert funnel[1] == "friend edges: 3 of 3 have an end with no posts and carry no evidence"  # a, b and c post nothing

@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    """A synthetic workspace after `label`, holding the corpus cache."""
    out = tmp_path_factory.mktemp("labeled")
    assert run("synth", "--out", out, "--users", 200, "--seed", 3) == 0
    assert run("label", "--out", out) == 0
    return out


class TestLabelFunnel:
    def test_printed_counts_are_those_of_profiles_csv(self, labeled, tmp_path, capsys):
        ws = shutil.copytree(labeled, tmp_path / "ws")
        with open(ws / FILES["posts"], "a", encoding="utf-8") as posts:  # one user without a geotag, one without 2018's
            posts.write('{"user_id": "nogeo", "ts": "2018-03-01T12:00:00Z", "cc": null}\n')
            posts.write('{"user_id": "gone", "ts": "2016-03-01T12:00:00Z", "cc": "IT"}\n')
        capsys.readouterr()
        assert run("label", "--out", ws) == 0
        profiles = read_profiles(ws / FILES["profiles"]).values()
        residence = sum(p.residence is not None for p in profiles)
        nationality = sum(p.nationality is not None for p in profiles)
        both = sum(p.residence is not None and p.nationality is not None for p in profiles)
        migrants = sum(p.is_migrant is True for p in profiles)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"labeled {len(profiles)} users: {residence} with a residence, {nationality} with a nationality, "
            f"{both} with both, {migrants} migrants"
        )


def test_score_prints_the_atlas_coverage(labeled, tmp_path, capsys):
    ws = shutil.copytree(labeled, tmp_path / "ws")
    assert run("atlas", "--out", ws) == 0
    capsys.readouterr()
    assert run("score", "--out", ws) == 0
    printed = capsys.readouterr().out.splitlines()[1]
    match = re.fullmatch(
        r"atlas coverage of their (\d+) uses in 2018: (\d+) home, (\d+) destination, (\d+) other country, "
        r"(\d+) international, (\d+) not in the atlas",
        printed,
    )
    total, home, dest, *rest = map(int, match.groups())
    scores = read_scores(ws / FILES["scores"])
    assert total == home + dest + sum(rest) == sum(s.n_hashtags for s in scores)
    assert (home, dest) == (sum(s.n_home for s in scores), sum(s.n_dest for s in scores))


class TestNullScoresOracle:
    """The null rows written by `null` are those of scoring each replicate's shuffled posts."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("small")
        assert run("synth", "--out", out, "--users", 300, "--countries", "de,es,it,fr", "--seed", 8) == 0
        assert run("label", "--out", out) == 0
        assert run("atlas", "--out", out) == 0
        return out

    @pytest.mark.parametrize("population", ["scored", "all"])
    @pytest.mark.parametrize("min_hashtags", [10, 30])
    def test_rows_equal_the_rescored_shuffles(self, small, tmp_path, population, min_hashtags):
        ws = shutil.copytree(small, tmp_path / "ws")
        seed, replicates, year = 4, 3, 2018
        argv = ["--replicates", replicates, "--seed", seed, "--shuffle-population", population]
        assert run("score", "--out", ws, "--min-hashtags", min_hashtags) == 0
        assert run("null", "--out", ws, *argv) == 0

        posts = list(iter_posts(ws / FILES["posts"]))
        profiles, atlas = read_profiles(ws / FILES["profiles"]), read_atlas(ws / FILES["atlas"])
        corpus = Corpus.from_posts(posts)
        real = compute_scores(corpus, profiles, atlas, year, min_hashtags=min_hashtags)
        if min_hashtags > 10:  # the filter drops some migrants that have uses
            assert len(real) < len(compute_scores(corpus, profiles, atlas, year, min_hashtags=1))
        users = {s.user_id for s in real} if population == "scored" else None
        rows = []
        for index in range(replicates):
            shuffled = shuffle_hashtags(posts, seed + index, year=year, users=users)
            scores0 = compute_scores(Corpus.from_posts(shuffled), profiles, atlas, year, min_hashtags=min_hashtags)
            rows += [(*s, index) for s in scores0]
        written = (ws / FILES["null_scores"]).read_text()
        header = [line[2:] for line in written.splitlines() if line.startswith("# ")]
        write_table(tmp_path / "expected.csv", NULL_SCORE_COLUMNS, rows, header)
        assert written == (tmp_path / "expected.csv").read_text()
        assert written.splitlines()[len(header)].endswith(",replicate")
        assert len(rows) == replicates * len(real)


class TestNullFitsScores:
    """`null` shuffles the migrants of scores.csv, and refuses a scores file that its inputs do not give."""

    @pytest.fixture(scope="class")
    def scored(self, labeled, tmp_path_factory):
        ws = shutil.copytree(labeled, tmp_path_factory.mktemp("scored") / "ws")
        assert run("atlas", "--out", ws) == 0
        assert run("score", "--out", ws) == 0
        return ws

    def test_null_shuffles_the_migrants_of_scores(self, scored, tmp_path):
        ws = shutil.copytree(scored, tmp_path / "ws")
        n_default = len(read_scores(ws / FILES["scores"]))
        assert run("score", "--out", ws, "--min-hashtags", 40) == 0
        user_ids = [s.user_id for s in read_scores(ws / FILES["scores"])]
        assert 0 < len(user_ids) < n_default
        assert run("null", "--out", ws, "--replicates", 3) == 0
        rows = list(read_table(ws / FILES["null_scores"], {"user_id": str, "replicate": int}))
        assert [r["user_id"] for r in rows] == user_ids * 3
        assert [r["replicate"] for r in rows] == [i for i in range(3) for _ in user_ids]

    def test_null_refuses_a_changed_count(self, scored, tmp_path, capsys):
        ws = shutil.copytree(scored, tmp_path / "ws")
        scores = ws / FILES["scores"]
        lines = scores.read_text().splitlines()
        names = next(line for line in lines if not line.startswith("#")).split(",")
        row = lines[-1].split(",")
        n_home, n_dest, n_hashtags = (int(row[names.index(name)]) for name in ("n_home", "n_dest", "n_hashtags"))
        n_home += 1 if n_home + n_dest < n_hashtags else -1  # the way that keeps the count rules
        row[names.index("n_home")] = str(n_home)
        row[names.index("ha")] = repr(n_home / n_hashtags)
        scores.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
        err = TestBadInput.exit_2_stderr(capsys, "null", "--out", ws)
        assert err.startswith(f"error: {scores}: user_id {row[0]}: its row holds n_hashtags, n_home, n_dest")
        assert err.count("\n") == 1
        assert not (ws / FILES["null_scores"]).exists()

    def test_null_for_another_year(self, scored, tmp_path, capsys):
        ws = shutil.copytree(scored, tmp_path / "ws")
        err = TestBadInput.exit_2_stderr(capsys, "null", "--out", ws, "--year", 2017)
        first = read_scores(ws / FILES["scores"])[0].user_id
        assert err.startswith(f"error: {ws / FILES['scores']}: user_id {first}: its row holds")
        assert "but the posts, atlas and year 2017 give" in err and err.count("\n") == 1
        assert not (ws / FILES["null_scores"]).exists()


class TestCorpusCache:
    @staticmethod
    def copy(workspace, out):
        shutil.copytree(workspace, out)
        return out

    def test_label_writes_the_cache(self, labeled):
        cache = labeled / FILES["corpus"]
        assert read_corpus(cache, file_sha256(labeled / FILES["posts"])) is not None

    def test_later_commands_do_not_parse_posts(self, labeled, tmp_path, monkeypatch):
        ws = self.copy(labeled, tmp_path / "ws")

        def no_parse(path):
            raise AssertionError(f"{path} parsed again")

        monkeypatch.setattr("homedest.cli.load_posts", no_parse)
        for step in (["atlas"], ["score"], ["null", "--replicates", 2]):
            assert run(*step, "--out", ws) == 0

    def test_stale_cache_rebuilt(self, labeled, tmp_path):
        ws = self.copy(labeled, tmp_path / "ws")
        assert run("atlas", "--out", ws) == 0
        before = (ws / FILES["atlas"]).read_bytes()
        posts = ws / FILES["posts"]
        lines = posts.read_text(encoding="utf-8").splitlines(keepends=True)
        posts.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        assert run("atlas", "--out", ws) == 0

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for key in ("posts", "profiles"):
            shutil.copyfile(ws / FILES[key], fresh / FILES[key])
        assert run("atlas", "--out", fresh) == 0
        after = (ws / FILES["atlas"]).read_bytes()
        assert after != before  # the rewrite changed the atlas, so the check can fail
        assert after == (fresh / FILES["atlas"]).read_bytes()
        assert (ws / FILES["corpus"]).read_bytes() == (fresh / FILES["corpus"]).read_bytes()

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_cache_rebuilt(self, labeled, tmp_path, damage):
        reference = self.copy(labeled, tmp_path / "reference")
        assert run("atlas", "--out", reference) == 0
        ws = self.copy(labeled, tmp_path / "ws")
        cache = ws / FILES["corpus"]
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:1000])
        else:
            cache.write_bytes(b"\x93NUMPY garbage" * 100)
        assert run("atlas", "--out", ws) == 0
        assert (ws / FILES["atlas"]).read_bytes() == (reference / FILES["atlas"]).read_bytes()
        assert cache.read_bytes() == (reference / FILES["corpus"]).read_bytes()

    def test_posts_outside_workspace(self, labeled, tmp_path):
        inputs = self.copy(labeled, tmp_path / "inputs")
        ws = tmp_path / "ws"
        posts = ["--posts", inputs / FILES["posts"]]
        assert run("label", "--out", ws, *posts, "--friends", inputs / FILES["friends"]) == 0
        for step in ("atlas", "score", "null"):
            assert run(step, "--out", ws, *posts) == 0
        assert not (ws / FILES["posts"]).exists()
        assert (ws / FILES["corpus"]).read_bytes() == (inputs / FILES["corpus"]).read_bytes()
        for step in ("atlas", "score"):
            assert run(step, "--out", inputs) == 0
        assert (ws / FILES["scores"]).read_bytes() == (inputs / FILES["scores"]).read_bytes()


# Runs the commands given as a JSON list of argument lists in one process. After
# the import and after each command it prints a JSON line: the step, its exit
# status and the scipy modules loaded so far. With "block", importing scipy fails.
CHAIN_PROBE = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"importing {name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, BlockScipy())
from homedest.cli import main

def report(step, status):
    print(json.dumps([step, status, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))

report("import", 0)
for argv in json.loads(sys.argv[2]):
    report(argv[0], main(argv))
"""


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_chain_probe(tmp_path, mode):
    """Every command in one subprocess; the (step, status, scipy modules) line of the import and each command."""
    ws = str(tmp_path)
    steps = [
        ["synth", "--out", ws, "--users", "120", "--seed", "5"],
        *([step, "--out", ws] for step in ("label", "atlas", "score")),
        ["null", "--out", ws, "--replicates", "2"],
        *([step, "--out", ws] for step in ("stats", "correlate", "report")),
    ]
    assert [s[0] for s in steps] == list(COMMANDS)
    result = subprocess.run(
        [sys.executable, "-c", CHAIN_PROBE, mode, json.dumps(steps)],
        env=source_env(), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.startswith('["')]
    assert [line[0] for line in lines] == ["import", *COMMANDS]
    return lines


def test_no_command_imports_scipy(tmp_path):
    """Every p-value is computed with numpy and math; importing scipy cost stats and correlate ~0.27 s and ~20 MB each (2-core host)."""
    for step, status, loaded in run_chain_probe(tmp_path, "watch"):
        assert (status, loaded) == (0, []), step


def test_importing_the_cli_loads_no_test_dependency():
    """numpy is the one runtime dependency: the test extras stay out of a command's process."""
    probe = "import json, sys, homedest.cli; print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"
    result = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "numpy" in loaded
    assert loaded & {"scipy", "mpmath", "hypothesis", "pytest", "_pytest"} == set()


def test_chain_runs_without_scipy(tmp_path):
    """With scipy unimportable, every command still exits 0 and writes its outputs."""
    for step, status, _ in run_chain_probe(tmp_path, "block"):
        assert status == 0, step
    assert (tmp_path / FILES["test_results"]).exists() and (tmp_path / FILES["correlations_grouped"]).exists()


def test_a_closed_stdout_exits_1_quietly(chain_dir, tmp_path):
    """A reader that has gone is not an input error: exit 1, nothing on stderr, and scores.csv as a normal run writes it."""
    for key in ("posts", "profiles", "atlas"):
        shutil.copy(chain_dir / FILES[key], tmp_path / FILES[key])
    proc = subprocess.Popen(
        [sys.executable, "-m", "homedest", "score", "--out", str(tmp_path)],
        env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes before the first line
    with proc.stderr:
        stderr = proc.stderr.read()
    assert (proc.wait(timeout=300), stderr) == (1, b"")
    assert (tmp_path / FILES["scores"]).read_bytes() == (chain_dir / FILES["scores"]).read_bytes()


class TestConfig:
    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"users": 300, "seed": 5}))
        assert run("synth", "--out", tmp_path, "--config", cfg, "--users", 200) == 0
        truth = read_ground_truth(tmp_path / FILES["ground_truth"])
        assert len(truth) == 200

    def test_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"users": 120}))
        assert run("synth", "--out", tmp_path, "--config", cfg) == 0
        truth = read_ground_truth(tmp_path / FILES["ground_truth"])
        assert len(truth) == 120

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SystemExit):
            run("synth", "--out", tmp_path, "--config", cfg)

    @pytest.mark.parametrize(
        "command, key, value, kind",
        [
            ("score", "min_hashtags", "ten", "an integer"),
            ("correlate", "signed_deltas", "false", "true or false"),
        ],
    )
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, command, key, value, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            run(command, "--out", tmp_path, "--config", cfg)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: config key {key} must be {kind}, got {json.dumps(value)}\n"

    def test_float_option_with_a_huge_integer(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"noise": 1' + "0" * 400 + "}")
        with pytest.raises(SystemExit) as exc:
            run("synth", "--out", tmp_path / "ws", "--config", cfg)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: --noise must lie in [0, 1], got 1000")
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: None, "cannot read config"),
            (lambda path: path.mkdir(), "cannot read config"),
            (lambda path: path.write_text("{users: 3}"), "is not JSON"),
            (lambda path: path.write_bytes(b'{"users": "caf\xe9"}'), "is not JSON"),
        ],
        ids=["missing", "directory", "not-json", "not-utf8"],
    )
    def test_broken_config_file(self, tmp_path, capsys, make, message):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        with pytest.raises(SystemExit) as exc:
            run("synth", "--out", tmp_path / "ws", "--config", cfg)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


# A config value of the wrong JSON type for each option type.
WRONG_TYPE = {int: 2.7, float: "0.5", bool: "false", str: 7}
OPTIONS = [(name, option) for name, command in COMMANDS.items() for option in command.options]


@pytest.mark.parametrize("name, option", OPTIONS, ids=[f"{n}-{o.name}" for n, o in OPTIONS])
class TestEveryOption:
    def test_help_lists_the_flag(self, capsys, name, option):
        with pytest.raises(SystemExit) as exc:
            run(name, "--help")
        assert exc.value.code == 0
        assert "--" + option.name.replace("_", "-") in capsys.readouterr().out

    def test_wrong_config_type_fails_before_any_input_is_read(self, tmp_path, capsys, name, option):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option.name: WRONG_TYPE[option.type]}))
        with pytest.raises(SystemExit) as exc:
            run(name, "--out", tmp_path / "empty", "--config", cfg)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {option.name} must be ") and "not found" not in err
        assert not (tmp_path / "empty").exists()


class TestDeterminism:
    def test_synth_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", out, "--users", 60, "--seed", 3) == 0
        for name in ("posts.jsonl", "friends.csv", "ground_truth.csv", "pair_covariates.csv"):
            da = hashlib.sha256((a / name).read_bytes()).hexdigest()
            db = hashlib.sha256((b / name).read_bytes()).hexdigest()
            assert da == db, name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
