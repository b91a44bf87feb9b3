"""End-to-end command-line behaviour, run in process via main()."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from homedest.attachment import read_scores
from homedest.cli import COMMANDS, FILES, REPORT_FILES, main
from homedest.corpus import file_sha256, read_corpus
from homedest.covariates import packaged_data_path
from homedest.synth import read_ground_truth


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


def copy_chain(chain_dir, out, ha=lambda i: None, n_rows=None):
    """The chain's tables in ``out``; scores keep ``n_rows`` data rows, row i's ha cell set to ``ha(i)`` unless None."""
    for key in ("profiles", "atlas", "null_scores", "pair_covariates"):
        shutil.copy(chain_dir / FILES[key], out / FILES[key])
    lines = (chain_dir / FILES["scores"]).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    column = lines[start - 1].split(",").index("ha")
    rows = [line.split(",") for line in lines[start:]][:n_rows]
    for i, row in enumerate(rows):
        row[column] = ha(i) or row[column]
    (out / FILES["scores"]).write_text("\n".join(lines[:start] + [",".join(row) for row in rows]) + "\n")
    return start + 1  # the line number of the first data row


class TestChain:
    def test_all_artifacts_exist(self, chain_dir):
        for name in FILES.values():
            assert (chain_dir / name).exists(), name
        for name in REPORT_FILES:
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
        n_migrants = sum(t.is_migrant for t in truth.values())
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
        assert sorted(p.name for p in (chain_dir / "report").iterdir()) == sorted(REPORT_FILES)

    def test_individual_correlations_include_score_pair(self, chain_dir):
        text = (chain_dir / FILES["correlations_individual"]).read_text()
        assert "ha,da,pearson" in text
        assert "ha,da,spearman" in text

    def test_report_without_null_scores(self, chain_dir, tmp_path):
        missing = tmp_path / "nope.csv"
        assert run("report", "--out", chain_dir, "--null-scores", missing) == 0
        text = (chain_dir / "report" / "attachment_distributions.csv").read_text()
        assert "ha_null" not in text
        # restore the full report for any test that runs after this one
        assert run("report", "--out", chain_dir) == 0


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


    def test_score_without_lang_fractions(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path, "--users", 40) == 0
        assert run("label", "--out", tmp_path) == 0
        assert run("atlas", "--out", tmp_path) == 0
        (tmp_path / FILES["lang_fractions"]).unlink()
        with pytest.raises(SystemExit) as exc:
            run("score", "--out", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "lang_fractions.csv not found" in err and "run `homedest label` first" in err

    def test_correlate_with_missing_hofstede(self, chain_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("correlate", "--out", chain_dir, "--hofstede", tmp_path / "nope.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'nope.csv'} not found\n"


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

    @pytest.mark.parametrize("command", ["score", "null"])
    def test_min_hashtags_below_one(self, tmp_path, capsys, command):
        for value in (0, -3):
            err = self.exit_2_stderr(capsys, command, "--out", tmp_path, "--min-hashtags", value)
            assert err.startswith(f"error: --min-hashtags must be at least 1, got {value}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_hashtags": 0}))
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path, "--config", cfg)
        assert err.startswith("error: --min-hashtags must be at least 1, got 0")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--users", 0], "--users must be at least 1, got 0"),
            (["--noise", 2], "--noise must lie in [0, 1], got 2.0"),
            (["--tags-min", 50, "--tags-max", 10], "tags_per_user must be an increasing positive range"),
            (["--countries", "de,DE"], "countries must be distinct"),
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
            ("150", "column pdi holds 150.0 for AR"),
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
        line = copy_chain(chain_dir, tmp_path, ha=lambda i: "nan" if i == 0 else None)
        err = self.exit_2_stderr(capsys, command, "--out", tmp_path)
        assert err == f"error: {tmp_path / FILES['scores']}: line {line}: column ha holds 'nan', expected a number\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "n_rows, ha, no_null_rows, message",
        [
            (None, None, True, "cannot test ha_vs_null on {n} and 0 values: samples must be nonempty"),
            (2, None, False, "cannot test ha_vs_da on 2 and 2 values: need at least 3 pairs"),
            (None, "0.25", False, "cannot test ha_vs_da on {n} and {n} values: zero variance sample"),
        ],
        ids=["header-only null scores", "two scores", "constant ha"],
    )
    def test_stats_on_samples_it_cannot_test(self, chain_dir, tmp_path, capsys, n_rows, ha, no_null_rows, message):
        copy_chain(chain_dir, tmp_path, ha=lambda i: ha, n_rows=n_rows)
        null_scores = tmp_path / FILES["null_scores"]
        if no_null_rows:
            lines = null_scores.read_text().splitlines(keepends=True)
            null_scores.write_text("".join(line for line in lines if line.startswith(("#", "user_id,"))))
        n = len(read_scores(tmp_path / FILES["scores"]))
        err = self.exit_2_stderr(capsys, "stats", "--out", tmp_path)
        assert err == f"error: {message.format(n=n)}\n"
        assert not (tmp_path / FILES["test_results"]).exists()

    def test_correlate_skips_a_constant_ha(self, chain_dir, tmp_path, capsys):
        copy_chain(chain_dir, tmp_path, ha=lambda i: "0.25")
        assert run("correlate", "--out", tmp_path, "--min-group-size", 2) == 0
        for key in ("correlations_individual", "correlations_grouped"):
            lines = [line for line in (tmp_path / FILES[key]).read_text().splitlines() if not line.startswith("#")]
            targets = {line.split(",")[0] for line in lines[1:]}
            assert targets == {"da"}, key

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


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    """A synthetic workspace after `label`, holding the corpus cache."""
    out = tmp_path_factory.mktemp("labeled")
    assert run("synth", "--out", out, "--users", 200, "--seed", 3) == 0
    assert run("label", "--out", out) == 0
    return out


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


# Runs one command and prints, as its last line, the scipy modules it loaded.
SCIPY_PROBE = """
import json, sys
from homedest.cli import main
status = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
sys.exit(status)
"""


def test_only_p_value_commands_import_scipy(tmp_path):
    """scipy costs each command ~0.3 s to import; only stats and correlate need it."""
    assert run("synth", "--out", tmp_path, "--users", 120, "--seed", 5) == 0
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for step in (["label"], ["atlas"], ["score"], ["null", "--replicates", "2"], ["report"]):
        result = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *step, "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [], step[0]


def test_p_value_commands_do_not_import_scipy_stats(tmp_path):
    """stats and correlate need only scipy.special; scipy.stats took 1.25 s to import against 0.47 s (2-core host)."""
    assert run("synth", "--out", tmp_path, "--users", 120, "--seed", 5) == 0
    for step in ("label", "atlas", "score", "null"):
        assert run(step, "--out", tmp_path) == 0
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for step in ("stats", "correlate"):
        result = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, step, "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert "scipy.special" in loaded and "scipy.stats" not in loaded, step


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
            ("null", "min_hashtags", 2.7, "an integer"),
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
