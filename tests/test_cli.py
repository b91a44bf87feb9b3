"""End-to-end command-line behaviour, run in process via main()."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from homedest.cli import FILES, REPORT_FILES, main
from homedest.corpus import file_sha256, read_corpus
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
