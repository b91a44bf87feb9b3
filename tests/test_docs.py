"""The README's examples and the demo scripts run as documented."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from homedest.atlas import ATLAS_KEY
from homedest.attachment import SCORE_KEY
from homedest.corpus import LoadStats, iter_posts
from homedest.covariates import HOFSTEDE_KEY, PAIR_KEY
from homedest.labeling import LANG_KEY, PROFILE_KEY
from homedest.reporting import REPORT_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_posts_format_loads(tmp_path):
    documented = re.search(r"\*\*posts\.jsonl\*\*.*?`(\{.*?\})`", README, flags=re.S).group(1)
    # Take the first alternative of each `a|null` and drop the `...` elisions.
    line = re.sub(r"\|null", "", " ".join(documented.split())).replace(", ...", "")
    path = tmp_path / "posts.jsonl"
    path.write_text(json.dumps(json.loads(line)) + "\n", encoding="utf-8")
    stats = LoadStats()
    posts = list(iter_posts(path, stats))
    assert (stats.loaded, stats.skipped) == (1, 0)
    assert posts[0].country == "IT" and posts[0].language == "it"
    assert posts[0].hashtags == ("roma",)


def test_readme_report_tables_match_their_declaration():
    section = README.split("## Report tables\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)` — `([^`]+)`", section, flags=re.M)
    assert listed == [(name, ",".join(columns)) for name, columns in REPORT_COLUMNS.items()]


def test_readme_rules_table_keys_match_their_declaration():
    section = README.split("## Input formats\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section, flags=re.M)
    listed = {table: tuple(re.findall(r"`([^`]+)`", key)) for table, key in rows}
    assert listed == {
        "profiles.csv": PROFILE_KEY,
        "lang_fractions.csv": LANG_KEY,
        "atlas.csv": ATLAS_KEY,
        "scores.csv": SCORE_KEY,
        "--hofstede": HOFSTEDE_KEY,
        "pair_covariates.csv": PAIR_KEY,
        "null_scores.csv": (),  # no key yet
    }


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
