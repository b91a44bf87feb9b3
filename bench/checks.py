"""Correctness checks on one chain's workspace, independent of ``homedest``.

The scores table is recounted naively from ``posts.jsonl``, ``profiles.csv``
and ``atlas.csv`` with the documented canonicalization rule restated here,
so a defect in the package's ingest, atlas lookup or scoring shows as a
mismatch rather than being reproduced by the check.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path

YEAR = 2018
MIN_HASHTAGS = 10
MIN_RECOVERY = 0.90
_STRIP = frozenset(",\"';/\\#")


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _canonical(raw: str) -> str | None:
    cleaned = "".join(ch for ch in raw.casefold() if ch not in _STRIP).strip()
    return cleaned if len(cleaned) >= 2 else None


def _year(ts: str) -> int:
    text = ts.strip()
    if text[-1:] in ("Z", "z"):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is not None:
        parsed = parsed.astimezone(timezone.utc)
    return parsed.year


def recount(ws: Path) -> tuple[dict[str, tuple], dict]:
    """Expected scores rows, and workload facts including atlas coverage.

    Rows map user_id to (nationality, residence, ha, da, n_hashtags,
    n_home, n_dest). Coverage splits the scored migrants' uses by atlas
    assignment: home, dest, international, other country and unknown
    (token not in the atlas).
    """
    migrants = {
        row["user_id"]: (row["nationality"], row["residence"])
        for row in read_table(ws / "profiles.csv")
        if row["is_migrant"] == "true"
    }
    assignment = {row["token"]: row["assignment"] for row in read_table(ws / "atlas.csv")}
    raw_tags: set[str] = set()
    tallies: dict[str, dict[str, int]] = {}
    posts = uses = 0
    with open(ws / "posts.jsonl", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            record = json.loads(line)
            posts += 1
            uses += len(record["tags"])
            raw_tags.update(record["tags"])
            labels = migrants.get(record["user_id"])
            if labels is None or _year(record["ts"]) != YEAR:
                continue
            tally = tallies.setdefault(record["user_id"], dict.fromkeys(
                ("total", "home", "dest", "international", "other", "unknown"), 0))
            for raw in record["tags"]:
                token = _canonical(raw)
                if token is None:
                    continue
                tally["total"] += 1
                where = assignment.get(token)
                if where is None:
                    tally["unknown"] += 1
                elif where == labels[0]:
                    tally["home"] += 1
                elif where == labels[1]:
                    tally["dest"] += 1
                elif where == "international":
                    tally["international"] += 1
                else:
                    tally["other"] += 1

    rows: dict[str, tuple] = {}
    coverage = dict.fromkeys(("home", "dest", "international", "other", "unknown"), 0)
    for user, tally in tallies.items():
        total = tally["total"]
        if total < MIN_HASHTAGS:
            continue
        nationality, residence = migrants[user]
        rows[user] = (nationality, residence, tally["home"] / total, tally["dest"] / total,
                      total, tally["home"], tally["dest"])
        for key in coverage:
            coverage[key] += tally[key]
    facts = {
        "posts": posts,
        "hashtag_uses": uses,
        "distinct_raw_tags": len(raw_tags),
        "migrants": len(migrants),
        "atlas_tokens": len(assignment),
        "scored_migrants": len(rows),
        "coverage": coverage,
    }
    return rows, facts


def scores_rows(path: Path) -> dict[str, tuple]:
    return {
        row["user_id"]: (row["nationality"], row["residence"], float(row["ha"]),
                         float(row["da"]), int(row["n_hashtags"]), int(row["n_home"]),
                         int(row["n_dest"]))
        for row in read_table(path)
    }


def recount_mismatches(path: Path, expected: dict[str, tuple]) -> int:
    """Users whose scores row differs from the recount, missing or extra."""
    actual = scores_rows(path)
    return sum(actual.get(user) != expected.get(user) for user in actual.keys() | expected.keys())


def corrupt_scores(src: Path, dst: Path) -> None:
    """Copy a scores CSV with the first row's ``n_home`` raised by one."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header_at].rstrip("\n").split(",")
    fields = lines[header_at + 1].rstrip("\n").split(",")
    col = columns.index("n_home")
    fields[col] = str(int(fields[col]) + 1)
    lines[header_at + 1] = ",".join(fields) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


def check_chain(ws: Path, scratch: Path, check_recovery: bool) -> tuple[dict[str, bool], dict]:
    """Run every per-chain check; returns ({check: passed}, facts).

    ``scratch`` receives the corrupted copy of ``scores.csv`` that the
    recount comparison must reject.
    """
    expected, facts = recount(ws)
    scores = read_table(ws / "scores.csv")
    null_scores = read_table(ws / "null_scores.csv")
    checks = {
        "scores_equal_recount": bool(expected) and recount_mismatches(ws / "scores.csv", expected) == 0,
        "ha_plus_da_le_1": all(
            0.0 <= float(r["ha"]) and 0.0 <= float(r["da"])
            and float(r["ha"]) + float(r["da"]) <= 1.0
            and int(r["n_home"]) + int(r["n_dest"]) <= int(r["n_hashtags"])
            for r in scores + null_scores
        ),
        "null_ha_below_observed": bool(null_scores) and (
            statistics.fmean(float(r["ha"]) for r in null_scores)
            < statistics.fmean(float(r["ha"]) for r in scores)
        ),
    }
    corrupted = scratch / "scores_corrupted.csv"
    corrupt_scores(ws / "scores.csv", corrupted)
    checks["corrupted_scores_rejected"] = recount_mismatches(corrupted, expected) == 1
    facts["p_zero"] = sum(r["p_value"] == "0.0" for r in read_table(ws / "test_results.csv"))
    if check_recovery:
        truth = {r["user_id"]: r["acc_class"] for r in read_table(ws / "ground_truth.csv")}
        judged = [r for r in scores if r["acc_class"] and truth.get(r["user_id"])]
        recovery = sum(r["acc_class"] == truth[r["user_id"]] for r in judged) / max(len(judged), 1)
        checks["planted_class_recovery"] = bool(judged) and recovery >= MIN_RECOVERY
        facts["class_recovery"] = recovery
    return checks, facts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check one chain's workspace; prints JSON.")
    parser.add_argument("ws", type=Path)
    parser.add_argument("scratch", type=Path)
    parser.add_argument("--recovery", action="store_true", help="gate planted-class recovery")
    args = parser.parse_args(argv)
    checks, facts = check_chain(args.ws, args.scratch, args.recovery)
    print(json.dumps({"checks": checks, "facts": facts}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
