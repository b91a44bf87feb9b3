"""Country-level covariates and their correlations with attachment scores.

Two covariate families are supported: per-country cultural dimension scores
(six-dimension model; the origin/destination delta becomes the covariate)
and per-country-pair gravity covariates (capital distance, contiguity,
shared official language, common spoken/native language fractions).

Every covariate belongs to the (nationality, residence) pair, so the join
is one table row per pair present, indexed by each user.

Correlations come in two flavours: individual (one observation per user
that has the covariate) and grouped (one observation per origin group for
home scores, per destination group for destination scores), mirroring the
level at which the covariates actually vary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .attachment import AttachmentScore
from .stats import pearson, spearman
from .tables import read_table

logger = logging.getLogger(__name__)

HOFSTEDE_DIMENSIONS = ("pdi", "idv", "mas", "uai", "lto", "ivr")
PAIR_COVARIATES = ("distcap", "contig", "comlang_off", "csl", "cnl")
# The pair table's columns and the row order of both correlation files.
COVARIATES = tuple(sorted((*PAIR_COVARIATES, *(f"hof_{d}" for d in HOFSTEDE_DIMENSIONS))))
HOFSTEDE_COLUMNS = {"country": str, **dict.fromkeys(HOFSTEDE_DIMENSIONS, float | None)}
HOFSTEDE_KEY = ("country",)
HOFSTEDE_RULES = {
    "country is upper case, without spaces": lambda row: row["country"] == row["country"].strip().upper(),
    **{
        f"{dim} is empty or in [0, 120]": lambda row, dim=dim: row[dim] is None or 0 <= row[dim] <= 120
        for dim in HOFSTEDE_DIMENSIONS
    },
}
PAIR_COLUMNS = {"country_a": str, "country_b": str, **dict.fromkeys(PAIR_COVARIATES, float | None)}
PAIR_KEY = ("country_a", "country_b")
PAIR_RULES = {
    **{
        f"{code} is upper case, without spaces": lambda row, code=code: row[code] == row[code].strip().upper()
        for code in PAIR_KEY
    },
    "country_a < country_b": lambda row: row["country_a"] < row["country_b"],
}
CORRELATION_COLUMNS = {
    "target": str, "covariate": str, "method": str, "r": float, "p_value": float, "n": int, "stars": str,
}
# One correlation (target "ha" or "da"), a row of either correlation file.
CorrelationRow = NamedTuple("CorrelationRow", CORRELATION_COLUMNS.items())
DEFAULT_MIN_GROUP_SIZE = 10


def packaged_data_path(name: str) -> Path:
    """Path to a bundled reference table (hofstede.csv, country_language.csv)."""
    return Path(str(resources.files("homedest") / "data" / name))


@dataclass(frozen=True)
class Joined:
    """Scored users, in score order: user i has pair row ``pair[i]`` and scores ``ha[i]``, ``da[i]``.

    ``values[k, j]`` is covariate ``COVARIATES[j]`` of pair ``pairs[k]``, NaN when missing.
    """

    pairs: list[tuple[str, str]]
    values: np.ndarray
    pair: np.ndarray
    ha: np.ndarray
    da: np.ndarray

    def __len__(self) -> int:
        return len(self.pair)

    def columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, one value per user, NaN where missing) of each covariate that some user has."""
        cells = self.values[self.pair]
        return [(name, cells[:, j]) for j, name in enumerate(COVARIATES) if not np.isnan(cells[:, j]).all()]


def load_hofstede(path: str | Path | None = None) -> dict[str, dict[str, float]]:
    """Read per-country dimension scores, empty cells as missing; refuses rows that break HOFSTEDE_KEY or HOFSTEDE_RULES."""
    if path is None:
        path = packaged_data_path("hofstede.csv")
    table = {}
    for row in read_table(path, HOFSTEDE_COLUMNS, HOFSTEDE_KEY, HOFSTEDE_RULES):
        dims = {dim: row[dim] for dim in HOFSTEDE_DIMENSIONS if row[dim] is not None}
        if dims:
            table[row["country"]] = dims
    return table


def load_pair_covariates(path: str | Path) -> dict[tuple[str, str], dict[str, float | None]]:
    """Country-pair covariates by (country_a, country_b), empty cells None; refuses rows breaking PAIR_KEY or PAIR_RULES."""
    return {
        (row["country_a"], row["country_b"]): {name: row[name] for name in PAIR_COVARIATES}
        for row in read_table(path, PAIR_COLUMNS, PAIR_KEY, PAIR_RULES)
    }


def load_country_languages() -> dict[str, str]:
    """The bundled country -> primary language-subtag table."""
    rows = read_table(packaged_data_path("country_language.csv"), {"country": str, "language": str})
    return {row["country"]: row["language"] for row in rows}


def join_covariates(
    scores: Sequence[AttachmentScore],
    hofstede: dict[str, dict[str, float]] | None = None,
    pairs: dict[tuple[str, str], dict[str, float | None]] | None = None,
    signed: bool = False,
) -> tuple[Joined, int]:
    """Join each scored user to its pair's covariates; returns (joined, n_dropped).

    Each distinct pair's row is filled once, in order of first appearance: the
    pair covariates of its two countries in either order, and the cultural
    delta, destination minus origin (absolute unless ``signed``), of each
    dimension both countries have. A user is dropped (and counted) when no
    covariate at all resolves for their pair, whose row then stays all NaN.
    """
    hofstede = hofstede or {}
    pairs = pairs or {}
    index: dict[tuple[str, str], int] = {}
    codes = [index.setdefault((s.nationality, s.residence), len(index)) for s in scores]
    values = np.full((len(index), len(COVARIATES)), np.nan)
    for k, (origin, destination) in enumerate(index):
        cells = dict(pairs.get((min(origin, destination), max(origin, destination)), {}))
        home, dest = hofstede.get(origin, {}), hofstede.get(destination, {})
        for dim in home.keys() & dest.keys():
            delta = dest[dim] - home[dim]
            cells[f"hof_{dim}"] = delta if signed else abs(delta)
        values[k] = [cells.get(name) for name in COVARIATES]  # numpy stores None as NaN
    pair = np.array(codes, dtype=np.intp)
    kept = ~np.isnan(values[pair]).all(axis=1)
    dropped = len(pair) - int(kept.sum())
    if dropped:
        logger.info("dropped %d users with no covariate coverage", dropped)
    ha = np.array([s.ha for s in scores], dtype=float)[kept]
    da = np.array([s.da for s in scores], dtype=float)[kept]
    return Joined(list(index), values, pair[kept], ha, da), dropped


def _correlate_pairs(
    target: str, covariate: str, xs: Sequence[float], ys: Sequence[float]
) -> list[CorrelationRow]:
    """Pearson and Spearman rows of ``ys`` against ``xs``; none for fewer than 3 pairs or a constant sample."""
    try:
        tests = (pearson(xs, ys), spearman(xs, ys))
    except ValueError as exc:
        logger.info("skipping %s/%s: %s", target, covariate, exc)
        return []
    return [CorrelationRow(target, covariate, t.method, t.statistic, t.p_value, t.n1, t.stars) for t in tests]


def individual_correlations(joined: Joined) -> list[CorrelationRow]:
    """Per-user correlations of ha and da against every covariate, each over the users that have it.

    ha against da is not among them: ``test_results.csv`` holds it, as
    ``ha_vs_da``. A pair with fewer than three complete values or a constant
    side is skipped; fewer than three joined users is an error.
    """
    if len(joined) < 3:
        raise ValueError(f"fewer than 3 users joined to any covariate: {len(joined)} joined")
    out = []
    for name, column in joined.columns():
        has = ~np.isnan(column)
        for target in ("ha", "da"):
            out.extend(_correlate_pairs(target, name, column[has], getattr(joined, target)[has]))
    return out


def grouped_correlations(
    joined: Joined,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
) -> list[CorrelationRow]:
    """Group-mean correlations: ha grouped by origin, da by destination.

    Each group contributes one observation: the mean attachment score over
    its members and the mean of the covariate over the members that have it
    (none: the group is left out). Groups below min_group_size are excluded;
    fewer than three surviving groups is an error.
    """
    out: list[CorrelationRow] = []
    for target, side in (("ha", 0), ("da", 1)):
        groups: dict[str, list[int]] = {}
        for i, k in enumerate(joined.pair.tolist()):
            groups.setdefault(joined.pairs[k][side], []).append(i)
        members = [groups[c] for c in sorted(groups) if len(groups[c]) >= min_group_size]
        if len(members) < 3:
            raise ValueError(
                f"need at least 3 groups of {min_group_size}+ users for {target}, got {len(members)}"
            )
        # Each mean is a Python sum in score order: a pairwise numpy sum can move the last bits of r.
        scores = getattr(joined, target).tolist()
        means = [sum(scores[i] for i in group) / len(group) for group in members]
        for name, column in joined.columns():
            xs: list[float] = []
            ys: list[float] = []
            for mean, group in zip(means, members):
                have = column[group][~np.isnan(column[group])].tolist()
                if have:
                    xs.append(sum(have) / len(have))
                    ys.append(mean)
            out.extend(_correlate_pairs(target, name, xs, ys))
    return out
