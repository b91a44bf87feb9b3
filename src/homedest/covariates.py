"""Country-level covariates and their correlations with attachment scores.

Two covariate families are supported: per-country cultural dimension scores
(six-dimension model; the origin/destination delta becomes the covariate)
and per-country-pair gravity covariates (capital distance, contiguity,
shared official language, common spoken/native language fractions).

Correlations come in two flavours: individual (one observation per user)
and grouped (one observation per origin group for home scores, per
destination group for destination scores), mirroring the level at which
the covariates actually vary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

from .attachment import AttachmentScore
from .stats import pearson, spearman
from .tables import read_table

logger = logging.getLogger(__name__)

HOFSTEDE_DIMENSIONS = ("pdi", "idv", "mas", "uai", "lto", "ivr")
PAIR_COVARIATES = ("distcap", "contig", "comlang_off", "csl", "cnl")
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
DEFAULT_MIN_GROUP_SIZE = 10


def packaged_data_path(name: str) -> Path:
    """Path to a bundled reference table (hofstede.csv, country_language.csv)."""
    return Path(str(resources.files("homedest") / "data" / name))


@dataclass
class PairTable:
    """Symmetric country-pair covariates keyed by unordered pair."""

    values: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)

    @staticmethod
    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def get(self, a: str, b: str) -> dict[str, float] | None:
        return self.values.get(self.key(a, b))


@dataclass(frozen=True)
class JoinedRow:
    """One user's scores with every covariate that could be resolved."""

    user_id: str
    nationality: str
    residence: str
    ha: float
    da: float
    covariates: dict[str, float]


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


def load_pair_covariates(path: str | Path) -> PairTable:
    """Read country-pair covariates, one row per unordered pair; refuses rows that break PAIR_KEY or PAIR_RULES."""
    table = PairTable()
    for row in read_table(path, PAIR_COLUMNS, PAIR_KEY, PAIR_RULES):
        values = {name: row[name] for name in PAIR_COVARIATES if row[name] is not None}
        if values:
            table.values[row["country_a"], row["country_b"]] = values
    return table


def load_country_languages() -> dict[str, str]:
    """The bundled country -> primary language-subtag table."""
    rows = read_table(packaged_data_path("country_language.csv"), {"country": str, "language": str})
    return {row["country"]: row["language"] for row in rows}


def hofstede_delta(
    table: dict[str, dict[str, float]],
    origin: str,
    destination: str,
    signed: bool = False,
) -> dict[str, float]:
    """Per-dimension origin/destination distance.

    Absolute differences by default; signed=True keeps destination - origin.
    Dimensions missing for either country are omitted. An unknown country
    yields an empty dict.
    """
    a = table.get(origin)
    b = table.get(destination)
    if a is None or b is None:
        return {}
    out: dict[str, float] = {}
    for dim in HOFSTEDE_DIMENSIONS:
        if dim in a and dim in b:
            diff = b[dim] - a[dim]
            out[f"hof_{dim}"] = diff if signed else abs(diff)
    return out


def join_covariates(
    scores: Sequence[AttachmentScore],
    hofstede: dict[str, dict[str, float]] | None = None,
    pairs: PairTable | None = None,
    signed: bool = False,
) -> tuple[list[JoinedRow], int]:
    """Attach covariates to each scored user; returns (rows, n_dropped).

    A user is dropped (and counted) when no covariate at all resolves for
    their origin/destination pair.
    """
    rows: list[JoinedRow] = []
    dropped = 0
    for score in scores:
        values: dict[str, float] = {}
        if hofstede is not None:
            values.update(hofstede_delta(hofstede, score.nationality, score.residence, signed))
        if pairs is not None:
            pair = pairs.get(score.nationality, score.residence)
            if pair:
                values.update(pair)
        if not values:
            dropped += 1
            continue
        rows.append(
            JoinedRow(
                user_id=score.user_id,
                nationality=score.nationality,
                residence=score.residence,
                ha=score.ha,
                da=score.da,
                covariates=values,
            )
        )
    if dropped:
        logger.info("dropped %d users with no covariate coverage", dropped)
    return rows, dropped


class CorrelationRow(NamedTuple):
    """One correlation, a row of CORRELATION_COLUMNS."""

    target: str  # "ha" or "da"
    covariate: str
    method: str
    r: float
    p_value: float
    n: int
    stars: str


def _correlate_pairs(
    target: str, covariate: str, xs: list[float], ys: list[float]
) -> list[CorrelationRow]:
    """Pearson and Spearman rows of ``ys`` against ``xs``; none for fewer than 3 pairs or a constant sample."""
    try:
        tests = (pearson(xs, ys), spearman(xs, ys))
    except ValueError as exc:
        logger.info("skipping %s/%s: %s", target, covariate, exc)
        return []
    return [CorrelationRow(target, covariate, t.method, t.statistic, t.p_value, t.n1, t.stars) for t in tests]


def _covariate_names(rows: Sequence[JoinedRow]) -> list[str]:
    names: set[str] = set()
    for row in rows:
        names.update(row.covariates)
    return sorted(names)


def individual_correlations(rows: Sequence[JoinedRow]) -> list[CorrelationRow]:
    """Per-user correlations of ha and da against every covariate.

    Also reports the ha-vs-da correlation. A pair with fewer than three
    complete values or a constant side is skipped; fewer than three rows
    overall is an error.
    """
    if len(rows) < 3:
        raise ValueError("need at least 3 joined users")
    out: list[CorrelationRow] = []
    out.extend(_correlate_pairs("ha", "da", [r.ha for r in rows], [r.da for r in rows]))
    for name in _covariate_names(rows):
        for target in ("ha", "da"):
            paired = [row for row in rows if name in row.covariates]
            xs = [row.covariates[name] for row in paired]
            ys = [getattr(row, target) for row in paired]
            out.extend(_correlate_pairs(target, name, xs, ys))
    return out


def grouped_correlations(
    rows: Sequence[JoinedRow],
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
) -> list[CorrelationRow]:
    """Group-mean correlations: ha grouped by origin, da by destination.

    Each group contributes one observation: the mean attachment score and the
    mean of each covariate over group members. Groups below min_group_size
    are excluded; fewer than three surviving groups is an error.
    """
    out: list[CorrelationRow] = []
    for target, key in (("ha", "nationality"), ("da", "residence")):
        groups: dict[str, list[JoinedRow]] = {}
        for row in rows:
            groups.setdefault(getattr(row, key), []).append(row)
        kept = {c: members for c, members in groups.items() if len(members) >= min_group_size}
        if len(kept) < 3:
            raise ValueError(
                f"need at least 3 groups of {min_group_size}+ users for {target}, got {len(kept)}"
            )
        for name in _covariate_names(rows):
            xs: list[float] = []
            ys: list[float] = []
            for country in sorted(kept):
                members = kept[country]
                with_cov = [r.covariates[name] for r in members if name in r.covariates]
                if not with_cov:
                    continue
                xs.append(sum(with_cov) / len(with_cov))
                values = [r.ha if target == "ha" else r.da for r in members]
                ys.append(sum(values) / len(values))
            out.extend(_correlate_pairs(target, name, xs, ys))
    return out
