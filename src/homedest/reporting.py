"""Figure-ready summary tables.

Nothing here draws; each function reduces labelled users or attachment
scores to small CSV-able tables (flow edges, histograms, quartile tables)
that a plotting notebook can consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atlas import HashtagRecord, entropy_histogram, unit_histogram
from .attachment import AttachmentScore
from .labeling import UserProfile
from .tables import write_table

DEFAULT_MIN_FLOW = 10
DEFAULT_MIN_GROUP = 10


@dataclass(frozen=True)
class FlowEdge:
    origin: str
    destination: str
    n_users: int


def chord_edges(
    profiles: dict[str, UserProfile],
    min_users: int = DEFAULT_MIN_FLOW,
) -> list[FlowEdge]:
    """Migration flows: (origin, destination) migrant counts, small flows dropped."""
    counts: dict[tuple[str, str], int] = {}
    for user_id in sorted(profiles):
        profile = profiles[user_id]
        if not profile.is_migrant:
            continue
        key = (profile.nationality, profile.residence)
        counts[key] = counts.get(key, 0) + 1
    return [
        FlowEdge(origin, destination, n)
        for (origin, destination), n in sorted(counts.items())
        if n >= min_users
    ]


@dataclass(frozen=True)
class BoxRow:
    """Five-number summary (plus mean) of one score within one group."""

    group_by: str  # "residence" or "nationality"
    group: str
    score: str  # "ha" or "da"
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _summarise(group_by: str, group: str, score: str, values: Sequence[float]) -> BoxRow:
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return BoxRow(
        group_by=group_by,
        group=group,
        score=score,
        n=len(values),
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )


def group_boxplots(
    scores: Sequence[AttachmentScore],
    min_group: int = DEFAULT_MIN_GROUP,
) -> list[BoxRow]:
    """Quartile tables of ha and da, sliced by destination and by origin."""
    out: list[BoxRow] = []
    for group_by, key in (("residence", "residence"), ("nationality", "nationality")):
        groups: dict[str, list[AttachmentScore]] = {}
        for score in scores:
            groups.setdefault(getattr(score, key), []).append(score)
        for group in sorted(groups):
            members = groups[group]
            if len(members) < min_group:
                continue
            out.append(_summarise(group_by, group, "ha", [m.ha for m in members]))
            out.append(_summarise(group_by, group, "da", [m.da for m in members]))
    return out


def attachment_histograms(
    scores: Sequence[AttachmentScore],
    null: tuple[Sequence[float], Sequence[float]] | None = None,
    bins: int = 50,
) -> dict[str, tuple[list[float], list[int]]]:
    """Histograms of ha and da over [0, 1] and, given null (HA0, DA0) values, of theirs.

    Each series maps to its (edges, counts), binned as the entropy histogram is.
    """
    series = {"ha": [s.ha for s in scores], "da": [s.da for s in scores]}
    if null is not None:
        series["ha_null"], series["da_null"] = null
    return {name: unit_histogram(values, bins) for name, values in series.items()}


def scatter_rows(scores: Sequence[AttachmentScore]) -> list[tuple[str, float, float, str]]:
    """(user_id, ha, da, acculturation class) tuples for the ha-vs-da plane."""
    return [(s.user_id, s.ha, s.da, s.acc_class or "") for s in scores]


def write_chord_edges(path: str | Path, edges: Sequence[FlowEdge], header: Sequence[str] = ()) -> None:
    rows = ((e.origin, e.destination, e.n_users) for e in edges)
    write_table(path, {"origin": str, "destination": str, "n_users": int}, rows, header)


def write_entropy_histogram(
    path: str | Path,
    atlas: dict[str, HashtagRecord],
    bins: int = 50,
    header: Sequence[str] = (),
) -> None:
    edges, counts = entropy_histogram(atlas.values(), bins=bins)
    rows = zip(edges, edges[1:], counts)
    write_table(path, {"bin_low": float, "bin_high": float, "n_hashtags": int}, rows, header)


def write_attachment_histograms(
    path: str | Path,
    histograms: dict[str, tuple[list[float], list[int]]],
    header: Sequence[str] = (),
) -> None:
    """One block of bins per series, in series-name order."""
    rows = (
        (name, low, high, count)
        for name, (edges, counts) in sorted(histograms.items())
        for low, high, count in zip(edges, edges[1:], counts)
    )
    write_table(path, {"series": str, "bin_low": float, "bin_high": float, "count": int}, rows, header)


def write_scatter(
    path: str | Path,
    rows: Sequence[tuple[str, float, float, str]],
    header: Sequence[str] = (),
) -> None:
    write_table(path, {"user_id": str, "ha": float, "da": float, "acc_class": str}, rows, header)


def write_boxplots(path: str | Path, rows: Sequence[BoxRow], header: Sequence[str] = ()) -> None:
    write_table(
        path,
        {"group_by": str, "group": str, "score": str, "n": int, **dict.fromkeys(("min", "q1", "median", "q3", "max", "mean"), float)},
        (
            (r.group_by, r.group, r.score, r.n, r.minimum, r.q1, r.median, r.q3, r.maximum, r.mean)
            for r in rows
        ),
        header,
    )
