"""Figure-ready summary tables.

Nothing here draws; each function reduces labelled users or attachment
scores to small CSV-able tables (flow edges, histograms, quartile tables)
that a plotting notebook can consume directly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .atlas import HashtagRecord, entropy_histogram, unit_histogram
from .attachment import AttachmentScore
from .labeling import UserProfile

# Smallest migration flow kept as a chord edge, and smallest group given a quartile row.
MIN_FLOW = 10
MIN_GROUP = 10

# Each report file's columns, in the order `report` writes the files; report_rows gives their rows.
REPORT_COLUMNS = {
    "chord_edges.csv": {"origin": str, "destination": str, "n_users": int},
    "entropy_histogram.csv": {"bin_low": float, "bin_high": float, "n_hashtags": int},
    "attachment_distributions.csv": {"series": str, "bin_low": float, "bin_high": float, "count": int},
    "ha_vs_da_scatter.csv": {"user_id": str, "ha": float, "da": float, "acc_class": str},
    "group_boxplots.csv": {
        "group_by": str, "group": str, "score": str, "n": int,
        **dict.fromkeys(("min", "q1", "median", "q3", "max", "mean"), float),
    },
}


class FlowEdge(NamedTuple):
    """One migration flow, a ``chord_edges.csv`` row."""

    origin: str
    destination: str
    n_users: int


def chord_edges(profiles: dict[str, UserProfile]) -> list[FlowEdge]:
    """Migration flows: (origin, destination) migrant counts; flows below MIN_FLOW are dropped."""
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
        if n >= MIN_FLOW
    ]


class BoxRow(NamedTuple):
    """Five-number summary (plus mean) of one score within one group, a ``group_boxplots.csv`` row."""

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


def group_boxplots(scores: Sequence[AttachmentScore]) -> list[BoxRow]:
    """Quartile tables of ha and da, sliced by destination and by origin; groups below MIN_GROUP are dropped."""
    out: list[BoxRow] = []
    for group_by, key in (("residence", "residence"), ("nationality", "nationality")):
        groups: dict[str, list[AttachmentScore]] = {}
        for score in scores:
            groups.setdefault(getattr(score, key), []).append(score)
        for group in sorted(groups):
            members = groups[group]
            if len(members) < MIN_GROUP:
                continue
            out.append(_summarise(group_by, group, "ha", [m.ha for m in members]))
            out.append(_summarise(group_by, group, "da", [m.da for m in members]))
    return out


def attachment_histograms(
    scores: Sequence[AttachmentScore],
    null: tuple[Sequence[float], Sequence[float]] | None = None,
) -> dict[str, tuple[list[float], list[int]]]:
    """Histograms of ha and da over [0, 1] and, given null (HA0, DA0) values, of theirs.

    Each series maps to its (edges, counts), binned as the entropy histogram is.
    """
    series = {"ha": [s.ha for s in scores], "da": [s.da for s in scores]}
    if null is not None:
        series["ha_null"], series["da_null"] = null
    return {name: unit_histogram(values) for name, values in series.items()}


def scatter_rows(scores: Sequence[AttachmentScore]) -> list[tuple[str, float, float, str]]:
    """(user_id, ha, da, acculturation class) tuples for the ha-vs-da plane."""
    return [(s.user_id, s.ha, s.da, s.acc_class or "") for s in scores]


def report_rows(
    profiles: dict[str, UserProfile],
    atlas: dict[str, HashtagRecord],
    scores: Sequence[AttachmentScore],
    null: tuple[Sequence[float], Sequence[float]] | None = None,
) -> list[list[tuple]]:
    """Each report table's rows, in REPORT_COLUMNS order; the attachment histograms in series-name order."""
    entropy_edges, entropy_counts = entropy_histogram(atlas.values())
    histograms = attachment_histograms(scores, null)
    return [
        chord_edges(profiles),
        list(zip(entropy_edges, entropy_edges[1:], entropy_counts)),
        [
            (name, low, high, count)
            for name, (edges, counts) in sorted(histograms.items())
            for low, high, count in zip(edges, edges[1:], counts)
        ],
        scatter_rows(scores),
        group_boxplots(scores),
    ]
