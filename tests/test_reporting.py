"""Summary-table builders for figures."""

from __future__ import annotations

import numpy as np
import pytest

from homedest.atlas import entropy_histogram
from homedest.attachment import AttachmentScore
from homedest.labeling import UserProfile
from homedest.reporting import (
    attachment_histograms,
    chord_edges,
    group_boxplots,
    scatter_rows,
    write_attachment_histograms,
    write_boxplots,
    write_chord_edges,
    write_entropy_histogram,
    write_scatter,
)


def _profile(user, nat, res, migrant=True):
    return UserProfile(
        user_id=user, residence=res, nationality=nat, is_migrant=migrant
    )


def _score(user, nat="IT", res="DE", ha=0.3, da=0.2, cls=None):
    return AttachmentScore(
        user_id=user,
        nationality=nat,
        residence=res,
        ha=ha,
        da=da,
        n_hashtags=10,
        n_home=3,
        n_dest=2,
        acc_class=cls,
    )


class TestChordEdges:
    def _profiles(self):
        out = {}
        for i in range(12):
            out[f"a{i}"] = _profile(f"a{i}", "IT", "DE")
        for i in range(4):
            out[f"b{i}"] = _profile(f"b{i}", "FR", "ES")
        out["n1"] = _profile("n1", "IT", "IT", migrant=False)
        return out

    def test_counts_and_threshold(self):
        edges = chord_edges(self._profiles(), min_users=5)
        assert len(edges) == 1
        assert edges[0].origin == "IT"
        assert edges[0].destination == "DE"
        assert edges[0].n_users == 12

    def test_low_threshold_keeps_small_flows(self):
        edges = chord_edges(self._profiles(), min_users=1)
        assert {(e.origin, e.destination, e.n_users) for e in edges} == {
            ("IT", "DE", 12),
            ("FR", "ES", 4),
        }

    def test_non_migrants_excluded(self):
        edges = chord_edges({"n1": _profile("n1", "IT", "IT", migrant=False)}, min_users=1)
        assert edges == []


class TestBoxplots:
    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=30)
        scores = [_score(f"u{i}", ha=float(v), da=float(v) / 2) for i, v in enumerate(values)]
        rows = group_boxplots(scores, min_group=10)
        ha_row = next(r for r in rows if r.group_by == "residence" and r.score == "ha")
        assert ha_row.n == 30
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        assert ha_row.q1 == q1
        assert ha_row.median == med
        assert ha_row.q3 == q3
        assert ha_row.minimum == values.min()
        assert ha_row.maximum == values.max()
        assert ha_row.mean == values.mean()

    def test_both_slices_present(self):
        scores = [_score(f"u{i}") for i in range(10)]
        rows = group_boxplots(scores, min_group=10)
        assert {(r.group_by, r.group, r.score) for r in rows} == {
            ("residence", "DE", "ha"),
            ("residence", "DE", "da"),
            ("nationality", "IT", "ha"),
            ("nationality", "IT", "da"),
        }

    def test_small_groups_dropped(self):
        scores = [_score(f"u{i}") for i in range(9)]
        assert group_boxplots(scores, min_group=10) == []


class TestHistograms:
    def test_keys_without_null(self):
        histograms = attachment_histograms([_score("u1")])
        assert set(histograms) == {"ha", "da"}
        edges, counts = histograms["ha"]
        assert len(edges) == 51 and edges[0] == 0.0 and edges[-1] == 1.0
        assert counts == [0] * 15 + [1] + [0] * 34  # 0.3 * 50 = 15

    def test_keys_with_null(self):
        histograms = attachment_histograms([_score("u1")], (np.array([0.1, 1.0]), np.array([0.0, 0.5])))
        assert set(histograms) == {"ha", "da", "ha_null", "da_null"}
        _, counts = histograms["ha_null"]
        assert counts[5] == 1 and counts[49] == 1 and sum(counts) == 2  # 1.0 lands in the last bin
        assert histograms["da_null"][1][0] == 1 and histograms["da_null"][1][25] == 1

    def test_bins_are_those_of_the_entropy_histogram(self, micro_pipeline):
        _, _, atlas = micro_pipeline
        values = [record.entropy for record in atlas.values()]
        scores = [_score(f"u{i}", ha=v) for i, v in enumerate(values)]
        assert attachment_histograms(scores, bins=10)["ha"] == entropy_histogram(atlas.values(), bins=10)


def test_scatter_rows():
    rows = scatter_rows([_score("u1", cls="separation"), _score("u2")])
    assert rows == [("u1", 0.3, 0.2, "separation"), ("u2", 0.3, 0.2, "")]


class TestWriters:
    def test_headers_and_shapes(self, tmp_path, micro_pipeline):
        posts, profiles, atlas = micro_pipeline
        header = ["config_hash=x seed=0 version=0"]

        chord = tmp_path / "chord.csv"
        write_chord_edges(chord, chord_edges(profiles, min_users=1), header=header)
        lines = chord.read_text().splitlines()
        assert lines[0] == "# config_hash=x seed=0 version=0"
        assert lines[1] == "origin,destination,n_users"
        assert lines[2] == "IT,DE,1"

        hist = tmp_path / "hist.csv"
        write_entropy_histogram(hist, atlas, bins=10, header=header)
        lines = hist.read_text().splitlines()
        assert lines[1] == "bin_low,bin_high,n_hashtags"
        assert len(lines) == 2 + 10
        # roma and berlin sit in the zero bin; pizza (entropy > 0.9) at the top.
        assert lines[2].split(",")[2] == "2"
        total = sum(int(line.split(",")[2]) for line in lines[2:])
        assert total == len(atlas)

        series = tmp_path / "series.csv"
        write_attachment_histograms(series, attachment_histograms([_score("u1", ha=0.25)], bins=4), header=header)
        lines = series.read_text().splitlines()
        assert lines[1] == "series,bin_low,bin_high,count"
        assert lines[2:] == [
            "da,0.0,0.25,1", "da,0.25,0.5,0", "da,0.5,0.75,0", "da,0.75,1.0,0",
            "ha,0.0,0.25,0", "ha,0.25,0.5,1", "ha,0.5,0.75,0", "ha,0.75,1.0,0",
        ]

        scatter = tmp_path / "scatter.csv"
        write_scatter(scatter, [("u1", 0.5, 0.25, "")], header=header)
        assert scatter.read_text().splitlines()[2] == "u1,0.5,0.25,"

        box = tmp_path / "box.csv"
        write_boxplots(box, group_boxplots([_score(f"u{i}") for i in range(10)]), header=header)
        lines = box.read_text().splitlines()
        assert lines[1].startswith("group_by,group,score,n,min")
        assert len(lines) == 2 + 4
