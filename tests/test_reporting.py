"""Summary-table builders for figures."""

from __future__ import annotations

import numpy as np
import pytest

from homedest.atlas import unit_histogram
from homedest.attachment import AttachmentScore
from homedest.labeling import UserProfile
from homedest.reporting import (
    MIN_FLOW,
    MIN_GROUP,
    REPORT_COLUMNS,
    FlowEdge,
    attachment_histograms,
    chord_edges,
    group_boxplots,
    report_rows,
    scatter_rows,
)
from homedest.tables import write_table


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
        edges = chord_edges(self._profiles())
        assert len(edges) == 1
        assert edges[0].origin == "IT"
        assert edges[0].destination == "DE"
        assert edges[0].n_users == 12

    def test_flow_of_min_flow_kept_and_one_fewer_dropped(self):
        profiles = {f"a{i}": _profile(f"a{i}", "IT", "DE") for i in range(MIN_FLOW)}
        profiles |= {f"b{i}": _profile(f"b{i}", "FR", "ES") for i in range(MIN_FLOW - 1)}
        assert chord_edges(profiles) == [FlowEdge("IT", "DE", MIN_FLOW)]

    def test_non_migrants_excluded(self):
        edges = chord_edges({f"n{i}": _profile(f"n{i}", "IT", "IT", migrant=False) for i in range(MIN_FLOW)})
        assert edges == []


class TestBoxplots:
    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=30)
        scores = [_score(f"u{i}", ha=float(v), da=float(v) / 2) for i, v in enumerate(values)]
        rows = group_boxplots(scores)
        ha_row = next(r for r in rows if r.group_by == "residence" and r.score == "ha")
        assert ha_row.n == 30
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        assert ha_row.q1 == q1
        assert ha_row.median == med
        assert ha_row.q3 == q3
        assert ha_row.min == values.min()
        assert ha_row.max == values.max()
        assert ha_row.mean == values.mean()

    def test_both_slices_present(self):
        scores = [_score(f"u{i}") for i in range(MIN_GROUP)]
        rows = group_boxplots(scores)
        assert {(r.group_by, r.group, r.score) for r in rows} == {
            ("residence", "DE", "ha"),
            ("residence", "DE", "da"),
            ("nationality", "IT", "ha"),
            ("nationality", "IT", "da"),
        }

    def test_small_groups_dropped(self):
        scores = [_score(f"u{i}") for i in range(MIN_GROUP - 1)]
        assert group_boxplots(scores) == []


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
        assert attachment_histograms(scores)["ha"] == unit_histogram(values)


def test_scatter_rows():
    rows = scatter_rows([_score("u1", cls="separation"), _score("u2")])
    assert rows == [("u1", 0.3, 0.2, "separation"), ("u2", 0.3, 0.2, "")]


class TestWriters:
    def test_headers_and_shapes(self, tmp_path, micro_pipeline):
        _, _, atlas = micro_pipeline
        header = ["config_hash=x seed=0 version=0"]

        def written(name, profiles, scores):
            """The lines of report table ``name`` written from report_rows of ``profiles``, the atlas and ``scores``."""
            tables = report_rows(profiles, atlas, scores)
            assert all(isinstance(rows, list) for rows in tables)
            path = tmp_path / name
            write_table(path, REPORT_COLUMNS[name], tables[list(REPORT_COLUMNS).index(name)], header)
            return path.read_text().splitlines()

        migrants = {f"m{i}": _profile(f"m{i}", "IT", "DE") for i in range(MIN_FLOW)}
        lines = written("chord_edges.csv", migrants, [])
        assert lines[0] == "# config_hash=x seed=0 version=0"
        assert lines[1] == "origin,destination,n_users"
        assert lines[2] == f"IT,DE,{MIN_FLOW}"

        lines = written("entropy_histogram.csv", {}, [])
        assert lines[1] == "bin_low,bin_high,n_hashtags"
        assert len(lines) == 2 + 50
        # roma and berlin sit in the zero bin; pizza (entropy > 0.9) at the top.
        assert lines[2].split(",")[2] == "2"
        total = sum(int(line.split(",")[2]) for line in lines[2:])
        assert total == len(atlas)

        lines = written("attachment_distributions.csv", {}, [_score("u1", ha=0.25)])
        assert lines[1] == "series,bin_low,bin_high,count"
        assert len(lines) == 2 + 2 * 50
        assert [line for line in lines[2:] if not line.endswith(",0")] == ["da,0.2,0.22,1", "ha,0.24,0.26,1"]

        lines = written("ha_vs_da_scatter.csv", {}, [_score("u1", ha=0.5, da=0.25)])
        assert lines[2] == "u1,0.5,0.25,"

        lines = written("group_boxplots.csv", {}, [_score(f"u{i}") for i in range(10)])
        assert lines[1].startswith("group_by,group,score,n,min")
        assert len(lines) == 2 + 4
