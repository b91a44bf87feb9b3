"""Covariate tables, score joins, and the two correlation levels."""

from __future__ import annotations

import numpy as np
import pytest

from homedest.attachment import AttachmentScore
from homedest.covariates import (
    CORRELATION_COLUMNS,
    PairTable,
    grouped_correlations,
    hofstede_delta,
    individual_correlations,
    join_covariates,
    load_country_languages,
    load_hofstede,
    load_pair_covariates,
    packaged_data_path,
)
from homedest.stats import significance_stars
from homedest.tables import TableError, write_table


def _score(user, nat, res, ha, da):
    return AttachmentScore(
        user_id=user,
        nationality=nat,
        residence=res,
        ha=ha,
        da=da,
        n_hashtags=20,
        n_home=int(round(ha * 20)),
        n_dest=int(round(da * 20)),
    )


class TestBundledTables:
    def test_hofstede_known_entries(self):
        table = load_hofstede()
        assert table.get("US")["idv"] == 91.0
        assert table.get("IT")["idv"] == 76.0
        assert table.get("DE")["pdi"] == 35.0

    def test_missing_cell_is_absent_not_zero(self):
        table = load_hofstede()
        assert "ivr" not in table.get("IL")
        assert "pdi" in table.get("IL")

    def test_countries_sorted(self):
        table = load_hofstede()
        countries = sorted(table)
        assert countries == sorted(countries)
        assert len(countries) >= 50

    def test_out_of_range_score_rejected(self, tmp_path):
        bad = tmp_path / "h.csv"
        bad.write_text("country,pdi,idv,mas,uai,lto,ivr\nXX,130,50,50,50,50,50\n")
        with pytest.raises(ValueError):
            load_hofstede(bad)

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("# generated\ncountry,pdi,idv,mas,uai,lto,ivr\nXX,10,20,30,40,50,60\n")
        assert load_hofstede(p).get("XX")["lto"] == 50.0

    @pytest.mark.parametrize("codes", [("AR", "ar"), ("AR", " AR"), ("ar",), ("AR ",)])
    def test_country_codes_are_read_as_written(self, tmp_path, codes):
        p = tmp_path / "h.csv"
        p.write_text("country,pdi,idv,mas,uai,lto,ivr\n" + "".join(f"{c},10,20,30,40,50,60\n" for c in codes))
        with pytest.raises(TableError, match="country is upper case, without spaces"):
            load_hofstede(p)

    def test_language_table(self):
        langs = load_country_languages()
        assert langs["IT"] == "it"
        assert langs["MX"] == "es"
        assert langs["US"] == "en"

    def test_packaged_paths_exist(self):
        assert packaged_data_path("hofstede.csv").exists()
        assert packaged_data_path("country_language.csv").exists()


class TestPairTable:
    def test_symmetric_lookup(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(
            "country_a,country_b,distcap,contig,comlang_off,csl,cnl\n"
            "DE,IT,1181.0,1,0,0.03,0.01\n"
        )
        table = load_pair_covariates(p)
        assert table.get("IT", "DE") == table.get("DE", "IT")
        assert table.get("DE", "IT")["distcap"] == 1181.0
        assert table.get("IT", "FR") is None

    def test_blank_cells_omitted(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("country_a,country_b,distcap,contig,comlang_off,csl,cnl\nA,B,5.0,,,,\n")
        table = load_pair_covariates(p)
        assert table.get("A", "B") == {"distcap": 5.0}

    @pytest.mark.parametrize(
        "pairs, broken",
        [
            (["DE,IT", "DE,IT"], "repeats line 2"),
            (["de,IT"], "breaks the rule country_a is upper case, without spaces"),
            (["DE,it"], "breaks the rule country_b is upper case, without spaces"),
            (["DE, IT"], "breaks the rule country_b is upper case, without spaces"),
            (["IT,DE"], "breaks the rule country_a < country_b"),
            (["DE,IT", "IT,DE"], "breaks the rule country_a < country_b"),
            (["DE,DE"], "breaks the rule country_a < country_b"),
        ],
    )
    def test_repeated_or_unnormalised_pair_refused(self, tmp_path, pairs, broken):
        p = tmp_path / "pairs.csv"
        rows = "".join(f"{pair},5.0,0,0,0.1,0.1\n" for pair in pairs)
        p.write_text("country_a,country_b,distcap,contig,comlang_off,csl,cnl\n" + rows)
        with pytest.raises(TableError, match=broken):
            load_pair_covariates(p)


class TestDelta:
    def test_absolute_by_default(self):
        table = load_hofstede()
        delta = hofstede_delta(table, "IT", "US")
        assert delta["hof_idv"] == 15.0  # |91 - 76|
        assert all(v >= 0 for v in delta.values())

    def test_signed_keeps_direction(self):
        table = load_hofstede()
        assert hofstede_delta(table, "IT", "US", signed=True)["hof_idv"] == 15.0
        assert hofstede_delta(table, "US", "IT", signed=True)["hof_idv"] == -15.0

    def test_unknown_country_empty(self):
        table = load_hofstede()
        assert hofstede_delta(table, "ZZ", "US") == {}

    def test_partial_dimensions_dropped(self):
        table = {"AA": {"pdi": 10.0}, "BB": {"pdi": 30.0, "idv": 5.0}}
        assert hofstede_delta(table, "AA", "BB") == {"hof_pdi": 20.0}


class TestJoin:
    def test_join_and_drop_count(self):
        scores = [
            _score("u1", "IT", "DE", 0.3, 0.2),
            _score("u2", "ZZ", "QQ", 0.1, 0.1),  # nothing resolves
        ]
        rows, dropped = join_covariates(scores, hofstede=load_hofstede())
        assert dropped == 1
        assert len(rows) == 1
        assert rows[0].user_id == "u1"
        assert rows[0].covariates["hof_idv"] == pytest.approx(abs(76.0 - 67.0))

    def test_pair_values_merge_with_deltas(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(
            "country_a,country_b,distcap,contig,comlang_off,csl,cnl\nDE,IT,1181.0,1,0,0,0\n"
        )
        rows, dropped = join_covariates(
            [_score("u1", "IT", "DE", 0.3, 0.2)],
            hofstede=load_hofstede(),
            pairs=load_pair_covariates(p),
        )
        assert dropped == 0
        assert rows[0].covariates["distcap"] == 1181.0
        assert "hof_pdi" in rows[0].covariates


def _joined_population(n=40, seed=5):
    """Synthetic joined rows over 4 origin and 3 destination countries."""
    rng = np.random.default_rng(seed)
    rows, _ = join_covariates(
        [
            _score(
                f"u{i:03d}",
                ("IT", "FR", "ES", "PL")[i % 4],
                ("DE", "GB", "NL")[i % 3],
                float(rng.uniform(0, 0.6)),
                float(rng.uniform(0, 0.4)),
            )
            for i in range(n)
        ],
        hofstede=load_hofstede(),
    )
    return rows


class TestIndividualCorrelations:
    def test_includes_score_pair_and_both_methods(self):
        rows = _joined_population()
        out = individual_correlations(rows)
        kinds = {(r.target, r.covariate, r.method) for r in out}
        assert ("ha", "da", "pearson") in kinds
        assert ("ha", "da", "spearman") in kinds
        assert ("ha", "hof_idv", "pearson") in kinds
        assert ("da", "hof_pdi", "spearman") in kinds

    def test_n_reflects_complete_pairs(self):
        rows = _joined_population(n=40)
        for row in individual_correlations(rows):
            assert row.n == 40

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            individual_correlations(_joined_population(n=2))

    def test_degenerate_covariate_skipped(self):
        # Single origin/destination pair: every delta is constant, so the
        # covariate columns are silently dropped but ha-vs-da survives.
        scores = [_score(f"u{i}", "IT", "DE", 0.1 * i, 0.05 * i + 0.01) for i in range(1, 6)]
        rows, _ = join_covariates(scores, hofstede=load_hofstede())
        out = individual_correlations(rows)
        assert {(r.target, r.covariate) for r in out} == {("ha", "da")}


class TestGroupedCorrelations:
    def test_group_means_are_used(self):
        rows = _joined_population(n=80)
        out = grouped_correlations(rows, min_group_size=2)
        by_kind = {(r.target, r.covariate, r.method): r for r in out}
        test = by_kind[("ha", "hof_idv", "pearson")]
        assert test.n == 4  # one observation per origin country

        # Independent recomputation of the group means.
        from homedest.stats import pearson as ref_pearson

        groups: dict[str, list] = {}
        for row in rows:
            groups.setdefault(row.nationality, []).append(row)
        xs, ys = [], []
        for country in sorted(groups):
            members = groups[country]
            xs.append(sum(r.covariates["hof_idv"] for r in members) / len(members))
            ys.append(sum(r.ha for r in members) / len(members))
        ref = ref_pearson(xs, ys)
        assert test.r == pytest.approx(ref.statistic, abs=1e-15)
        assert test.p_value == pytest.approx(ref.p_value, abs=1e-15)

    def test_small_groups_excluded_until_too_few_remain(self):
        # n=81 leaves origin groups of sizes 21, 20, 20, 20; demanding 21
        # keeps a single group, which is not enough to correlate.
        rows = _joined_population(n=81)
        with pytest.raises(ValueError):
            grouped_correlations(rows, min_group_size=21)

    def test_too_few_groups_rejected(self):
        rows = _joined_population(n=40)
        with pytest.raises(ValueError):
            grouped_correlations(rows, min_group_size=11)


def test_write_correlations_format(tmp_path):
    rows = _joined_population()
    out = individual_correlations(rows)
    path = tmp_path / "corr.csv"
    write_table(path, CORRELATION_COLUMNS, out, header=["config_hash=abc seed=1 version=0"])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# config_hash=abc seed=1 version=0"
    assert lines[1] == "target,covariate,method,r,p_value,n,stars"
    assert len(lines) == 2 + len(out)
    # repr round-trip of the first data row's r
    first = lines[2].split(",")
    assert float(first[3]) == out[0].r
    assert first[6] == significance_stars(out[0].p_value)
