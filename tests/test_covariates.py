"""Covariate tables, score joins, and the two correlation levels."""

from __future__ import annotations

import numpy as np
import pytest

from homedest.attachment import AttachmentScore
from homedest.covariates import (
    CORRELATION_COLUMNS,
    COVARIATES,
    grouped_correlations,
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


class TestPairCovariates:
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


def _covariates(joined, user):
    """Covariate name -> value (NaN when missing) of joined user ``user``'s pair."""
    return dict(zip(COVARIATES, joined.values[joined.pair[user]].tolist()))


class TestJoin:
    def test_join_and_drop_count(self):
        scores = [
            _score("u1", "IT", "DE", 0.3, 0.2),
            _score("u2", "ZZ", "QQ", 0.1, 0.1),  # nothing resolves
        ]
        joined, dropped = join_covariates(scores, hofstede=load_hofstede())
        assert dropped == 1
        assert len(joined) == 1
        assert joined.pairs[joined.pair[0]] == ("IT", "DE")
        assert joined.ha.tolist() == [0.3]
        idv = joined.values[joined.pair[0], COVARIATES.index("hof_idv")]
        assert idv == pytest.approx(abs(76.0 - 67.0))

    def test_pair_values_merge_with_deltas(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(
            "country_a,country_b,distcap,contig,comlang_off,csl,cnl\nDE,IT,1181.0,1,0,0,0\n"
        )
        joined, dropped = join_covariates(
            [_score("u1", "IT", "DE", 0.3, 0.2)],
            hofstede=load_hofstede(),
            pairs=load_pair_covariates(p),
        )
        assert dropped == 0
        covariates = _covariates(joined, 0)
        assert covariates["distcap"] == 1181.0
        assert not np.isnan(covariates["hof_pdi"])

    def test_a_pair_is_found_in_either_order(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("country_a,country_b,distcap,contig,comlang_off,csl,cnl\nDE,IT,1181.0,1,0,0.03,0.01\n")
        scores = [_score("u1", "IT", "DE", 0.3, 0.2), _score("u2", "DE", "IT", 0.1, 0.4), _score("u3", "IT", "FR", 0.2, 0.2)]
        joined, dropped = join_covariates(scores, pairs=load_pair_covariates(p))
        assert dropped == 1  # IT -> FR has no row
        assert joined.pairs[:2] == [("IT", "DE"), ("DE", "IT")]
        assert np.array_equal(*joined.values[joined.pair], equal_nan=True)
        assert _covariates(joined, 0)["distcap"] == 1181.0

    def test_blank_pair_cells_read_as_missing(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("country_a,country_b,distcap,contig,comlang_off,csl,cnl\nAA,BB,5.0,,,,\nAA,CC,,,,,\n")
        joined, dropped = join_covariates(
            [_score("u1", "AA", "BB", 0.3, 0.2), _score("u2", "CC", "AA", 0.3, 0.2)], pairs=load_pair_covariates(p)
        )
        assert dropped == 1  # a row of blank cells resolves nothing
        covariates = _covariates(joined, 0)
        assert covariates["distcap"] == 5.0
        assert all(np.isnan(value) for name, value in covariates.items() if name != "distcap")

    def test_absolute_deltas_by_default_signed_on_request(self):
        scores = [_score("u1", "IT", "US", 0.3, 0.2), _score("u2", "US", "IT", 0.3, 0.2)]
        absolute, _ = join_covariates(scores, hofstede=load_hofstede())
        signed, _ = join_covariates(scores, hofstede=load_hofstede(), signed=True)
        assert [_covariates(absolute, i)["hof_idv"] for i in (0, 1)] == [15.0, 15.0]  # |91 - 76|
        assert [_covariates(signed, i)["hof_idv"] for i in (0, 1)] == [15.0, -15.0]
        assert np.nanmin(absolute.values) >= 0

    def test_unknown_country_resolves_no_delta(self):
        joined, dropped = join_covariates([_score("u1", "ZZ", "US", 0.3, 0.2)], hofstede=load_hofstede())
        assert (dropped, len(joined)) == (1, 0)
        assert np.isnan(joined.values).all()

    def test_a_dimension_one_side_lacks_stays_missing(self):
        hofstede = {"AA": {"pdi": 10.0}, "BB": {"pdi": 30.0, "idv": 5.0}}
        joined, _ = join_covariates([_score("u1", "AA", "BB", 0.3, 0.2)], hofstede=hofstede)
        covariates = _covariates(joined, 0)
        assert covariates.pop("hof_pdi") == 20.0
        assert all(np.isnan(value) for value in covariates.values())


def _population(n=40, seed=5):
    """Synthetic scores over 4 origin and 3 destination countries."""
    rng = np.random.default_rng(seed)
    return [
        _score(
            f"u{i:03d}",
            ("IT", "FR", "ES", "PL")[i % 4],
            ("DE", "GB", "NL")[i % 3],
            float(rng.uniform(0, 0.6)),
            float(rng.uniform(0, 0.4)),
        )
        for i in range(n)
    ]


def _joined_population(n=40, seed=5):
    """The scores of _population joined to the bundled cultural table."""
    joined, _ = join_covariates(_population(n, seed), hofstede=load_hofstede())
    return joined


class TestIndividualCorrelations:
    def test_covariates_only_with_both_methods(self):
        rows = _joined_population()
        out = individual_correlations(rows)
        kinds = {(r.target, r.covariate, r.method) for r in out}
        assert not any(covariate == "da" for _, covariate, _ in kinds)  # ha against da is stats' ha_vs_da
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
        # covariate columns are silently dropped, and no row is left.
        scores = [_score(f"u{i}", "IT", "DE", 0.1 * i, 0.05 * i + 0.01) for i in range(1, 6)]
        rows, _ = join_covariates(scores, hofstede=load_hofstede())
        assert individual_correlations(rows) == []


class TestGroupedCorrelations:
    def test_group_means_are_used(self):
        scores = _population(n=80)
        hofstede = load_hofstede()
        joined, _ = join_covariates(scores, hofstede=hofstede)
        out = grouped_correlations(joined, min_group_size=2)
        by_kind = {(r.target, r.covariate, r.method): r for r in out}
        test = by_kind[("ha", "hof_idv", "pearson")]
        assert test.n == 4  # one observation per origin country

        # Independent recomputation of the group means, from the scores themselves.
        from homedest.stats import pearson as ref_pearson

        groups: dict[str, list[AttachmentScore]] = {}
        for score in scores:
            groups.setdefault(score.nationality, []).append(score)
        xs, ys = [], []
        for country in sorted(groups):
            members = groups[country]
            deltas = [abs(hofstede[s.residence]["idv"] - hofstede[s.nationality]["idv"]) for s in members]
            xs.append(sum(deltas) / len(deltas))
            ys.append(sum(s.ha for s in members) / len(members))
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
