"""Command-line pipeline: synth, label, atlas, score, null, stats, correlate, report.

Every command works inside a workspace directory (``--out``), reading the
artifacts earlier stages wrote there and adding its own. All outputs are
deterministic for a given configuration and carry a comment header with a
short hash of the effective configuration, the seed, and the package
version, so two runs can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .atlas import DEFAULT_ENTROPY_THRESHOLD, build_atlas, read_atlas, write_atlas
from .attachment import (
    DEFAULT_MIN_HASHTAGS,
    apply_acculturation,
    compute_scores,
    language_cohorts,
    read_scores,
    write_scores,
)
from .corpus import Corpus, LoadStats, file_sha256, load_friends, load_posts, read_corpus, write_corpus
from .covariates import (
    grouped_correlations,
    individual_correlations,
    join_covariates,
    load_country_languages,
    load_hofstede,
    load_pair_covariates,
    write_correlations,
)
from .labeling import label_population, read_profiles, write_lang_fractions, write_profiles
from .nullmodel import DEFAULT_REPLICATES, null_distribution
from .reporting import (
    attachment_series,
    chord_edges,
    group_boxplots,
    scatter_rows,
    write_attachment_series,
    write_boxplots,
    write_chord_edges,
    write_entropy_histogram,
    write_scatter,
)
from .stats import ks_two_sample, pearson, spearman, wilcoxon_rank_sum
from .synth import PopulationSpec, generate
from .tables import TableError, write_table

logger = logging.getLogger(__name__)

DEFAULT_YEAR = 2018

FILES = {
    "posts": "posts.jsonl",
    "friends": "friends.csv",
    "ground_truth": "ground_truth.csv",
    "pair_covariates": "pair_covariates.csv",
    "corpus": "corpus.npz",
    "profiles": "profiles.csv",
    "lang_fractions": "lang_fractions.csv",
    "atlas": "atlas.csv",
    "atlas_distributions": "atlas_distributions.csv",
    "scores": "scores.csv",
    "null_scores": "null_scores.csv",
    "test_results": "test_results.csv",
    "correlations_individual": "correlations_individual.csv",
    "correlations_grouped": "correlations_grouped.csv",
}

REPORT_FILES = (
    "chord_edges.csv",
    "entropy_histogram.csv",
    "attachment_distributions.csv",
    "ha_vs_da_scatter.csv",
    "group_boxplots.csv",
)

_PRODUCERS = {
    "posts": "synth",
    "friends": "synth",
    "ground_truth": "synth",
    "pair_covariates": "synth",
    "profiles": "label",
    "lang_fractions": "label",
    "atlas": "atlas",
    "scores": "score",
    "null_scores": "null",
}


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _header(config: dict, seed: int) -> list[str]:
    """Comment header of an artifact: config hash, seed and package version."""
    return [f"config_hash={_config_hash(config)} seed={seed} version={__version__}"]


def _workspace(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _artifact(args, out: Path, key: str) -> Path:
    override = getattr(args, key, None)
    return Path(override) if override else out / FILES[key]


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require(path: Path, key: str) -> Path:
    if not path.exists():
        producer = _PRODUCERS.get(key)
        hint = f"; run `homedest {producer}` first" if producer else ""
        _fail(f"{path} not found{hint}")
    return path


def _load_corpus(path: Path, out: Path) -> tuple[Corpus, LoadStats | None]:
    """The posts file as a Corpus, parsed once per workspace, and its load stats.

    The workspace's corpus cache is used when its key matches the posts
    file's sha256, and the stats are then None; otherwise the file is parsed
    and the cache rewritten.
    """
    cache = out / FILES["corpus"]
    digest = file_sha256(path)
    corpus = read_corpus(cache, digest)
    if corpus is not None:
        return corpus, None
    corpus, stats = load_posts(path)
    if not corpus.n_posts:
        _fail(f"no posts loaded from {path}: {stats.lines} lines, {stats.skipped_text()}")
    write_corpus(cache, corpus, digest)
    return corpus, stats


def _min_hashtags(args, config: dict) -> int:
    min_hashtags = int(_opt(args, config, "min_hashtags", DEFAULT_MIN_HASHTAGS))
    if min_hashtags < 1:
        _fail(f"--min-hashtags must be at least 1, got {min_hashtags}")
    return min_hashtags


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        _fail(f"config {args.config} must be a JSON object")
    return config


def _opt(args, config: dict, name: str, default):
    """Effective option value: explicit flag > config file > default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    config = _load_config(args)
    countries = _opt(args, config, "countries", None)
    if isinstance(countries, str):
        countries = tuple(c.strip().upper() for c in countries.split(",") if c.strip())
    spec_kwargs = dict(
        n_users=int(_opt(args, config, "users", 10_000)),
        migrant_fraction=float(_opt(args, config, "migrant_fraction", 0.1)),
        tags_per_user=(
            int(_opt(args, config, "tags_min", 20)),
            int(_opt(args, config, "tags_max", 60)),
        ),
        country_tag_specificity=float(_opt(args, config, "specificity", 0.8)),
        noise=float(_opt(args, config, "noise", 0.0)),
        seed=int(_opt(args, config, "seed", 42)),
        year=int(_opt(args, config, "year", DEFAULT_YEAR)),
    )
    if countries:
        spec_kwargs["countries"] = tuple(countries)
    spec = PopulationSpec(**spec_kwargs)
    out = _workspace(args)
    paths = generate(spec, out)
    logger.info("wrote %s", ", ".join(str(p) for p in paths.values()))
    return 0


def cmd_label(args) -> int:
    config = _load_config(args)
    year = int(_opt(args, config, "year", DEFAULT_YEAR))
    out = _workspace(args)
    posts_path = _require(_artifact(args, out, "posts"), "posts")
    friends_path = _require(_artifact(args, out, "friends"), "friends")

    posts, stats = _load_corpus(posts_path, out)
    if stats is None:
        print(f"posts: {posts.n_posts} loaded from {FILES['corpus']}")
    else:
        print(f"posts: {stats.lines} lines, {stats.loaded} loaded, {stats.skipped_text()}")
    friends = load_friends(friends_path)
    profiles, summary = label_population(posts, friends, year)
    header = _header({"command": "label", "year": year}, 0)
    write_profiles(out / FILES["profiles"], profiles, header)
    write_lang_fractions(out / FILES["lang_fractions"], profiles, header)
    print(
        f"labeled {summary.n_users} users: {summary.n_with_both} with both labels, "
        f"{summary.n_migrants} migrants"
    )
    return 0


def cmd_atlas(args) -> int:
    config = _load_config(args)
    year = int(_opt(args, config, "year", DEFAULT_YEAR))
    threshold = float(_opt(args, config, "entropy_threshold", DEFAULT_ENTROPY_THRESHOLD))
    if not 0.0 <= threshold <= 1.0:
        _fail(f"--entropy-threshold must lie in [0, 1], got {threshold}")
    out = _workspace(args)
    posts_path = _require(_artifact(args, out, "posts"), "posts")
    profiles_path = _require(_artifact(args, out, "profiles"), "profiles")

    posts, _ = _load_corpus(posts_path, out)
    profiles = read_profiles(profiles_path)
    atlas = build_atlas(posts, profiles, year, threshold=threshold)
    header = _header(
        {"command": "atlas", "year": year, "entropy_threshold": threshold}, 0
    )
    write_atlas(
        out / FILES["atlas"], atlas, header, out / FILES["atlas_distributions"]
    )
    n_intl = sum(1 for r in atlas.values() if r.assignment == "international")
    print(f"atlas: {len(atlas)} hashtags, {n_intl} international")
    return 0


def cmd_score(args) -> int:
    config = _load_config(args)
    year = int(_opt(args, config, "year", DEFAULT_YEAR))
    min_hashtags = _min_hashtags(args, config)
    out = _workspace(args)
    posts_path = _require(_artifact(args, out, "posts"), "posts")
    profiles_path = _require(_artifact(args, out, "profiles"), "profiles")
    atlas_path = _require(_artifact(args, out, "atlas"), "atlas")
    lang_path = _require(out / FILES["lang_fractions"], "lang_fractions")

    posts, _ = _load_corpus(posts_path, out)
    profiles = read_profiles(profiles_path, lang_path)
    atlas = read_atlas(atlas_path)
    scores = compute_scores(posts, profiles, atlas, year, min_hashtags=min_hashtags)
    if not scores:
        _fail("no migrants passed the hashtag volume filter")
    ha_split, da_split = apply_acculturation(scores)
    language_cohorts(scores, profiles, load_country_languages())
    header = _header(
        {
            "command": "score",
            "year": year,
            "min_hashtags": min_hashtags,
            "ha_split": ha_split,
            "da_split": da_split,
        },
        0,
    )
    write_scores(out / FILES["scores"], scores, header)
    print(
        f"scored {len(scores)} migrants "
        f"(median splits ha={ha_split:.4f}, da={da_split:.4f})"
    )
    return 0


def cmd_null(args) -> int:
    config = _load_config(args)
    year = int(_opt(args, config, "year", DEFAULT_YEAR))
    min_hashtags = _min_hashtags(args, config)
    replicates = int(_opt(args, config, "replicates", DEFAULT_REPLICATES))
    if replicates < 1:
        _fail(f"--replicates must be at least 1, got {replicates}")
    seed = int(_opt(args, config, "seed", 0))
    population = _opt(args, config, "shuffle_population", "scored")
    out = _workspace(args)
    posts_path = _require(_artifact(args, out, "posts"), "posts")
    profiles_path = _require(_artifact(args, out, "profiles"), "profiles")
    atlas_path = _require(_artifact(args, out, "atlas"), "atlas")

    posts, _ = _load_corpus(posts_path, out)
    profiles = read_profiles(profiles_path)
    atlas = read_atlas(atlas_path)
    runs = null_distribution(
        posts,
        profiles,
        atlas,
        year,
        replicates=replicates,
        seed=seed,
        min_hashtags=min_hashtags,
        shuffle_population=population,
    )
    header = _header(
        {
            "command": "null",
            "year": year,
            "min_hashtags": min_hashtags,
            "replicates": replicates,
            "shuffle_population": population,
        },
        seed,
    )
    write_scores(
        out / FILES["null_scores"],
        [s for run in runs for s in run.scores0],
        header,
        replicate=[run.replicate_index for run in runs for _ in run.scores0],
    )
    total = sum(len(run.scores0) for run in runs)
    print(f"null model: {len(runs)} replicates, {total} score rows")
    return 0


def cmd_stats(args) -> int:
    config = _load_config(args)
    out = _workspace(args)
    scores_path = _require(_artifact(args, out, "scores"), "scores")
    null_path = _require(_artifact(args, out, "null_scores"), "null_scores")

    scores = read_scores(scores_path)
    null_scores = read_scores(null_path)
    ha = [s.ha for s in scores]
    da = [s.da for s in scores]
    ha0 = [s.ha for s in null_scores]
    da0 = [s.da for s in null_scores]

    rows = []
    for comparison, x, y in (("ha_vs_null", ha, ha0), ("da_vs_null", da, da0)):
        for test in (wilcoxon_rank_sum(x, y), ks_two_sample(x, y)):
            rows.append((comparison, test))
    for test in (pearson(ha, da), spearman(ha, da)):
        rows.append(("ha_vs_da", test))

    write_table(
        out / FILES["test_results"],
        ("comparison", "method", "statistic", "p_value", "n1", "n2", "stars"),
        (
            (comparison, t.method, t.statistic, t.p_value, t.n1, t.n2, t.stars)
            for comparison, t in rows
        ),
        _header({"command": "stats"}, 0),
    )
    for comparison, test in rows:
        print(
            f"{comparison:12s} {test.method:22s} stat={test.statistic:.6g} "
            f"p={test.p_value:.3g} {test.stars}"
        )
    return 0


def cmd_correlate(args) -> int:
    config = _load_config(args)
    min_group = int(_opt(args, config, "min_group_size", 10))
    signed = bool(_opt(args, config, "signed_deltas", False))
    out = _workspace(args)
    scores_path = _require(_artifact(args, out, "scores"), "scores")

    scores = read_scores(scores_path)
    hofstede = load_hofstede(getattr(args, "hofstede", None))
    pairs_path = _artifact(args, out, "pair_covariates")
    pairs = load_pair_covariates(pairs_path) if pairs_path.exists() else None

    rows, dropped = join_covariates(scores, hofstede, pairs, signed=signed)
    if len(rows) < 3:
        _fail("fewer than 3 users joined to any covariate")
    individual = individual_correlations(rows)
    header = _header({"command": "correlate", "min_group_size": min_group, "signed": signed}, 0)
    write_correlations(out / FILES["correlations_individual"], individual, header)
    try:
        grouped = grouped_correlations(rows, min_group_size=min_group)
    except ValueError as exc:
        print(f"grouped correlations skipped: {exc}", file=sys.stderr)
        grouped = []
    write_correlations(out / FILES["correlations_grouped"], grouped, header)
    print(
        f"correlated {len(rows)} users ({dropped} dropped): "
        f"{len(individual)} individual rows, {len(grouped)} grouped rows"
    )
    return 0


def cmd_report(args) -> int:
    config = _load_config(args)
    out = _workspace(args)
    profiles_path = _require(_artifact(args, out, "profiles"), "profiles")
    atlas_path = _require(_artifact(args, out, "atlas"), "atlas")
    scores_path = _require(_artifact(args, out, "scores"), "scores")

    profiles = read_profiles(profiles_path)
    atlas = read_atlas(atlas_path)
    scores = read_scores(scores_path)
    null_path = _artifact(args, out, "null_scores")
    null_scores = read_scores(null_path) if null_path.exists() else []

    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    header = _header({"command": "report"}, 0)
    write_chord_edges(report_dir / "chord_edges.csv", chord_edges(profiles), header)
    write_entropy_histogram(report_dir / "entropy_histogram.csv", atlas, header=header)
    write_attachment_series(
        report_dir / "attachment_distributions.csv",
        attachment_series(scores, null_scores),
        header,
    )
    write_scatter(report_dir / "ha_vs_da_scatter.csv", scatter_rows(scores), header)
    write_boxplots(report_dir / "group_boxplots.csv", group_boxplots(scores), header)
    print(f"report written to {report_dir}")
    return 0


# ---------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=".", help="workspace directory (default: .)")
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homedest",
        description="Hashtag-based home/destination attachment pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("synth", help="generate a synthetic population")
    p.add_argument("--users", type=int, help="population size (default 10000)")
    p.add_argument("--migrant-fraction", dest="migrant_fraction", type=float)
    p.add_argument("--countries", help="comma-separated ISO alpha-2 codes")
    p.add_argument("--tags-min", dest="tags_min", type=int)
    p.add_argument("--tags-max", dest="tags_max", type=int)
    p.add_argument("--specificity", type=float, help="own-country tag rate (default 0.8)")
    p.add_argument("--noise", type=float, help="scrambled-country tag rate (default 0)")
    p.add_argument("--seed", type=int, help="generator seed (default 42)")
    p.add_argument("--year", type=int, help=f"reference year (default {DEFAULT_YEAR})")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subparsers.add_parser("label", help="assign residence and nationality")
    p.add_argument("--year", type=int, help=f"reference year (default {DEFAULT_YEAR})")
    p.add_argument("--posts", help="posts JSONL (default OUT/posts.jsonl)")
    p.add_argument("--friends", help="friends CSV (default OUT/friends.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_label)

    p = subparsers.add_parser("atlas", help="build the hashtag-country atlas")
    p.add_argument("--year", type=int)
    p.add_argument(
        "--entropy-threshold",
        dest="entropy_threshold",
        type=float,
        help=f"assignment entropy cutoff (default {DEFAULT_ENTROPY_THRESHOLD})",
    )
    p.add_argument("--posts", help="posts JSONL (default OUT/posts.jsonl)")
    p.add_argument("--profiles", help="profiles CSV (default OUT/profiles.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_atlas)

    p = subparsers.add_parser("score", help="compute attachment scores")
    p.add_argument("--year", type=int)
    p.add_argument(
        "--min-hashtags",
        dest="min_hashtags",
        type=int,
        help=f"minimum in-year hashtag uses (default {DEFAULT_MIN_HASHTAGS})",
    )
    p.add_argument("--posts", help="posts JSONL (default OUT/posts.jsonl)")
    p.add_argument("--profiles", help="profiles CSV (default OUT/profiles.csv)")
    p.add_argument("--atlas", help="atlas CSV (default OUT/atlas.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = subparsers.add_parser("null", help="volume-preserving shuffled baseline")
    p.add_argument("--year", type=int)
    p.add_argument("--min-hashtags", dest="min_hashtags", type=int)
    p.add_argument(
        "--replicates", type=int, help=f"shuffle replicates (default {DEFAULT_REPLICATES})"
    )
    p.add_argument("--seed", type=int, help="base shuffle seed (default 0)")
    p.add_argument(
        "--shuffle-population",
        dest="shuffle_population",
        choices=("scored", "all"),
        help="whose hashtags get pooled (default scored)",
    )
    p.add_argument("--posts", help="posts JSONL (default OUT/posts.jsonl)")
    p.add_argument("--profiles", help="profiles CSV (default OUT/profiles.csv)")
    p.add_argument("--atlas", help="atlas CSV (default OUT/atlas.csv)")
    _add_common(p)
    p.set_defaults(func=cmd_null)

    p = subparsers.add_parser("stats", help="observed-vs-null test battery")
    p.add_argument("--scores", help="scores CSV (default OUT/scores.csv)")
    p.add_argument("--null-scores", dest="null_scores", help="null scores CSV")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("correlate", help="covariate correlations")
    p.add_argument("--scores", help="scores CSV (default OUT/scores.csv)")
    p.add_argument("--hofstede", help="cultural dimension CSV (default: bundled)")
    p.add_argument(
        "--pair-covariates",
        dest="pair_covariates",
        help="pair covariate CSV (default OUT/pair_covariates.csv)",
    )
    p.add_argument("--min-group-size", dest="min_group_size", type=int)
    p.add_argument(
        "--signed-deltas",
        dest="signed_deltas",
        action="store_const",
        const=True,
        help="keep the sign of cultural deltas (default absolute)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = subparsers.add_parser("report", help="figure-ready summary tables")
    p.add_argument("--profiles", help="profiles CSV (default OUT/profiles.csv)")
    p.add_argument("--atlas", help="atlas CSV (default OUT/atlas.csv)")
    p.add_argument("--scores", help="scores CSV (default OUT/scores.csv)")
    p.add_argument("--null-scores", dest="null_scores", help="null scores CSV")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except TableError as exc:
        _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
