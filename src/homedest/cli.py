"""Command-line pipeline: synth, label, atlas, score, null, stats, correlate, report.

Every command works inside a workspace directory (``--out``), reading the
artifacts earlier stages wrote there and adding its own. All outputs are
deterministic for a given configuration and carry a comment header with a
short hash of the effective configuration, the seed, and the package
version, so two runs can be diffed byte for byte. Each command's inputs,
outputs and options are declared once, in ``COMMANDS``, which the parser,
the option checks and the missing-input errors all read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

from . import __version__
from .atlas import DEFAULT_ENTROPY_THRESHOLD, INTERNATIONAL, build_atlas, read_atlas, write_atlas
from .attachment import (
    DEFAULT_MIN_HASHTAGS,
    apply_acculturation,
    atlas_coverage,
    compute_scores,
    language_cohorts,
    read_scores,
    write_scores,
)
from .corpus import Corpus, LoadStats, file_sha256, load_friends, load_posts, read_corpus, write_corpus
from .covariates import (
    CORRELATION_COLUMNS,
    DEFAULT_MIN_GROUP_SIZE,
    grouped_correlations,
    individual_correlations,
    join_covariates,
    load_country_languages,
    load_hofstede,
    load_pair_covariates,
    packaged_data_path,
)
from .labeling import label_population, read_profiles, write_lang_fractions, write_profiles
from .nullmodel import DEFAULT_REPLICATES, null_distribution, read_null_indices, write_null_scores
from .reporting import REPORT_COLUMNS, report_rows
from .stats import TEST_RESULT_COLUMNS, ks_two_sample, pearson, spearman, wilcoxon_rank_sum
from .synth import POPULATION_FILES, PopulationSpec, generate_population, write_population
from .tables import TableError, write_table

logger = logging.getLogger(__name__)

FILES = {
    **POPULATION_FILES,
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

# Inputs a flag can name (``--null-scores`` for null_scores), with its help.
# The default is the workspace file in FILES, else the bundled table.
INPUTS = {
    "posts": "posts JSONL",
    "friends": "friends CSV",
    "profiles": "profiles CSV",
    "atlas": "atlas CSV",
    "scores": "scores CSV",
    "null_scores": "null scores CSV",
    "pair_covariates": "pair covariate CSV",
    "hofstede": "cultural dimension CSV",
}

# The JSON types of the config values each option type accepts.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


class Option(NamedTuple):
    """A command option, flag ``--name`` (``_`` as ``-``) and config key ``name``."""

    name: str
    type: type
    default: object
    help: str
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] | None = None

    def resolve(self, value, config: dict):
        """Effective value, explicit flag (``value``) > config file > default, checked."""
        if value is None:
            if self.name not in config:
                return self.default
            value = config[self.name]
            if type(value) not in _JSON_TYPES[self.type]:
                _fail(f"config key {self.name} must be {_TYPE_NAMES[self.type]}, got {json.dumps(value)}")
        if self.choices and value not in self.choices:
            _fail(f"{_flag(self.name)} must be one of {', '.join(self.choices)}, got {json.dumps(value)}")
        if self.high is not None and not self.low <= value <= self.high:
            _fail(f"{_flag(self.name)} must lie in [{self.low:g}, {self.high:g}], got {value}")
        if self.low is not None and value < self.low:
            _fail(f"{_flag(self.name)} must be at least {self.low:g}, got {value}")
        return self.type(value)  # after the checks: a JSON integer too large for a float fails them


class Command(NamedTuple):
    """A command: its function, help, required and optional inputs, outputs and options."""

    func: Callable[[Run], int]
    help: str
    inputs: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    options: tuple[Option, ...] = ()


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


def _default_input(out: Path, key: str) -> Path:
    return out / FILES[key] if key in FILES else packaged_data_path(f"{key}.csv")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        _fail(f"cannot read config {path}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(f"config {path} is not JSON: {exc}")
    if not isinstance(config, dict):
        _fail(f"config {path} must be a JSON object")
    return config


class Run(SimpleNamespace):
    """One command's checked option values and paths, as attributes."""

    def header(self, **extra) -> list[str]:
        """Artifact header: a hash of the command, its options and ``extra``, the ``seed`` option and the version."""
        config = {"command": self.command, **self.options, **extra}
        seed = config.pop("seed", 0)
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return [f"config_hash={hashlib.sha256(canonical).hexdigest()[:12]} seed={seed} version={__version__}"]


def _resolve(name: str, args: argparse.Namespace) -> Run:
    """The run of command ``name``: its options, then its workspace, then its inputs.

    A missing input is an error that names the command writing it, if one
    does. Only an optional input that no flag names may be absent: it is
    then None.
    """
    command = COMMANDS[name]
    config = _load_config(args.config)
    options = {o.name: o.resolve(getattr(args, o.name), config) for o in command.options}
    run = Run(command=name, options=options, out=Path(args.out), **options)
    run.out.mkdir(parents=True, exist_ok=True)
    for key in command.outputs:
        setattr(run, key, run.out / FILES[key])
    for key in command.inputs + command.optional:
        named = getattr(args, key, None)
        path = Path(named or _default_input(run.out, key))
        if not path.exists():
            if key in command.optional and not named:
                path = None
            else:
                producer = next((n for n, c in COMMANDS.items() if key in c.outputs), None)
                _fail(f"{path} not found" + (f"; run `homedest {producer}` first" if producer else ""))
        setattr(run, key, path)
    return run


# ---------------------------------------------------------------- commands


def cmd_synth(run) -> int:
    countries = tuple(c.strip().upper() for c in (run.countries or "").split(",") if c.strip())
    try:
        spec = PopulationSpec(
            n_users=run.users,
            migrant_fraction=run.migrant_fraction,
            tags_per_user=(run.tags_min, run.tags_max),
            country_tag_specificity=run.specificity,
            noise=run.noise,
            seed=run.seed,
            year=run.year,
            **({"countries": countries} if countries else {}),
        )
        spec.validate()
    except ValueError as exc:
        _fail(f"bad population spec: {exc}")
    paths = write_population(generate_population(spec), run.out)
    logger.info("wrote %s", ", ".join(str(p) for p in paths.values()))
    return 0


def cmd_label(run) -> int:
    corpus, stats = _load_corpus(run.posts, run.out)
    if stats is None:
        print(f"posts: {corpus.n_posts} loaded from {FILES['corpus']}")
    else:
        print(f"posts: {stats.lines} lines, {stats.loaded} loaded, {stats.skipped_text()}")
    friends = load_friends(run.friends)
    print(
        f"friends: {friends.n_edges} edges, {friends.n_duplicates} duplicates, {friends.n_self_loops} self-loops "
        f"and {friends.n_empty} rows with an empty id dropped"
    )
    profiles, summary = label_population(corpus, friends, run.year)
    print(
        f"friend edges: {summary.n_edges_without_posts} of {friends.n_edges} have an end with no posts "
        "and carry no evidence"
    )
    funnel = (
        f"{summary.n_users} users: {summary.n_with_residence} with a residence, "
        f"{summary.n_with_nationality} with a nationality, {summary.n_with_both} with both, "
        f"{summary.n_migrants} migrants"
    )
    if not summary.n_with_both:
        _fail(f"no user has both a residence in {run.year} and a nationality: {funnel}")
    header = run.header()
    write_profiles(run.profiles, profiles, header)
    write_lang_fractions(run.lang_fractions, corpus, header)
    print(f"labeled {funnel}")
    return 0


def cmd_atlas(run) -> int:
    corpus, _ = _load_corpus(run.posts, run.out)
    profiles = read_profiles(run.profiles)
    atlas = build_atlas(corpus, profiles, run.year, threshold=run.entropy_threshold)
    n_intl = sum(1 for r in atlas.values() if r.assignment == INTERNATIONAL)
    if n_intl == len(atlas):
        _fail(f"no hashtag of {run.year} is assigned to a country: {len(atlas)} hashtags, {n_intl} international")
    write_atlas(run.atlas, atlas, run.header(), run.atlas_distributions)
    print(f"atlas: {len(atlas)} hashtags, {n_intl} international")
    return 0


def cmd_score(run) -> int:
    corpus, _ = _load_corpus(run.posts, run.out)
    profiles = read_profiles(run.profiles)
    atlas = read_atlas(run.atlas)
    scores = compute_scores(corpus, profiles, atlas, run.year, min_hashtags=run.min_hashtags)
    n_migrants = sum(profile.is_migrant is True for profile in profiles.values())
    if not scores:
        _fail(f"none of {n_migrants} labelled migrants passed the hashtag volume filter (--min-hashtags {run.min_hashtags})")
    coverage = atlas_coverage(corpus, scores, atlas, run.year)
    covered = f"atlas coverage of their {sum(coverage.values())} uses in {run.year}: " + ", ".join(
        f"{count} {kind}" for kind, count in coverage.items()
    )
    if not coverage["home"] + coverage["destination"]:
        _fail(
            f"{run.atlas}: no hashtag use of the {len(scores)} scored migrants is assigned to their home or "
            f"destination; {covered}"
        )
    scores, ha_split, da_split = apply_acculturation(scores)
    scores, n_missing_language, n_untagged = language_cohorts(scores, corpus, load_country_languages())
    write_scores(run.scores, scores, run.header(ha_split=ha_split, da_split=da_split))
    cohorts = Counter(score.speaks_dest_lang for score in scores)
    print(
        f"scored {len(scores)} migrants of {n_migrants} labelled, {n_migrants - len(scores)} below "
        f"--min-hashtags {run.min_hashtags} (median splits ha={ha_split:.4f}, da={da_split:.4f})"
    )
    print(covered)
    print(
        f"language cohorts: {cohorts[True]} speakers, {cohorts[False]} non-speakers, "
        f"{cohorts[None]} unclassified, of which {n_missing_language} "
        f"with a residence missing from the language table and {n_untagged} with no language-tagged post"
    )
    return 0


def cmd_null(run) -> int:
    scores = read_scores(run.scores)
    if not scores:
        _fail(f"{run.scores}: no scores to shuffle")
    atlas = read_atlas(run.atlas)
    corpus, _ = _load_corpus(run.posts, run.out)
    try:
        # The command's options are null_distribution's own parameters.
        runs = null_distribution(corpus, scores, atlas, **run.options)
    except ValueError as exc:  # a scores row that the posts, atlas and year do not give
        _fail(f"{run.scores}: {exc}")
    write_null_scores(run.null_scores, runs, run.header())
    print(f"null model: {len(runs)} replicates, {len(runs) * len(runs[0].who)} score rows")
    return 0


def cmd_stats(run) -> int:
    scores = read_scores(run.scores)
    ha = [s.ha for s in scores]
    da = [s.da for s in scores]
    ha0, da0 = read_null_indices(run.null_scores, [s.user_id for s in scores], run.scores)

    rows = []
    for comparison, x, y, tests in (
        ("ha_vs_null", ha, ha0, (wilcoxon_rank_sum, ks_two_sample)),
        ("da_vs_null", da, da0, (wilcoxon_rank_sum, ks_two_sample)),
        ("ha_vs_da", ha, da, (pearson, spearman)),
    ):
        try:
            rows.extend((comparison, test(x, y)) for test in tests)
        except ValueError as exc:  # such as an empty sample, or a constant one for a correlation
            _fail(f"cannot test {comparison} on {len(x)} and {len(y)} values: {exc}")

    write_table(
        run.test_results,
        TEST_RESULT_COLUMNS,
        ((comparison, t.method, t.statistic, t.p_value, t.n1, t.n2, t.stars) for comparison, t in rows),
        run.header(),
    )
    for comparison, test in rows:
        print(
            f"{comparison:12s} {test.method:22s} stat={test.statistic:.6g} "
            f"p={test.p_value:.3g} {test.stars}"
        )
    return 0


def cmd_correlate(run) -> int:
    scores = read_scores(run.scores)
    hofstede = load_hofstede(run.hofstede)
    pairs = load_pair_covariates(run.pair_covariates) if run.pair_covariates else None

    joined, dropped = join_covariates(scores, hofstede, pairs, signed=run.signed_deltas)
    try:
        individual = individual_correlations(joined)
    except ValueError as exc:  # fewer than 3 users joined
        _fail(f"{exc}, {dropped} dropped")
    header = run.header()
    write_table(run.correlations_individual, CORRELATION_COLUMNS, individual, header)
    try:
        grouped = grouped_correlations(joined, min_group_size=run.min_group_size)
    except ValueError as exc:
        print(f"grouped correlations skipped: {exc}", file=sys.stderr)
        grouped = []
    write_table(run.correlations_grouped, CORRELATION_COLUMNS, grouped, header)
    print(
        f"correlated {len(joined)} users ({dropped} dropped): "
        f"{len(individual)} individual rows, {len(grouped)} grouped rows"
    )
    return 0


def cmd_report(run) -> int:
    profiles = read_profiles(run.profiles)
    if not profiles:
        _fail(f"{run.profiles}: no profiles to report")
    atlas = read_atlas(run.atlas)
    if not atlas:
        _fail(f"{run.atlas}: no hashtags to report")
    scores = read_scores(run.scores)
    if not scores:
        _fail(f"{run.scores}: no scores to report")
    null = read_null_indices(run.null_scores, [s.user_id for s in scores], run.scores) if run.null_scores else None
    if null is not None and not null[0].size:
        _fail(f"{run.null_scores}: no null scores to report")

    report_dir = run.out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    header = run.header()
    tables = report_rows(profiles, atlas, scores, null)
    for (name, columns), rows in zip(REPORT_COLUMNS.items(), tables, strict=True):
        write_table(report_dir / name, columns, rows, header)
    print(f"report written to {report_dir}")
    return 0


# ---------------------------------------------------------------- table and parser

YEAR = Option("year", int, 2018, "reference year")

COMMANDS = {
    "synth": Command(
        cmd_synth, "generate a synthetic population",
        outputs=("posts", "friends", "ground_truth", "pair_covariates"),
        options=(
            Option("users", int, 10_000, "population size", low=1),
            Option("migrant_fraction", float, 0.1, "share of migrants", 0.0, 1.0),
            Option("countries", str, None, "comma-separated ISO alpha-2 codes"),
            Option("tags_min", int, 20, "fewest hashtag uses per user"),
            Option("tags_max", int, 60, "most hashtag uses per user"),
            Option("specificity", float, 0.8, "own-country tag rate", 0.0, 1.0),
            Option("noise", float, 0.0, "scrambled-country tag rate", 0.0, 1.0),
            Option("seed", int, 42, "generator seed", low=0),
            YEAR,
        ),
    ),
    "label": Command(
        cmd_label, "assign residence and nationality",
        inputs=("posts", "friends"), outputs=("profiles", "lang_fractions"), options=(YEAR,),
    ),
    "atlas": Command(
        cmd_atlas, "build the hashtag-country atlas",
        inputs=("posts", "profiles"), outputs=("atlas", "atlas_distributions"),
        options=(
            YEAR,
            Option("entropy_threshold", float, DEFAULT_ENTROPY_THRESHOLD, "assignment entropy cutoff", 0.0, 1.0),
        ),
    ),
    "score": Command(
        cmd_score, "compute attachment scores",
        inputs=("posts", "profiles", "atlas"), outputs=("scores",),
        options=(
            YEAR,
            Option("min_hashtags", int, DEFAULT_MIN_HASHTAGS, "minimum in-year hashtag uses", low=1),
        ),
    ),
    "null": Command(
        cmd_null, "volume-preserving shuffled baseline",
        inputs=("posts", "atlas", "scores"), outputs=("null_scores",),
        options=(
            YEAR,
            Option("replicates", int, DEFAULT_REPLICATES, "shuffle replicates", low=1),
            Option("seed", int, 0, "base shuffle seed", low=0),
            Option("shuffle_population", str, "scored", "whose hashtags get pooled", choices=("scored", "all")),
        ),
    ),
    "stats": Command(
        cmd_stats, "observed-vs-null test battery",
        inputs=("scores", "null_scores"), outputs=("test_results",),
    ),
    "correlate": Command(
        cmd_correlate, "covariate correlations",
        inputs=("scores", "hofstede"), optional=("pair_covariates",),
        outputs=("correlations_individual", "correlations_grouped"),
        options=(
            Option("min_group_size", int, DEFAULT_MIN_GROUP_SIZE, "smallest group correlated", low=1),
            Option("signed_deltas", bool, False, "keep the sign of cultural deltas (default absolute)"),
        ),
    ),
    "report": Command(
        cmd_report, "figure-ready summary tables",
        inputs=("profiles", "atlas", "scores"), optional=("null_scores",),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homedest",
        description="Hashtag-based home/destination attachment pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = subparsers.add_parser(name, help=command.help)
        for option in command.options:
            if option.type is bool:
                kind, default = {"action": "store_const", "const": True}, ""
            else:
                kind = {"type": option.type, "choices": option.choices}
                default = "" if option.default is None else f" (default {option.default})"
            p.add_argument(_flag(option.name), dest=option.name, help=option.help + default, **kind)
        for key in command.inputs + command.optional:
            if key in INPUTS:
                default = f"OUT/{FILES[key]}" if key in FILES else "bundled"
                p.add_argument(_flag(key), dest=key, help=f"{INPUTS[key]} (default {default})")
        p.add_argument("--out", default=".", help="workspace directory (default: .)")
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        status = COMMANDS[args.command].func(_resolve(args.command, args))
        sys.stdout.flush()  # so a reader that has gone shows here, not at exit
        return status
    except BrokenPipeError:
        # Not an input error: silence stdout for the exit-time flush (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TableError, OSError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
