"""Traced run of one ``homedest`` command, and the per-layer metrics of a chain.

Run as a script, ``python traced.py SPANS_JSON COMMAND [ARGS...]`` wraps
from outside every public function of a layer module that
``homedest.cli``, ``homedest.nullmodel`` or ``homedest.covariates`` holds
under a name, so calls across a layer boundary get a span (name, start,
end, parent, facts drawn from the return value). ``canonicalize_hashtag``
is called per hashtag use, so it is only counted. The script then calls
``homedest.cli.main`` and writes the spans once, when the command ends.

``layer_metrics`` turns the span files of one chain into the per-layer
metrics. A metric whose source function no longer exists is reported as
absent (None), never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "corpus", "labeling", "atlas", "attachment", "nullmodel",
    "stats", "covariates", "reporting", "cli",
)
PATCHED = ("homedest.cli", "homedest.nullmodel", "homedest.covariates")
COUNTED = "corpus.canonicalize_hashtag"
STATS_FUNCTIONS = (
    "stats.wilcoxon_rank_sum", "stats.ks_two_sample", "stats.pearson", "stats.spearman",
)
IO = {
    "labeling.io.s": ("labeling.read_profiles", "labeling.write_profiles", "labeling.write_lang_fractions"),
    "atlas.io.s": ("atlas.read_atlas", "atlas.write_atlas"),
    "attachment.io.s": ("attachment.read_scores", "attachment.write_scores"),
}
# Metrics whose name does not start with the one function they come from.
DEPENDS = {
    **IO,
    "nullmodel.rescore.s": ("nullmodel.null_distribution", "attachment.compute_scores"),
    "nullmodel.replicate_s": ("nullmodel.null_distribution",),
    "nullmodel.rows": ("nullmodel.null_distribution",),
    "stats.s": STATS_FUNCTIONS,
    "stats.n2": STATS_FUNCTIONS,
    "covariates.rows": ("covariates.join_covariates",),
    "cli.startup.s": ("cli.main",),
}
PREFIXED = (
    "corpus.load_posts", "corpus.load_friends", COUNTED, "labeling.label_population",
    "atlas.build_atlas", "attachment.compute_scores", "nullmodel.null_distribution",
    "nullmodel.shuffle_hashtags",
)
EXPECTED = frozenset(PREFIXED).union(*DEPENDS.values())

FACTS = {
    "corpus.load_posts": lambda r: {
        "lines": r[1].lines, "loaded": r[1].loaded, "skipped": r[1].skipped,
    },
    "labeling.label_population": lambda r: {
        "users": r[1].n_users, "migrants": r[1].n_migrants,
    },
    "atlas.build_atlas": lambda r: {
        "tokens": len(r),
        "international": sum(x.assignment == "international" for x in r.values()),
    },
    "attachment.compute_scores": lambda r: {
        "scored": len(r), "uses": sum(s.n_hashtags for s in r),
    },
    "nullmodel.null_distribution": lambda r: {
        "replicates": len(r), "rows": sum(len(run.scores0) for run in r),
    },
    "covariates.join_covariates": lambda r: {"rows": len(r[0])},
    **{name: (lambda r: {"n2": r.n2}) for name in STATS_FUNCTIONS},
}


class Tracer:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, facts]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn):
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, None, self.stack[-1] if self.stack else -1, {}]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if facts is not None:
                try:
                    record[4] = facts(result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # a changed return type loses the facts, not the span
            return result

        return wrapper

    def counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace layer functions in the patched namespaces with traced wrappers."""
    layer, _, fname = COUNTED.partition(".")
    counted = getattr(importlib.import_module(f"homedest.{layer}"), fname, None)
    for target_name in PATCHED:
        target = importlib.import_module(target_name)
        for name, value in list(vars(target).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            package, _, layer = value.__module__.rpartition(".")
            if package != "homedest" or layer not in LAYERS or value.__name__.startswith("_"):
                continue
            if value is not counted:
                setattr(target, name, tracer.span(f"{layer}.{value.__name__}", value))
    if counted is not None:
        wrapper = tracer.counter(COUNTED, counted)
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "homedest":
                for name, value in list(vars(module).items()):
                    if value is counted:
                        setattr(module, name, wrapper)


def absent_functions() -> set[str]:
    """Qualified names in EXPECTED that their module no longer defines."""
    absent = set()
    for qualified in EXPECTED:
        layer, _, fname = qualified.partition(".")
        try:
            module = importlib.import_module(f"homedest.{layer}")
        except ImportError:
            absent.add(qualified)
            continue
        if not callable(getattr(module, fname, None)):
            absent.add(qualified)
    return absent


def main(argv: list[str]) -> int:
    spans_path, command_argv = argv[0], argv[1:]
    from homedest import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(command_argv)
    finally:
        record = {"spans": tracer.spans, "counts": tracer.counts, "absent": sorted(absent_functions())}
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


# ------------------------------------------------------------ aggregation


class _Command:
    """Spans of one traced command with their ancestry resolved."""

    def __init__(self, name: str, record: dict):
        self.name = name
        self.spans = record["spans"]
        self.counts = record["counts"]
        self.duration = [end - start for _, start, end, _, _ in self.spans]
        self.children: list[float] = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                self.children[span[3]] += self.duration[index]

    def ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def outer(self, names, exclude_under=()) -> list[int]:
        """Spans named in ``names`` with no such ancestor (nothing counted twice)."""
        blocked = set(names) | set(exclude_under)
        return [
            i for i, span in enumerate(self.spans)
            if span[0] in names and not blocked.intersection(self.ancestors(i))
        ]

    def under(self, name: str, ancestor: str) -> list[int]:
        return [
            i for i, span in enumerate(self.spans)
            if span[0] == name and ancestor in self.ancestors(i)
        ]


def layer_metrics(
    commands: dict[str, dict],
    traced_wall: dict[str, float],
    untraced: dict[str, dict],
    facts: dict,
) -> dict[str, float | None]:
    """Per-layer metrics of one chain.

    ``commands`` maps each command to its span file contents,
    ``traced_wall`` to its traced wall time, ``untraced`` to the untraced
    run's accounting (``wall``, ``rss_mb``); ``facts`` holds the
    benchmark's own counts from the traced chain's artifacts.
    """
    cmds = [_Command(name, record) for name, record in commands.items()]
    absent = set().union(*(record["absent"] for record in commands.values()))

    def total(indices_of) -> float:
        return sum(c.duration[i] for c in cmds for i in indices_of(c))

    def fact(indices_of, key) -> int:
        return sum(c.spans[i][4].get(key, 0) for c in cmds for i in indices_of(c))

    def named(name):
        return lambda c: c.outer({name})

    def in_layer(layer):
        names = {s[0] for c in cmds for s in c.spans if s[0].partition(".")[0] == layer}
        return lambda c: c.outer(names)

    top_scores = lambda c: c.outer({"attachment.compute_scores"}, {"nullmodel.null_distribution"})
    rescore = lambda c: c.under("attachment.compute_scores", "nullmodel.null_distribution")
    in_stats = lambda c: c.outer(set(STATS_FUNCTIONS)) if c.name == "stats" else []

    m: dict[str, float | None] = {}
    load = named("corpus.load_posts")
    m["corpus.load_posts.s"] = total(load)
    m["corpus.load_posts.calls"] = sum(len(load(c)) for c in cmds)
    m["corpus.load_posts.lines"] = fact(load, "lines")
    m["corpus.load_posts.skipped"] = fact(load, "skipped")
    m["corpus.load_posts.posts_per_s"] = (
        fact(load, "loaded") / m["corpus.load_posts.s"] if m["corpus.load_posts.s"] else None
    )
    m["corpus.load_friends.s"] = total(named("corpus.load_friends"))
    calls = sum(c.counts.get(COUNTED, 0) for c in cmds)
    m["corpus.canonicalize_hashtag.calls"] = calls
    m["corpus.distinct_raw_tags"] = facts["distinct_raw_tags"]
    # Share of the uses in posts.jsonl that repeat a raw tag seen before: the
    # hit rate of a per-distinct-tag cache over one pass of the corpus. The
    # chain-wide calls are no base for it, as they grow with replicates and
    # passes and no single command canonicalizes every use.
    m["corpus.canonicalize_hashtag.reuse"] = 1 - facts["distinct_raw_tags"] / facts["hashtag_uses"]

    label = named("labeling.label_population")
    m["labeling.label_population.s"] = total(label)
    m["labeling.label_population.users"] = fact(label, "users")
    m["labeling.label_population.migrants"] = fact(label, "migrants")
    for metric, names in IO.items():
        m[metric] = total(lambda c, names=names: c.outer(set(names)))

    atlas = named("atlas.build_atlas")
    m["atlas.build_atlas.s"] = total(atlas)
    m["atlas.build_atlas.tokens"] = fact(atlas, "tokens")
    m["atlas.build_atlas.international"] = fact(atlas, "international")
    for key, value in facts["coverage"].items():
        m[f"atlas.coverage.{key}"] = value

    m["attachment.compute_scores.s"] = total(top_scores)
    m["attachment.compute_scores.scored"] = fact(top_scores, "scored")
    m["attachment.compute_scores.uses"] = fact(top_scores, "uses")

    null = named("nullmodel.null_distribution")
    m["nullmodel.null_distribution.s"] = total(null)
    m["nullmodel.shuffle_hashtags.s"] = total(named("nullmodel.shuffle_hashtags"))
    m["nullmodel.rescore.s"] = total(rescore)
    replicates = fact(null, "replicates")
    m["nullmodel.replicate_s"] = m["nullmodel.null_distribution.s"] / replicates if replicates else None
    m["nullmodel.rows"] = fact(null, "rows")

    m["stats.s"] = total(in_stats)
    m["stats.n2"] = max((c.spans[i][4].get("n2", 0) for c in cmds for i in in_stats(c)), default=0)
    m["stats.p_zero"] = facts["p_zero"]
    m["covariates.s"] = total(in_layer("covariates"))
    m["covariates.rows"] = fact(named("covariates.join_covariates"), "rows")
    m["reporting.s"] = total(in_layer("reporting"))

    for name, run in untraced.items():
        m[f"cli.{name}.s"] = run["wall"]
        m[f"cli.{name}.rss_mb"] = run["rss_mb"]
    m["cli.startup.s"] = sum(
        traced_wall[c.name] - sum(c.duration[i] for i in c.outer({"cli.main"})) for c in cmds
    )
    m["trace.chain_s"] = sum(traced_wall.values())
    m["trace.overhead_s"] = m["trace.chain_s"] - sum(run["wall"] for run in untraced.values())

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            c.duration[i] - c.children[i]
            for c in cmds for i, span in enumerate(c.spans)
            if span[0].partition(".")[0] == layer
        )

    for metric in m:
        sources = DEPENDS.get(metric) or [f for f in PREFIXED if metric.startswith(f + ".")]
        if absent.intersection(sources):
            m[metric] = None
    return m


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
