"""Quantify migrants' home- and destination-country attachment from hashtags.

The package labels users with a residence and a nationality from geotagged
activity and friendship ties, builds an entropy-filtered hashtag-country
atlas from non-migrant usage, scores each migrant's hashtag volume against
it, and compares the result with a volume-preserving shuffled baseline and
country-level covariates.

The names below are loaded on first use (PEP 562), so ``import homedest``
imports neither numpy nor any submodule, and each command loads only the
modules it runs.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "build_atlas": "atlas",
    "normalized_entropy": "atlas",
    "AttachmentScore": "attachment",
    "apply_acculturation": "attachment",
    "compute_scores": "attachment",
    "Corpus": "corpus",
    "Post": "corpus",
    "canonicalize_hashtag": "corpus",
    "load_friends": "corpus",
    "load_posts": "corpus",
    "UserProfile": "labeling",
    "label_population": "labeling",
    "null_distribution": "nullmodel",
    "shuffle_hashtags": "nullmodel",
    "ks_two_sample": "stats",
    "pearson": "stats",
    "significance_stars": "stats",
    "spearman": "stats",
    "wilcoxon_rank_sum": "stats",
    "wilcoxon_signed_rank": "stats",
    "PopulationSpec": "synth",
    "default_spec": "synth",
    "oracle_scores": "synth",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
