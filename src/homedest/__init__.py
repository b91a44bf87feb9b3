"""Quantify migrants' home- and destination-country attachment from hashtags.

The package labels users with a residence and a nationality from geotagged
activity and friendship ties, builds an entropy-filtered hashtag-country
atlas from non-migrant usage, scores each migrant's hashtag volume against
it, and compares the result with a volume-preserving shuffled baseline and
country-level covariates.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .atlas import build_atlas, normalized_entropy
from .attachment import AttachmentScore, apply_acculturation, compute_scores
from .corpus import Corpus, Post, canonicalize_hashtag, load_friends, load_posts
from .labeling import UserProfile, label_population
from .nullmodel import null_distribution, shuffle_hashtags
from .stats import (
    ks_two_sample,
    pearson,
    significance_stars,
    spearman,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)
from .synth import PopulationSpec, default_spec, oracle_scores

__all__ = [
    "__version__",
    "AttachmentScore",
    "Corpus",
    "Post",
    "PopulationSpec",
    "UserProfile",
    "apply_acculturation",
    "build_atlas",
    "canonicalize_hashtag",
    "compute_scores",
    "default_spec",
    "ks_two_sample",
    "label_population",
    "load_friends",
    "load_posts",
    "normalized_entropy",
    "null_distribution",
    "oracle_scores",
    "pearson",
    "shuffle_hashtags",
    "significance_stars",
    "spearman",
    "wilcoxon_rank_sum",
    "wilcoxon_signed_rank",
]
