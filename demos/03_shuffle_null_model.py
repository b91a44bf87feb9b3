"""
Is the attachment signal real? Ask the shuffle
==============================================

Generates a synthetic population with planted attachment, then destroys
the user-hashtag pairing with a volume-preserving shuffle. If the observed
indices don't beat the shuffled ones, the signal was never there.
"""

from homedest.atlas import build_atlas
from homedest.attachment import compute_scores
from homedest.corpus import Corpus, FriendGraph
from homedest.labeling import label_population
from homedest.nullmodel import null_distribution, pooled
from homedest.stats import wilcoxon_rank_sum
from homedest.synth import default_spec, generate_population

spec = default_spec(n_users=1500, seed=3)
pop = generate_population(spec)

graph = FriendGraph.from_pairs(pop.friend_rows)
corpus = Corpus.from_posts(pop.posts)

profiles, _ = label_population(corpus, graph, spec.year)
atlas = build_atlas(corpus, profiles, spec.year)
scores = compute_scores(corpus, profiles, atlas, spec.year)
print(f"{len(scores)} migrants scored")

mean = lambda xs: sum(xs) / len(xs)
ha = [s.ha for s in scores]
da = [s.da for s in scores]
print(f"observed:  mean HA = {mean(ha):.4f}   mean DA = {mean(da):.4f}")

# Five shuffle replicates of the scored migrants; each permutes their
# hashtag uses and re-scores. The atlas is untouched (it comes from
# non-migrants).
runs = null_distribution(corpus, scores, atlas, spec.year, replicates=5, seed=0)
ha0 = pooled(runs, "ha")
da0 = pooled(runs, "da")
print(f"null:      mean HA0 = {mean(ha0):.4f}  mean DA0 = {mean(da0):.4f}")

for name, observed, null in (("HA", ha, ha0), ("DA", da, da0)):
    test = wilcoxon_rank_sum(observed, null)
    print(f"rank-sum {name} vs {name}0: U={test.statistic:.0f} p={test.p_value:.3g} {test.stars}")

# The planted population separates cleanly: both gaps should come back
# with three stars.
