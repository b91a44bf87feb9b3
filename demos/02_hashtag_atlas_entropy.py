"""
How a hashtag earns a nationality
=================================
"""

# A hashtag's country distribution is counted over distinct non-migrant
# users. Normalized entropy (Shannon entropy / log of the country count)
# decides whether the tag is specific enough to assign.

from homedest.atlas import normalized_entropy

print("normalized entropy of a few distributions:")
cases = [
    ("all one country", {"IT": 1.0}),
    ("90/10 split", {"IT": 0.9, "DE": 0.1}),
    ("70/30 split", {"IT": 0.7, "DE": 0.3}),
    ("50/50 split", {"IT": 0.5, "DE": 0.5}),
    ("uniform over 5", {c: 0.2 for c in ("IT", "DE", "FR", "ES", "PL")}),
    ("one dominant of 5", {"IT": 0.8, "DE": 0.05, "FR": 0.05, "ES": 0.05, "PL": 0.05}),
]
for name, dist in cases:
    print(f"  {name:<20s} H = {normalized_entropy(dist):.4f}")

# Below the threshold (default 0.5) the argmax country wins; above it the
# tag is filed as "international" and counts toward nobody's attachment.

from homedest.atlas import build_atlas
from homedest.labeling import UserProfile

from datetime import datetime, timedelta, timezone
from homedest.corpus import Corpus, Post


def tag_post(user, day, *tags):
    ts = datetime(2018, 1, 1, 12, tzinfo=timezone.utc) + timedelta(days=day)
    return Post(user_id=user, timestamp=ts, country=None, language=None, hashtags=tags)


profiles = {}
for i in range(8):
    cc = "IT" if i < 6 else "DE"
    profiles[f"u{i}"] = UserProfile(f"u{i}", cc, cc, False)

posts = [tag_post(f"u{i}", i, "ferragosto") for i in range(6)]          # 6 IT users
posts += [tag_post(f"u{i}", 10 + i, "summer") for i in range(8)]        # everyone
posts += [tag_post("u0", 20, "summer", "summer")]                       # repeats don't matter
corpus = Corpus.from_posts(posts)

print("\natlas at threshold 0.5 vs 1.0:")
for threshold in (0.5, 1.0):
    atlas = build_atlas(corpus, profiles, 2018, threshold=threshold)
    assignments = {t: r.assignment for t, r in atlas.items()}
    print(f"  threshold={threshold}: {assignments}")

# #summer is used by 6 IT + 2 DE users -> entropy well above 0.5, so the
# default atlas calls it international; only a permissive threshold of 1.0
# lets the argmax (IT) through.
