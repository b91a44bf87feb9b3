"""
A ten-user corpus, end to end
=============================

Walks one handmade corpus through the whole pipeline: residence and
nationality labels, the hashtag atlas, then home/destination attachment
for the single migrant in town.
"""

from datetime import datetime, timedelta, timezone

from homedest.atlas import build_atlas
from homedest.attachment import compute_scores
from homedest.corpus import Corpus, FriendGraph, Post
from homedest.labeling import label_population

YEAR = 2018


def post(user, day, cc=None, lang=None, tags=(), year=YEAR):
    ts = datetime(year, 1, 1, 12, tzinfo=timezone.utc) + timedelta(days=day)
    return Post(user_id=user, timestamp=ts, country=cc, language=lang, hashtags=tuple(tags))


# Three Italians, two Germans, and one French user who never migrated:
# they post from home with geotags and use a small shared vocabulary.
posts = []
for i, u in enumerate(("ida", "ivo", "ines")):
    posts += [post(u, 20 * i + d, cc="IT", lang="it") for d in range(5)]
posts.append(post("ida", 100, tags=["roma", "pizza"]))
posts.append(post("ivo", 101, tags=["roma", "pizza", "pizza"]))
posts.append(post("ines", 102, tags=["pizza"]))

for i, u in enumerate(("dora", "dirk")):
    posts += [post(u, 30 * i + d, cc="DE", lang="de") for d in range(5)]
    posts.append(post(u, 110 + i, tags=["berlin", "pizza"]))

posts += [post("fleur", 50 + d, cc="FR", lang="fr") for d in range(4)]
posts.append(post("fleur", 120, tags=["pizza"]))

# The migrant: geotagged in Italy last year, in Germany this year, and a
# pile of ungeotagged hashtag posts in the reference year.
posts += [post("marco", 10 + d, cc="IT", lang="it", year=YEAR - 1) for d in range(6)]
posts += [post("marco", 40 + d, cc="DE", lang="de") for d in range(4)]
posts.append(post("marco", 130, lang="it", tags=["roma", "roma", "roma"]))
posts.append(post("marco", 131, lang="de", tags=["berlin", "berlin"]))
posts.append(post("marco", 132, lang="de", tags=["pizza", "pizza", "pizza", "pizza"]))
posts.append(post("marco", 133, lang="de", tags=["xyzq"]))

graph = FriendGraph.from_pairs([("marco", "ida"), ("marco", "ivo"), ("marco", "ines"), ("marco", "dora")])
corpus = Corpus.from_posts(posts)  # interned once; every stage takes the columns

# Step 1: labels. Residence is where you spent the most distinct days this
# year; nationality blends all-time geotags with your friends' countries.
profiles, summary = label_population(corpus, graph, YEAR)
print(f"labeled {summary.n_users} users, {summary.n_migrants} migrant(s)")
for uid in sorted(profiles):
    p = profiles[uid]
    print(f"  {uid:6s} residence={p.residence} nationality={p.nationality} migrant={p.is_migrant}")

# Step 2: the atlas. Only non-migrants vote, each user once per tag.
print()
atlas = build_atlas(corpus, profiles, YEAR)
for token in sorted(atlas):
    r = atlas[token]
    print(f"  #{token:<8s} -> {r.assignment:<13s} entropy={r.entropy:.3f} users={r.n_users}")
print("  (marco's #xyzq never appears: no non-migrant used it)")

# Step 3: attachment. marco used 10 tags; 3 map to his home country and
# 2 to his destination, so HA = 0.3 and DA = 0.2. The international
# #pizza and the unknown #xyzq stay in the denominator.
print()
for s in compute_scores(corpus, profiles, atlas, YEAR, min_hashtags=10):
    print(
        f"  {s.user_id}: HA={s.ha:.2f} DA={s.da:.2f} "
        f"({s.n_home} home + {s.n_dest} dest of {s.n_hashtags} uses)"
    )
