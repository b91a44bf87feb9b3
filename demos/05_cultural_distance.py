"""
Attachment vs cultural distance, at two zoom levels
===================================================

Joins per-country cultural dimension scores onto synthetic attachment
scores and correlates twice: once per user, once per country group. The
covariates live at the country level, so grouping usually sharpens them.
"""

import numpy as np

from homedest.attachment import AttachmentScore
from homedest.covariates import (
    HOFSTEDE_DIMENSIONS,
    grouped_correlations,
    individual_correlations,
    join_covariates,
    load_hofstede,
)

hofstede = load_hofstede()
print(f"bundled cultural table: {len(hofstede)} countries")


def deltas(origin, destination):
    """|destination - origin| of each dimension both countries have."""
    home, dest = hofstede[origin], hofstede[destination]
    return {f"hof_{dim}": abs(dest[dim] - home[dim]) for dim in HOFSTEDE_DIMENSIONS if dim in home and dim in dest}


print("IT -> DE deltas:", deltas("IT", "DE"))

# Cook up migrants whose home attachment *increases* with cultural
# distance from Germany, plus per-user noise that drowns the signal.
rng = np.random.default_rng(12)
origins = ("AT", "DK", "FR", "ES", "PL", "GR", "JP", "MX")
scores = []
for i in range(400):
    origin = origins[i % len(origins)]
    distance = sum(deltas(origin, "DE").values())
    ha = float(np.clip(0.001 * distance + rng.normal(0, 0.08), 0.0, 0.8))
    da = float(np.clip(0.15 + rng.normal(0, 0.05), 0.0, 0.2))
    scores.append(AttachmentScore(f"u{i:03d}", origin, "DE", ha, da, 30, int(30 * ha), int(30 * da)))

rows, dropped = join_covariates(scores, hofstede=hofstede)
print(f"\njoined {len(rows)} users ({dropped} dropped)")

def show(results, label):
    print(f"\n{label}:")
    for r in results:
        if r.covariate == "hof_pdi":
            print(f"  {r.target} ~ {r.covariate:<7s} {r.method:<8s} r={r.r:+.3f} p={r.p_value:.3g} {r.stars}")

show(individual_correlations(rows), "per-user correlations (noisy)")

# Grouped: one observation per origin country (mean score, mean covariate).
# residence grouping needs 3+ countries too, so this demo spreads a few
# users over two more destinations first.
for i, score in enumerate(scores[:60]):
    scores[i] = score._replace(residence=("NL", "GB")[i % 2])
rows, _ = join_covariates(scores, hofstede=hofstede)
show(grouped_correlations(rows, min_group_size=10), "per-country correlations (sharp)")
