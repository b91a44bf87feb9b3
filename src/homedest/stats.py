"""Nonparametric tests and correlations: rank-sum, signed-rank, two-sample
KS, Pearson and Spearman, with significance stars.

Rank-sum p-values are exact (tail counts over all rank assignments) for
tie-free pooled samples of at most EXACT_LIMIT observations, and otherwise
use the normal approximation with midrank tie correction and continuity
correction. p-values are carried in log space as well, so magnitudes far
below float-representable survival-function naivety survive.

scipy is imported inside the two functions that call it, so the commands
that compute no p-value never load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

EXACT_LIMIT = 20

WILCOXON_RANK_SUM = "wilcoxon_rank_sum"
WILCOXON_SIGNED_RANK = "wilcoxon_signed_rank"
KS_TWO_SAMPLE = "ks_two_sample"
PEARSON = "pearson"
SPEARMAN = "spearman"


@dataclass
class TestResult:
    statistic: float
    p_value: float
    n1: int
    n2: int
    method: str
    log_p: float = 0.0

    @property
    def stars(self) -> str:
        return significance_stars(self.p_value)


def significance_stars(p: float) -> str:
    """Conventional significance marks: *** <0.01, ** <0.05, * <0.1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def midranks(values: Sequence[float]) -> list[float]:
    """Fractional ranks (1-based); ties share the mean of their rank block."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _u_distribution(n1: int, n2: int) -> list[int]:
    """counts[u] = number of size-n1 rank subsets of {1..n1+n2} with U = u."""
    n = n1 + n2
    min_sum = n1 * (n1 + 1) // 2
    max_sum = min_sum + n1 * n2
    ways = [[0] * (max_sum + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    for rank in range(1, n + 1):
        for k in range(min(rank, n1), 0, -1):
            row, prev = ways[k], ways[k - 1]
            for s in range(max_sum, rank - 1, -1):
                if prev[s - rank]:
                    row[s] += prev[s - rank]
    return ways[n1][min_sum:]


def _norm_sf_log(z: float) -> tuple[float, float]:
    """(sf, log sf) of the standard normal at z."""
    from scipy.special import log_ndtr

    log_sf = float(log_ndtr(-z))
    return math.exp(log_sf), log_sf


def _tie_sum(values: Iterable[float]) -> int:
    """Sum of c**3 - c over the count c of each distinct value."""
    return sum(c**3 - c for c in Counter(values).values())


def wilcoxon_rank_sum(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum test.

    The statistic is U for the first sample. Exact tail enumeration applies
    to tie-free pooled samples with n1 + n2 <= EXACT_LIMIT; larger or tied
    samples use the tie-corrected normal approximation with continuity
    correction.
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    pooled = list(x) + list(y)
    ranks = midranks(pooled)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2
    u2 = n1 * n2 - u1

    tie_free = len(set(pooled)) == n1 + n2
    if tie_free and n1 + n2 <= EXACT_LIMIT:
        counts = _u_distribution(n1, n2)
        u_min = int(round(min(u1, u2)))
        cum = sum(counts[: u_min + 1])
        total = math.comb(n1 + n2, n1)
        p = min(1.0, (2 * cum) / total)
        return TestResult(u1, p, n1, n2, WILCOXON_RANK_SUM, math.log(p))

    n = n1 + n2
    tie_factor = 1.0 - _tie_sum(pooled) / (n**3 - n)
    if tie_factor == 0.0:
        return TestResult(u1, 1.0, n1, n2, WILCOXON_RANK_SUM, 0.0)
    sd = math.sqrt(tie_factor * n1 * n2 * (n + 1) / 12.0)
    big_u = max(u1, u2)
    z = (big_u - n1 * n2 / 2 - 0.5) / sd
    sf, log_sf = _norm_sf_log(z)
    p = min(1.0, 2.0 * sf)
    log_p = min(0.0, math.log(2.0) + log_sf)
    return TestResult(u1, p, n1, n2, WILCOXON_RANK_SUM, log_p)


def _signed_rank_distribution(n: int) -> list[int]:
    """counts[w] = number of sign assignments of ranks 1..n with W+ = w."""
    max_w = n * (n + 1) // 2
    ways = [0] * (max_w + 1)
    ways[0] = 1
    for rank in range(1, n + 1):
        for w in range(max_w, rank - 1, -1):
            if ways[w - rank]:
                ways[w] += ways[w - rank]
    return ways


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided paired Wilcoxon signed-rank test (zero differences dropped)."""
    if len(x) != len(y):
        raise ValueError("paired samples must have equal length")
    if len(x) == 0:
        raise ValueError("samples must be nonempty")
    diffs = [a - b for a, b in zip(x, y) if a != b]
    n = len(diffs)
    if n == 0:
        return TestResult(0.0, 1.0, len(x), len(y), WILCOXON_SIGNED_RANK, 0.0)
    abs_ranks = midranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, abs_ranks) if d > 0)
    max_w = n * (n + 1) / 2

    tie_free = len({abs(d) for d in diffs}) == n
    if tie_free and n <= EXACT_LIMIT:
        counts = _signed_rank_distribution(n)
        w_min = int(round(min(w_plus, max_w - w_plus)))
        cum = sum(counts[: w_min + 1])
        p = min(1.0, (2 * cum) / 2**n)
        return TestResult(w_plus, p, len(x), len(y), WILCOXON_SIGNED_RANK, math.log(p))

    mean = max_w / 2
    var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_sum(abs(d) for d in diffs) / 48.0
    if var <= 0:
        return TestResult(w_plus, 1.0, len(x), len(y), WILCOXON_SIGNED_RANK, 0.0)
    z = (abs(w_plus - mean) - 0.5) / math.sqrt(var)
    sf, log_sf = _norm_sf_log(max(z, 0.0))
    p = min(1.0, 2.0 * sf)
    log_p = min(0.0, math.log(2.0) + log_sf)
    return TestResult(w_plus, p, len(x), len(y), WILCOXON_SIGNED_RANK, log_p)


def _ks_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """sup |ECDF_x - ECDF_y|, exact via integer cross-multiplication."""
    xs, ys = sorted(x), sorted(y)
    n1, n2 = len(xs), len(ys)
    i = j = 0
    best = 0
    while i < n1 or j < n2:
        if j >= n2 or (i < n1 and xs[i] <= ys[j]):
            value = xs[i]
        else:
            value = ys[j]
        while i < n1 and xs[i] == value:
            i += 1
        while j < n2 and ys[j] == value:
            j += 1
        best = max(best, abs(i * n2 - j * n1))
    return best / (n1 * n2)


def _kolmogorov_sf(lam: float) -> tuple[float, float]:
    """(sf, log sf) of the Kolmogorov distribution at lam."""
    if lam <= 0.0:
        return 1.0, 0.0
    if lam < 1.0:
        # Jacobi-transformed series, accurate for small arguments.
        s = 0.0
        j = 1
        while True:
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8 * lam * lam))
            s += term
            if term < 1e-20 * s or j > 100:
                break
            j += 1
        p = max(0.0, min(1.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * s))
        return p, math.log(p) if p > 0 else -math.inf
    # Alternating series with the leading term factored out (log-safe).
    factor = 0.0
    sign = -1.0
    k = 2
    while True:
        term = sign * math.exp(-2.0 * lam * lam * (k * k - 1))
        factor += term
        if abs(term) < 1e-20:
            break
        sign = -sign
        k += 1
    log_p = math.log(2.0) - 2.0 * lam * lam + math.log1p(factor)
    log_p = min(0.0, log_p)
    return math.exp(log_p), log_p


def ks_two_sample(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided two-sample Kolmogorov-Smirnov test.

    D is the exact sup-distance between the two ECDFs; the p-value comes
    from the asymptotic Kolmogorov distribution at sqrt(n1*n2/(n1+n2)) * D.
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    d = _ks_statistic(x, y)
    effective = n1 * n2 / (n1 + n2)
    p, log_p = _kolmogorov_sf(math.sqrt(effective) * d)
    return TestResult(d, p, n1, n2, KS_TWO_SAMPLE, log_p)


def _pearson_from_arrays(x: Sequence[float], y: Sequence[float], method: str) -> TestResult:
    n = len(x)
    if n != len(y):
        raise ValueError("paired samples must have equal length")
    if n < 3:
        raise ValueError("need at least 3 pairs")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    dx = [a - mean_x for a in x]
    dy = [b - mean_y for b in y]
    var_x = sum(a * a for a in dx)
    var_y = sum(b * b for b in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("zero variance sample")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return TestResult(r, 0.0, n, n, method, -math.inf)
    # Two-sided p for the t statistic with df degrees of freedom.
    t_sq = df * r * r / (1.0 - r * r)
    from scipy.special import betainc

    p = float(betainc(df / 2.0, 0.5, df / (df + t_sq)))
    p = max(0.0, min(1.0, p))
    log_p = math.log(p) if p > 0 else -math.inf
    return TestResult(r, p, n, n, method, log_p)


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Pearson correlation with two-sided p from the t distribution (n-2 df)."""
    return _pearson_from_arrays(x, y, PEARSON)


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation: Pearson on midranks."""
    return _pearson_from_arrays(midranks(x), midranks(y), SPEARMAN)
