"""Nonparametric tests and correlations on numpy arrays: rank-sum,
signed-rank, two-sample KS, Pearson and Spearman, with significance stars.

Rank-sum and signed-rank p-values are exact (tail counts over all rank or
sign assignments) for tie-free samples of at most EXACT_LIMIT observations,
and otherwise use the normal approximation with midrank tie correction and
continuity correction. Every p-value is also carried as log p, which stays
finite where p underflows to 0.0: the normal tail from ``math.erfc`` and
then an asymptotic series, the Kolmogorov tail from its series, and the
Student-t tail of Pearson and Spearman from a log-space incomplete beta.
Every test raises ValueError on an empty sample or a NaN or an infinity.

The module needs numpy only; the tests check it against scipy and mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EXACT_LIMIT = 20

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_TINY = 1e-300
_MAX_TERMS = 100_000

WILCOXON_RANK_SUM = "wilcoxon_rank_sum"
WILCOXON_SIGNED_RANK = "wilcoxon_signed_rank"
KS_TWO_SAMPLE = "ks_two_sample"
PEARSON = "pearson"
SPEARMAN = "spearman"

# The columns of a test results table: one row per test, named by the comparison it tests.
TEST_RESULT_COLUMNS = {
    "comparison": str, "method": str, "statistic": float, "p_value": float, "n1": int, "n2": int, "stars": str,
}


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


def _samples(*samples: Sequence[float]) -> list[np.ndarray]:
    """Each sample as a float array; an empty sample, a NaN or an infinity is a ValueError."""
    arrays = [np.asarray(sample, dtype=float) for sample in samples]
    if not all(len(a) for a in arrays):
        raise ValueError("samples must be nonempty")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("samples must be finite, got a NaN or an infinity")
    return arrays


def _ranks_and_ties(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midranks of ``values`` and each tie block's size c; a block ending at rank e ranks e - (c-1)/2."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[block], counts


def midranks(values: Sequence[float]) -> list[float]:
    """Fractional ranks (1-based); ties share the mean of their rank block."""
    return _ranks_and_ties(np.asarray(values, dtype=float))[0].tolist()


def _tie_sum(counts: np.ndarray) -> int:
    """Sum of c**3 - c over the tie-block sizes ``counts``, in Python ints (int64 overflows past 2**21)."""
    return sum(c**3 - c for c in counts[counts > 1].tolist())


def _exact_two_sided(counts: list[int], low: float) -> float:
    """Twice the share of the null ``counts`` at or below the lower-tail statistic ``low``, at most 1."""
    return min(1.0, 2 * sum(counts[: int(round(low)) + 1]) / sum(counts))


def _two_sided_normal(z: float) -> tuple[float, float]:
    """(p, log p) of a two-sided normal test at z: p = erfc(z/sqrt 2), at most 1.

    From z = 26 sqrt 2 (36.8) on, where erfc nears underflow (6e-296), log p
    comes from the asymptotic Mills-ratio series of erfc instead.
    """
    x = z / _SQRT2
    if x < 26.0:
        p = math.erfc(x)
        return min(1.0, p), min(0.0, math.log(p))
    # erfc(x) = exp(-x^2) / (x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2x^2)^k
    series, term, k = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) / (2 * x * x)
        series += term
        k += 1
    log_p = -0.5 * z * z - math.log(x) - _LOG_SQRT_PI + math.log(series)
    return math.exp(log_p), log_p


def _subset_sums(n: int, k: int) -> np.ndarray:
    """ways[j, s] = number of j-subsets of the ranks 1..n with sum s, for j <= k."""
    # int64 is exact for n <= EXACT_LIMIT: no count exceeds 2**20.
    ways = np.zeros((k + 1, n * (n + 1) // 2 + 1), dtype=np.int64)
    ways[0, 0] = 1
    for rank in range(1, n + 1):
        # The (j-1)-subsets plus rank join the j-subsets; numpy reads the overlapping right side first.
        ways[1:, rank:] += ways[:-1, :-rank]
    return ways


def _u_distribution(n1: int, n2: int) -> list[int]:
    """counts[u] = number of size-n1 rank subsets of {1..n1+n2} with U = u."""
    min_sum = n1 * (n1 + 1) // 2
    return _subset_sums(n1 + n2, n1)[n1, min_sum : min_sum + n1 * n2 + 1].tolist()


def _signed_rank_distribution(n: int) -> list[int]:
    """counts[w] = number of sign assignments of ranks 1..n with W+ = w."""
    return _subset_sums(n, n).sum(axis=0).tolist()


def wilcoxon_rank_sum(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney/Wilcoxon rank-sum test.

    The statistic is U for the first sample. Exact tail enumeration applies
    to tie-free pooled samples with n1 + n2 <= EXACT_LIMIT; larger or tied
    samples use the tie-corrected normal approximation with continuity
    correction.
    """
    x, y = _samples(x, y)
    n1, n2 = len(x), len(y)
    n = n1 + n2
    ranks, ties = _ranks_and_ties(np.concatenate([x, y]))
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2
    u2 = n1 * n2 - u1

    if len(ties) == n and n <= EXACT_LIMIT:
        p = _exact_two_sided(_u_distribution(n1, n2), min(u1, u2))
        return TestResult(u1, p, n1, n2, WILCOXON_RANK_SUM, math.log(p))

    tie_factor = 1.0 - _tie_sum(ties) / (n**3 - n)
    if tie_factor == 0.0:
        return TestResult(u1, 1.0, n1, n2, WILCOXON_RANK_SUM, 0.0)
    sd = math.sqrt(tie_factor * n1 * n2 * (n + 1) / 12.0)
    z = (max(u1, u2) - n1 * n2 / 2 - 0.5) / sd
    p, log_p = _two_sided_normal(z)
    return TestResult(u1, p, n1, n2, WILCOXON_RANK_SUM, log_p)


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided paired Wilcoxon signed-rank test (zero differences dropped)."""
    x, y = _samples(x, y)
    if len(x) != len(y):
        raise ValueError("paired samples must have equal length")
    diffs = (x - y)[x != y]
    n = len(diffs)
    if n == 0:
        return TestResult(0.0, 1.0, len(x), len(y), WILCOXON_SIGNED_RANK, 0.0)
    ranks, ties = _ranks_and_ties(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    max_w = n * (n + 1) / 2

    if len(ties) == n and n <= EXACT_LIMIT:
        p = _exact_two_sided(_signed_rank_distribution(n), min(w_plus, max_w - w_plus))
        return TestResult(w_plus, p, len(x), len(y), WILCOXON_SIGNED_RANK, math.log(p))

    mean = max_w / 2
    var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_sum(ties) / 48.0
    if var <= 0:
        return TestResult(w_plus, 1.0, len(x), len(y), WILCOXON_SIGNED_RANK, 0.0)
    z = (abs(w_plus - mean) - 0.5) / math.sqrt(var)
    p, log_p = _two_sided_normal(max(z, 0.0))
    return TestResult(w_plus, p, len(x), len(y), WILCOXON_SIGNED_RANK, log_p)


def _ks_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """sup |ECDF_x - ECDF_y| over the pooled values, exact via integer cross-multiplication."""
    xs, ys = np.sort(x), np.sort(y)
    n1, n2 = len(xs), len(ys)
    pooled = np.concatenate([xs, ys])
    i = np.searchsorted(xs, pooled, "right")
    j = np.searchsorted(ys, pooled, "right")
    return int(np.abs(i * n2 - j * n1).max()) / (n1 * n2)


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
    x, y = _samples(x, y)
    n1, n2 = len(x), len(y)
    d = _ks_statistic(x, y)
    effective = n1 * n2 / (n1 + n2)
    p, log_p = _kolmogorov_sf(math.sqrt(effective) * d)
    return TestResult(d, p, n1, n2, KS_TWO_SAMPLE, log_p)


# Stirling series of lgamma(z) beyond (z - 1/2) log z - z + log(2 pi)/2: sum of c_k / z**(2k + 1).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling(z: float) -> float:
    return sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING))


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2) = lgamma(a) + lgamma(1/2) - lgamma(a + 1/2).

    For a >= 10 the lgamma difference comes from Stirling's series: taken as
    the difference of two lgamma values of size a log a, it would carry their
    rounding, up to 6e-11 at a = 1e5.
    """
    if a < 10.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    # lgamma(a + 1/2) - lgamma(a) = log(a)/2 + a log(1 + 1/(2a)) - 1/2 + S(a + 1/2) - S(a)
    gap = 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + (_stirling(a + 0.5) - _stirling(a))
    return _LOG_SQRT_PI - gap


def _beta_fraction(a: float, b: float, x: float) -> float:
    """1/(1 + d1/(1 + d2/(1 + ...))), the continued fraction of I_x(a, b), by Lentz's method."""
    f, c, d = _TINY, _TINY, 0.0
    for j in range(_MAX_TERMS):
        m = j // 2
        if j == 0:
            term = 1.0
        elif j % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + term * d) or _TINY)
        c = (1.0 + term / c) or _TINY
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return f
    raise ArithmeticError(f"incomplete beta fraction unconverged at a={a}, b={b}, x={x}")


def _two_sided_t(t_sq: float, df: int) -> tuple[float, float]:
    """(p, log p) of a two-sided Student-t test with df degrees of freedom at t**2 = t_sq.

    p is the regularized incomplete beta I_x(df/2, 1/2) at x = df/(df + t_sq),
    taken in log space: x^a (1-x)^b / B(a, b) times a continued fraction, which
    converges fast for x below the mean (a+1)/(a+b+2); above it, through
    I_x(a, b) = 1 - I_{1-x}(b, a). log p stays finite where p underflows.
    """
    a, x = df / 2.0, df / (df + t_sq)
    if x >= 1.0:
        return 1.0, 0.0
    log_front = a * math.log(x) + 0.5 * math.log1p(-x) - _log_beta_half(a)
    if x < (a + 1.0) / (a + 2.5):
        log_p = log_front + math.log(_beta_fraction(a, 0.5, x) / a)
    else:  # 1 - x is exact here, as x >= 1/2
        log_p = math.log1p(-math.exp(log_front) * _beta_fraction(0.5, a, 1.0 - x) / 0.5)
    log_p = min(0.0, log_p)
    return math.exp(log_p), log_p


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
    if abs(r) == 1.0:
        return TestResult(r, 0.0, n, n, method, -math.inf)
    df = n - 2
    p, log_p = _two_sided_t(df * r * r / (1.0 - r * r), df)
    return TestResult(r, p, n, n, method, log_p)


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Pearson correlation with two-sided p from the t distribution (n-2 df)."""
    x, y = _samples(x, y)
    return _pearson_from_arrays(x.tolist(), y.tolist(), PEARSON)


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation: Pearson on midranks."""
    x, y = _samples(x, y)
    return _pearson_from_arrays(midranks(x), midranks(y), SPEARMAN)
