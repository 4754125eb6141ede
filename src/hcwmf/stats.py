"""One-sided Welch t-test for the self-consistency hypothesis.

Builds, per user, two counts: hc_u, the number of distinct hashtags the user
adopted at least twice, and hc_r, the overlap between the user's hashtag set
and that of a seeded random other user.  The test asks whether users repeat
their own hashtags more than chance pairing explains (H0: mean hc_u <= mean
hc_r, H1: greater).  The Student-t tail probability is computed here via the
regularized incomplete beta function, so no statistics package is needed at
runtime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataio import AdoptionRecords

__all__ = [
    "ConsistencyVectors",
    "TTestResult",
    "build_consistency_vectors",
    "welch_ttest_one_sided",
    "student_t_upper_tail",
    "regularized_incomplete_beta",
]


@dataclass(frozen=True)
class ConsistencyVectors:
    """Paired per-user counts: own repeated-hashtag count vs random-partner overlap."""

    hc_u: tuple[int, ...]
    hc_r: tuple[int, ...]

    def __post_init__(self):
        if len(self.hc_u) != len(self.hc_r):
            raise ValueError(
                f"vectors must have equal length, got {len(self.hc_u)} and {len(self.hc_r)}"
            )
        if any(v < 0 for v in self.hc_u) or any(v < 0 for v in self.hc_r):
            raise ValueError("counts must be non-negative")


def _check_alpha(alpha: float) -> None:
    """Reject a significance level outside the open interval (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class TTestResult:
    """Welch test outcome; ``reject`` compares p_value against reject_at."""

    t_stat: float
    degrees_freedom: float
    p_value: float
    reject_at: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must be in [0, 1], got {self.p_value}")
        if self.degrees_freedom <= 0:
            raise ValueError(f"degrees_freedom must be > 0, got {self.degrees_freedom}")
        _check_alpha(self.reject_at)

    @property
    def reject(self) -> bool:
        return self.p_value < self.reject_at


def build_consistency_vectors(records: AdoptionRecords, seed: int) -> ConsistencyVectors:
    """Per-user consistency counts with seeded random partner assignment.

    Users come in sorted id order, and user i is paired with user j, drawn
    uniformly from the others: one ``rng.integers(0, n - 1, size=n)`` draw,
    where a value v >= i stands for j = v + 1, so the result is reproducible
    from the seed.  Both counts come from the distinct (user, hashtag) pairs
    with no loop over users: hc_u counts each user's pairs that occur at least
    twice, and hc_r the pairs whose hashtag the partner also used.  Requires at
    least two users (no partner exists otherwise) and two hashtags.
    """
    n, t = len(records.users), len(records.hashtags)
    if n < 2:
        raise ValueError(f"need at least 2 users to pair, got {n}")
    if t < 2:
        raise ValueError(f"need at least 2 hashtags, got {t}")
    pairs, uses = np.unique(records.user * t + records.hashtag, return_counts=True)
    owner, hashtag = np.divmod(pairs, t)
    partner = np.random.default_rng(seed).integers(0, n - 1, size=n)
    partner += partner >= np.arange(n)
    shared = np.isin(partner[owner] * t + hashtag, pairs)
    hc_u = np.bincount(owner[uses >= 2], minlength=n)
    hc_r = np.bincount(owner[shared], minlength=n)
    return ConsistencyVectors(hc_u=tuple(hc_u.tolist()), hc_r=tuple(hc_r.tolist()))


def welch_ttest_one_sided(a, b, alpha: float = 0.01) -> TTestResult:
    """Welch two-sample t-test of H1: mean(a) > mean(b).

    Uses unequal-variance pooling with Welch-Satterthwaite degrees of freedom
    and reports the upper-tail p-value.  Rejects an ``alpha`` outside (0, 1),
    inputs shorter than two elements and the degenerate case where both
    samples have zero variance.
    """
    _check_alpha(alpha)
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 1 or xb.ndim != 1:
        raise ValueError("samples must be one-dimensional sequences")
    na, nb = xa.size, xb.size
    if na < 2 or nb < 2:
        raise ValueError(f"each sample needs >= 2 values, got {na} and {nb}")
    va = float(np.var(xa, ddof=1))
    vb = float(np.var(xb, ddof=1))
    if va == 0.0 and vb == 0.0:
        raise ValueError("both samples have zero variance; t statistic is undefined")
    qa, qb = va / na, vb / nb
    se2 = qa + qb
    t = (float(np.mean(xa)) - float(np.mean(xb))) / math.sqrt(se2)
    df = se2 * se2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
    p = student_t_upper_tail(t, df)
    return TTestResult(t_stat=t, degrees_freedom=df, p_value=p, reject_at=alpha)


_BETA_TOL = 1e-12
_BETA_MAX_TERMS = 300
_FPMIN = 1e-300
# From here on lgamma(a + b) - lgamma(a) with a = df/2 loses the tail to
# cancellation, and the normal approximation below is the more accurate.
_NORMAL_DF = 1e6


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_TERMS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge in {_BETA_MAX_TERMS} terms "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function on [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom.

    Uses the identity P(T > t) = I_x(df/2, 1/2) / 2 with x = df/(df + t^2)
    for t >= 0, and symmetry for t < 0.  Exactly 0.5 at t = 0.  For
    df >= 1e6 it returns the normal tail of
    z = t (1 - 1/(4 df)) / sqrt(1 + t^2/(2 df)) instead.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not math.isfinite(df) or df <= 0:
        raise ValueError(f"df must be finite and > 0, got {df}")
    if df >= _NORMAL_DF:
        z = t * (1.0 - 1.0 / (4.0 * df)) / math.sqrt(1.0 + t * t / (2.0 * df))
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return half_tail if t >= 0 else 1.0 - half_tail
