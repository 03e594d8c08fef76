"""pass^k repetition statistics.

A task is pass^k when it succeeds in all k independent repetitions. For k
successes out of k Bernoulli trials the one-sided exact binomial lower
confidence bound at significance alpha has the closed form alpha**(1/k),
which is all this module implements; general s-of-n bounds are out of
scope.
"""

from __future__ import annotations

import math

from ..errors import OutOfRangeError

DEFAULT_ALPHA = 0.05


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if not (0.0 < value < 1.0):
        raise OutOfRangeError(
            f"{name} must be strictly between 0 and 1, got {value!r}", code="BAD_PROBABILITY"
        )
    return value


def pass_lower_bound(k: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Lower confidence bound on the pass probability after k passes in k runs."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise OutOfRangeError(f"k must be a positive integer, got {k!r}", code="BAD_REPETITIONS")
    alpha = _check_probability("alpha", alpha)
    return alpha ** (1.0 / k)


def min_k_for(p: float, alpha: float = DEFAULT_ALPHA) -> int:
    """Smallest k whose all-pass lower bound reaches the target probability.

    Bisects for the smallest k with pass_lower_bound(k) >= p, below an upper
    end that doubles from ceil(ln alpha / ln p) until its bound reaches p.
    So a float rounding on the ceiling boundary cannot shift the result, and
    near p = 1, where the bound rounds to p across a long run of k, about
    2 log2(k) bounds are evaluated rather than one per k of the run.
    """
    p = _check_probability("p", p)
    alpha = _check_probability("alpha", alpha)
    high = max(1, math.ceil(math.log(alpha) / math.log(p)))
    while pass_lower_bound(high, alpha) < p:
        high *= 2
    low = 0  # every k <= low falls short of p
    while high - low > 1:
        mid = (low + high) // 2
        if pass_lower_bound(mid, alpha) >= p:
            high = mid
        else:
            low = mid
    return high
