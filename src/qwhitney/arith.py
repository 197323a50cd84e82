"""Exact scalar arithmetic: arbitrary-precision integers and rationals.

Python integers are already arbitrary precision, and ``fractions.Fraction``
is already the normalized rational we need (positive denominator, reduced to
lowest terms, canonical zero ``0/1``), so this module only adds the
combinatorial scalar used throughout.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n, k >= 0.

    Returns 0 when k > n, so identity sums can run over uniform index
    ranges without clamping.
    """
    return math.comb(n, k)
