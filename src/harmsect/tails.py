"""Closed-form tail sums of the weighted power series used by the radius solver.

Every radius computation in this package subtracts tails of the form

    sum_{k=n+1..inf} w(k) r^(k-1),   0 <= r < 1,

where the weight w(k) is one of four cubic/quadratic polynomials in k,
depending on the geometric family and on whether the analytic or the
co-analytic part is being truncated.  Each tail has one closed form

    r^n * sum_j e_j(n) s^(j-d),   s = 1 - r,

whose d integer coefficients e_j(n), one row of `_COEFFICIENTS` per
weight, are nonnegative for n >= 2.  One core, `_tail_weighted`, evaluates
every row.

Arguments are checked once, at the public entry: `tail_weighted` checks n
and r (every value of r must lie in its domain, so NaN is rejected) and
then calls the core unchecked.  Callers that have already checked r, such
as the margins in `radius`, call the core directly, with orders checked
into Python ints, whose products do not wrap.  Orders must lie below
2**341: the general rows take n**3, which leaves the double range above
that.
"""

from __future__ import annotations

import enum
import operator

import numpy as np


class TailClass(enum.Enum):
    """Weight sequence of a tail sum.

    The analytic weights grow one polynomial degree faster than the
    co-analytic ones, and the co-analytic weights vanish at k = 1.
    """

    GENERAL_ANALYTIC = "general_analytic"        # w(k) = k(k+1)(2k+1)/6
    GENERAL_CO_ANALYTIC = "general_co_analytic"  # w(k) = k(k-1)(2k-1)/6
    CONVEX_ANALYTIC = "convex_analytic"          # w(k) = k(k+1)/2
    CONVEX_CO_ANALYTIC = "convex_co_analytic"    # w(k) = k(k-1)/2


def _check_r_halfopen(r):
    """r once every value lies in [0, 1); a list or other sequence comes back as an array."""
    a = np.asarray(r, dtype=float)
    if not ((a >= 0) & (a < 1)).all():  # NaN fails both comparisons
        raise ValueError(f"r must lie in [0, 1), got {r!r}")
    return a if a.ndim else r


# n**3, the highest power of n the closed forms take, is a finite double
# for every n below this
_MAX_ORDER = 2**341


def _check_n(n: int) -> int:
    """n as a Python int, once it is shown to be an order from 1 below 2**341."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= _MAX_ORDER:
        raise ValueError("n must be below 2**341, where n**3 leaves the double range")
    return n


# Coefficients (e_0, ..., e_{d-1}) of each tail's closed form, as exact
# integers for a Python int n; checked exactly against the series in
# tests/test_tails.py
_COEFFICIENTS = {
    TailClass.GENERAL_ANALYTIC: lambda n: (2, 2 * n - 1, n**2, n * (n + 1) * (2 * n + 1) // 6),
    TailClass.GENERAL_CO_ANALYTIC: lambda n: (2, 2 * n - 3, (n - 1) ** 2, n * (n - 1) * (2 * n - 1) // 6),
    TailClass.CONVEX_ANALYTIC: lambda n: (1, n, n * (n + 1) // 2),
    TailClass.CONVEX_CO_ANALYTIC: lambda n: (1, n - 1, n * (n - 1) // 2),
}


def tail_weighted(cls: TailClass, n: int, r):
    """sum_{k=n+1..inf} w(k) r^(k-1) for the weight of `cls`, in closed form.

    Requires n >= 1 and 0 <= r < 1.  At r = 0 the tail is exactly 0.
    """
    n = _check_n(n)
    return _tail_weighted(cls, n, _check_r_halfopen(r))


def _tail_weighted(cls: TailClass, n: int, r):
    s = 1.0 - r
    row = _COEFFICIENTS[cls](n)
    num = 0.0
    for e in reversed(row):
        num = num * s + e
    # r^n first: for the largest orders it is 0 and keeps num / s^d from overflowing
    return r**n * num / s ** len(row)
