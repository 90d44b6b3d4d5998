"""Closed-form tail sums of the weighted power series used by the radius solver.

Every radius computation in this package subtracts tails of the form

    sum_{k=n+1..inf} w(k) r^(k-1),   0 <= r < 1,

where the weight w(k) is one of four cubic/quadratic polynomials in k,
depending on the geometric family and on whether the analytic or the
co-analytic part is being truncated.  The tails are evaluated exactly as
linear combinations of the three elementary tails

    sum k r^(k-1),  sum k^2 r^(k-1),  sum k^3 r^(k-1),

each of which has a closed rational form.

Arguments are checked once, at the public entry: each public tail checks
n and r (every value of r must lie in its domain, so NaN is rejected) and
then calls a private core (`_tail_linear`, `_tail_weighted`, ...) that
evaluates the closed form unchecked.  Callers that have already checked
r, such as the margins in `radius`, call the cores directly.  Orders must
lie below 2**341: the closed forms take n**3, which leaves the double
range above that.
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


def _check_r_halfopen(r) -> None:
    a = np.asarray(r)
    if not ((a >= 0) & (a < 1)).all():  # NaN fails both comparisons
        raise ValueError(f"r must lie in [0, 1), got {r!r}")


# n**3, the highest power of n the closed forms take, is a finite double
# for every n below this
_MAX_ORDER = 2**341


def _check_n(n: int, least: int) -> None:
    try:
        operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")
    if n >= _MAX_ORDER:
        raise ValueError("n must be below 2**341, where n**3 leaves the double range")


def tail_linear(n: int, r):
    """sum_{k=n+1..inf} k r^(k-1) = r^n [1 + n(1-r)] / (1-r)^2."""
    _check_n(n, 0)
    _check_r_halfopen(r)
    return _tail_linear(n, r)


def _tail_linear(n, r):
    s = 1.0 - r
    return r**n * (1.0 + n * s) / s**2


def tail_square(n: int, r):
    """sum_{k=n+1..inf} k^2 r^(k-1) = r^n [2 + (2n-1)(1-r) + n^2 (1-r)^2] / (1-r)^3."""
    _check_n(n, 0)
    _check_r_halfopen(r)
    return _tail_square(n, r)


def _tail_square(n, r):
    s = 1.0 - r
    return r**n * (2.0 + (2 * n - 1) * s + n**2 * s**2) / s**3


def tail_cube(n: int, r):
    """sum_{k=n+1..inf} k^3 r^(k-1), closed rational form.

    Equals r^n [6 + (6n-6)(1-r) + (3n^2-3n+1)(1-r)^2 + n^3 (1-r)^3] / (1-r)^4.
    """
    _check_n(n, 0)
    _check_r_halfopen(r)
    return _tail_cube(n, r)


def _tail_cube(n, r):
    s = 1.0 - r
    return r**n * (6.0 + (6 * n - 6) * s + (3 * n**2 - 3 * n + 1) * s**2 + n**3 * s**3) / s**4


# Each weight polynomial expanded in the monomial basis {k, k^2, k^3}:
#   k(k+1)(2k+1)/6 = k^3/3 + k^2/2 + k/6
#   k(k-1)(2k-1)/6 = k^3/3 - k^2/2 + k/6
#   k(k+1)/2       = k^2/2 + k/2
#   k(k-1)/2       = k^2/2 - k/2
_COMBINATION = {
    TailClass.GENERAL_ANALYTIC: (1.0 / 6.0, 0.5, 1.0 / 3.0),
    TailClass.GENERAL_CO_ANALYTIC: (1.0 / 6.0, -0.5, 1.0 / 3.0),
    TailClass.CONVEX_ANALYTIC: (0.5, 0.5, 0.0),
    TailClass.CONVEX_CO_ANALYTIC: (-0.5, 0.5, 0.0),
}


def tail_weighted(cls: TailClass, n: int, r):
    """sum_{k=n+1..inf} w(k) r^(k-1) for the weight of `cls`, in closed form.

    Requires n >= 1 and 0 <= r < 1.  At r = 0 the tail is exactly 0 and is
    returned without touching the rational forms.
    """
    _check_n(n, 1)
    _check_r_halfopen(r)
    if np.isscalar(r) and r == 0:
        return 0.0
    return _tail_weighted(cls, n, r)


def _tail_weighted(cls: TailClass, n, r):
    c1, c2, c3 = _COMBINATION[cls]
    out = c1 * _tail_linear(n, r) + c2 * _tail_square(n, r)
    if c3:
        out = out + c3 * _tail_cube(n, r)
    return out
