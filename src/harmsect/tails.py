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
r, such as the margins in `radius`, call the cores directly.

A brute-force truncated summation (`tail_brute`) is provided as an
independent oracle for tests only; near r = 1 it converges far too slowly
for production use.
"""

from __future__ import annotations

import enum
import math

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


def weight(cls: TailClass, k):
    """Evaluate the weight polynomial of `cls` at index k (scalar or array)."""
    if cls is TailClass.GENERAL_ANALYTIC:
        return k * (k + 1) * (2 * k + 1) / 6.0
    if cls is TailClass.GENERAL_CO_ANALYTIC:
        return k * (k - 1) * (2 * k - 1) / 6.0
    if cls is TailClass.CONVEX_ANALYTIC:
        return k * (k + 1) / 2.0
    if cls is TailClass.CONVEX_CO_ANALYTIC:
        return k * (k - 1) / 2.0
    raise ValueError(f"unknown tail class {cls!r}")


def _check_r_halfopen(r) -> None:
    a = np.asarray(r)
    if not ((a >= 0) & (a < 1)).all():  # NaN fails both comparisons
        raise ValueError(f"r must lie in [0, 1), got {r!r}")


def _check_n(n: int, least: int) -> None:
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")


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


def tail_general_pair_diag(n: int, r):
    """Combined analytic + co-analytic general tail at equal order n.

    Closed form of tail_weighted(GENERAL_ANALYTIC, n, r)
    + tail_weighted(GENERAL_CO_ANALYTIC, n, r), i.e. of
    sum_{k>n} k(2k^2+1)/3 r^(k-1):

        r^n [12 + 12(n-1)(1-r) + 3(2n^2-2n+1)(1-r)^2 + (2n^3+n)(1-r)^3]
        / (3 (1-r)^4)
    """
    _check_n(n, 1)
    _check_r_halfopen(r)
    return _tail_general_pair_diag(n, r)


def _tail_general_pair_diag(n, r):
    s = 1.0 - r
    num = 12.0 + 12.0 * (n - 1) * s + 3.0 * (2 * n**2 - 2 * n + 1) * s**2 + (2 * n**3 + n) * s**3
    return r**n * num / (3.0 * s**4)


def tail_brute(cls: TailClass, n: int, r: float, terms: int) -> float:
    """Truncated sum sum_{k=n+1..n+terms} w(k) r^(k-1).

    Test oracle only.  Summation uses math.fsum, so the result is the
    correctly rounded value of the exact truncated sum; in particular it is
    monotonically nondecreasing in `terms` for r >= 0.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    _check_n(n, 0)
    _check_r_halfopen(r)
    ks = np.arange(n + 1, n + terms + 1, dtype=float)
    with np.errstate(under="ignore"):
        summands = weight(cls, ks) * np.power(float(r), ks - 1.0)
    return math.fsum(summands)
