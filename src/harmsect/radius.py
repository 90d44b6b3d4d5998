"""Univalence-radius margin functions and the certified root solver.

For a geometric family (general or convex-range) and truncation orders
(n, m), the margin function is

    margin(n, m, r) = distortion_floor(r) - analytic_tail(n, r) - co_analytic_tail(m, r).

The margin is ~1 near r = 0 and diverges to -inf as r -> 1, and its unique
positive root is the certified univalence radius of the (n, m) section for
the whole family.  `solve_radius` brackets that root by a forward scan at
step 1e-3 and bisects to a 1e-12-wide interval; bisection is used instead
of secant/Newton because the functions are cheap and the bracket invariant
(positive on the left, nonpositive on the right) is unconditional.

Evaluation at r <= 0 or r >= 1 (or at NaN) is a hard error, not a limit
value: the rational forms are singular at the endpoints and silent
extrapolation near them has bitten before.  Orders must be integers >= 2.

Arguments are checked once, at the public entry: each public floor and
margin checks its orders and r, then evaluates the unchecked cores
(`_floor_general`, `tails._tail_weighted`, ...).  So one margin evaluation
makes one r check, and `solve_radius`, which calls the public margin,
makes one per evaluation.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .tails import TailClass, _check_r_halfopen, _tail_general_pair_diag, _tail_weighted

SCAN_STEP = 1e-3
BRACKET_WIDTH = 1e-12
MAX_THRESHOLD_ORDER = 10_000


class NoBracketError(RuntimeError):
    """The forward scan found no sign change; carries scan diagnostics."""


class FamilyClass(enum.Enum):
    """Geometric family governing coefficient bounds and the distortion floor."""

    GENERAL = "general"
    CONVEX = "convex"


@dataclass(frozen=True)
class RadiusResult:
    """Certified root of a margin function, with its final bisection bracket.

    The margin is strictly positive at bracket_lo and nonpositive at
    bracket_hi; `radius` is the bracket midpoint and `residual` the margin
    value there.  `lower_bound` carries the asymptotic lower bound when the
    family and order admit one, and the radius always dominates it.
    """

    radius: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    lower_bound: float | None = None


def _check_r_open(r) -> None:
    # NaN fails every comparison, so every value must be shown inside.  A
    # float is compared directly: the numpy form costs about 5 us, as much
    # as the rest of a scalar margin.
    if isinstance(r, float):
        inside = 0.0 < r < 1.0
    else:
        a = np.asarray(r)
        inside = ((a > 0) & (a < 1)).all()
    if not inside:
        raise ValueError(f"r must lie in (0, 1), got {r!r}")


def _check_orders(n: int, m: int) -> None:
    try:
        operator.index(n), operator.index(m)
    except TypeError:
        raise ValueError(f"orders must be integers, got ({n!r}, {m!r})") from None
    if n < 2 or m < 2:
        raise ValueError(f"orders must both be >= 2, got ({n}, {m})")


def distortion_floor_general(r):
    """Two-point distortion lower bound for the general families.

    (1/(12r)) u^3 (1 - u^6) with u = (1-r)/(1+r); tends to 1 as r -> 0+.
    """
    _check_r_open(r)
    return _floor_general(r)


def _floor_general(r):
    u = (1.0 - r) / (1.0 + r)
    return u**3 * (1.0 - u**6) / (12.0 * r)


def distortion_floor_convex(r):
    """Two-point distortion lower bound for the convex family: (1-r)/(1+r)^3."""
    _check_r_open(r)
    return _floor_convex(r)


def _floor_convex(r):
    return (1.0 - r) / (1.0 + r) ** 3


def margin_general(n: int, m: int, r):
    """General-family univalence margin at radius r for the (n, m) section."""
    _check_orders(n, m)
    _check_r_open(r)
    return (
        _floor_general(r)
        - _tail_weighted(TailClass.GENERAL_ANALYTIC, n, r)
        - _tail_weighted(TailClass.GENERAL_CO_ANALYTIC, m, r)
    )


def margin_general_diag(n: int, r):
    """Equal-order general margin in fully combined closed form.

    (1-r)^3 (3 + 10 r^2 + 3 r^4) / (3 (1+r)^9) minus the combined tail;
    agrees with margin_general(n, n, r) to roundoff.
    """
    _check_orders(n, n)
    _check_r_open(r)
    floor = (1.0 - r) ** 3 * (3.0 + 10.0 * r**2 + 3.0 * r**4) / (3.0 * (1.0 + r) ** 9)
    return floor - _tail_general_pair_diag(n, r)


def margin_convex(n: int, m: int, r):
    """Convex-family univalence margin at radius r for the (n, m) section."""
    _check_orders(n, m)
    _check_r_open(r)
    return (
        _floor_convex(r)
        - _tail_weighted(TailClass.CONVEX_ANALYTIC, n, r)
        - _tail_weighted(TailClass.CONVEX_CO_ANALYTIC, m, r)
    )


def margin_convex_diag(n: int, r):
    """Equal-order convex margin: the combined tail collapses to sum k^2 r^(k-1)."""
    _check_orders(n, n)
    _check_r_open(r)
    s = 1.0 - r
    tail = r**n * (2.0 + (2 * n - 1) * s + n**2 * s**2) / s**3
    return s / (1.0 + r) ** 3 - tail


def margin_convex_poly(n: int, r):
    """Polynomial form with the same sign as margin_convex_diag on (0, 1).

    (1-r)^4 - [2 + (2n-1)(1-r) + n^2 (1-r)^2] (1+r)^3 r^n, obtained by
    multiplying the diagonal margin by (1-r)^3 (1+r)^3 > 0.  Defined on
    0 <= r < 1 and equal to 1 at r = 0.
    """
    _check_orders(n, n)
    _check_r_halfopen(r)
    s = 1.0 - r
    return s**4 - (2.0 + (2 * n - 1) * s + n**2 * s**2) * (1.0 + r) ** 3 * r**n


def margin_fn(family: FamilyClass):
    """Margin function f(n, m, r) for the given family."""
    return margin_general if family is FamilyClass.GENERAL else margin_convex


def log_offset_general(n: int) -> float:
    """7 ln n - 4 ln ln n; the general lower bound is 1 minus this over n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 7.0 * math.log(n) - 4.0 * math.log(math.log(n))


def log_offset_convex(n: int) -> float:
    """4 ln n - 2 ln ln n; the convex lower bound is 1 minus this over n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 4.0 * math.log(n) - 2.0 * math.log(math.log(n))


def lower_bound_general(n: int) -> float:
    """Asymptotic lower bound 1 - (7 ln n - 4 ln ln n)/n for the general root.

    Positive exactly from n = 15 on, hence the domain restriction.
    """
    if n < 15:
        raise ValueError(f"general lower bound requires n >= 15, got {n}")
    return 1.0 - log_offset_general(n) / n


def lower_bound_convex(n: int) -> float:
    """Asymptotic lower bound 1 - (4 ln n - 2 ln ln n)/n for the convex root.

    Positive exactly from n = 7 on.
    """
    if n < 7:
        raise ValueError(f"convex lower bound requires n >= 7, got {n}")
    return 1.0 - log_offset_convex(n) / n


def close_to_convex_radius(n: int) -> float:
    """Close-to-convexity radius 1 - 3 ln(n)/n of equal-order convex sections, n >= 5."""
    if n < 5:
        raise ValueError(f"close-to-convexity radius requires n >= 5, got {n}")
    return 1.0 - 3.0 * math.log(n) / n


def _scan_grid() -> np.ndarray:
    return np.arange(1, int(round(1.0 / SCAN_STEP))) * SCAN_STEP


def solve_radius(family: FamilyClass, n: int, m: int) -> RadiusResult:
    """Certified root of the (n, m) margin for `family`.

    Scans r = 1e-3, 2e-3, ... for the first change from positive to
    nonpositive, checks that the scan saw exactly one sign change (a
    violation is reported as a warning, never silently absorbed), then
    bisects the bracket to width <= 1e-12.
    """
    _check_orders(n, m)
    f = margin_fn(family)
    grid = _scan_grid()
    values = f(n, m, grid)

    pos = values > 0.0
    flips = int(np.count_nonzero(pos[:-1] != pos[1:]))
    drops = np.nonzero(pos[:-1] & ~pos[1:])[0]
    if drops.size == 0:
        raise NoBracketError(
            f"no positive-to-nonpositive change for {family.value} (n={n}, m={m}); "
            f"margin range on scan grid: [{values.min():.3e}, {values.max():.3e}]"
        )
    if flips != 1:
        warnings.warn(
            f"margin for {family.value} (n={n}, m={m}) changed sign {flips} times "
            f"on the scan grid; using the first bracket",
            stacklevel=2,
        )

    i = int(drops[0])
    lo, hi = float(grid[i]), float(grid[i + 1])
    iterations = 0
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if f(n, m, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1

    radius = 0.5 * (lo + hi)
    low_order = min(n, m)
    if family is FamilyClass.GENERAL and low_order >= 15:
        bound = lower_bound_general(low_order)
    elif family is FamilyClass.CONVEX and low_order >= 7:
        bound = lower_bound_convex(low_order)
    else:
        bound = None
    if bound is not None and radius <= bound:
        warnings.warn(
            f"computed radius {radius} does not dominate the asymptotic lower "
            f"bound {bound} for {family.value} (n={n}, m={m})",
            stacklevel=2,
        )
    return RadiusResult(
        radius=radius,
        bracket_lo=lo,
        bracket_hi=hi,
        residual=float(f(n, m, radius)),
        iterations=iterations,
        lower_bound=bound,
    )


def threshold_order(family: FamilyClass, target: float) -> int:
    """Smallest n >= 2 whose equal-order certified radius reaches `target`.

    Linear upward scan stopping at the first success; the sampled radius
    sequence is expected to be increasing, and any observed decrease is
    reported as a warning while the scan keeps its smallest-success
    semantics.  Hard cap at n = 10_000: a target no order up to it reaches
    raises ValueError.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target!r}")
    prev = None
    for n in range(2, MAX_THRESHOLD_ORDER + 1):
        radius = solve_radius(family, n, n).radius
        if prev is not None and radius < prev:
            warnings.warn(
                f"equal-order radius sequence decreased at n={n} "
                f"({prev} -> {radius}) for {family.value}",
                stacklevel=2,
            )
        if radius >= target:
            return n
        prev = radius
    raise ValueError(
        f"no equal-order radius reached {target} for {family.value} up to "
        f"n={MAX_THRESHOLD_ORDER}"
    )
