"""Univalence-radius margin functions and the certified root solver.

For a geometric family (general or convex-range) and truncation orders
(n, m), the margin function is

    margin(n, m, r) = distortion_floor(r) - analytic_tail(n, r) - co_analytic_tail(m, r).

The margin tends to 1 as r -> 0+ and to -inf as r -> 1-, and it decreases
strictly in r, so it has exactly one root, the certified univalence radius
of the (n, m) section for the whole family.  `solve_radius` bisects the
fixed bracket [2**-10, 1 - 2**-53], which holds that root for every order
whose root lies at least one double below 1 (equal orders below about
1.4e18 for convex and 2.5e18 for general), to a 1e-12-wide interval;
bisection is used instead of secant/Newton because the functions are cheap
and the bracket invariant (positive on the left, nonpositive on the right)
is unconditional.
`threshold_order` needs no root: it reads each order off the margin's sign
at the target.

Evaluation at r <= 0 or r >= 1 (or at NaN) is a hard error, not a limit
value: the rational forms are singular at the endpoints and silent
extrapolation near them has bitten before.  Orders must be integers from
2 up to, but not including, 2**341, past which the tails' n**3 overflows.
The two families differ only in the facts one `_FAMILIES` record holds:
the distortion floor, the closed-form rows of the analytic and
co-analytic tails, the constants (a, b) of the asymptotic bound
1 - (a ln n - b ln ln n)/n and the first order at which that bound is
positive.  Each row ends in the tail's weight w(k) = k |a_k| (or k |b_k|),
so the family's coefficient bounds, which the maps of `harmonic.extremal_map`
take with equality, are read off the same rows.  `distortion_floor`,
`log_offset` and `lower_bound` take the family and read its record;
the two bounds check the order once and evaluate the one unchecked core
`_log_offset`, which the claims call directly.  Both margins are the one
core `_margin`: the floor minus two tails of the one tail core.  The
combined equal-order, polynomial and elementary-tail forms that
cross-check it live with the tests.

Arguments are checked once, at the public entry: the public floor and
each margin check their orders and r, then evaluate the unchecked cores
(the record's floor, `tails.tail_weighted` on the record's integer
rows).  So one margin evaluation makes one r check and builds nothing it
does not use.  `_margin_at` is the solver's setup, done once per solve: it
checks the orders, forms both tail rows as floats, and binds them to the
record's `evaluate`, the same margin written out for that family's row
length, so each bisection step is one call.  `solve_radius` bisects it
with no r check at all: every r it evaluates lies in the fixed bracket.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .tails import tail_weighted

# every root lies inside: see solve_radius
_BRACKET = (2.0**-10, 1.0 - 2.0**-53)
BRACKET_WIDTH = 1e-12
MAX_THRESHOLD_ORDER = 10_000


class FamilyClass(enum.Enum):
    """Geometric family governing coefficient bounds and the distortion floor."""

    GENERAL = "general"
    CONVEX = "convex"

    # Enum hashes a member by its name in Python code; each margin and log
    # offset looks its family up in _FAMILIES, so hash by identity in C
    # (members are singletons, and Enum compares them by identity)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class RadiusResult:
    """Certified root of a margin function, with its final bisection bracket.

    The margin is strictly positive at bracket_lo and nonpositive at
    bracket_hi; `radius` is the bracket midpoint and `residual` the margin
    value there.  `lower_bound` carries the asymptotic lower bound when the
    family and order admit one; a radius that does not dominate it (from
    about n = 1e13, where the bracket no longer resolves 1 - r) is reported
    as a warning.
    """

    radius: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int
    lower_bound: float | None = None


def _check_r_open(r):
    """r once every value lies in (0, 1).

    A list or other sequence comes back as a float64 array, and any other
    0-d r (a 0-d array, a float32 or float16 scalar) as a Python float, so
    every r is evaluated in double precision.
    """
    # NaN fails every comparison, so every value must be shown inside.  A
    # float is compared directly: the numpy form costs about 5 us, as much
    # as the rest of a scalar margin.
    if isinstance(r, float):
        if 0.0 < r < 1.0:
            return r
    else:
        a = np.asarray(r, dtype=float)
        if ((a > 0) & (a < 1)).all():
            return a if a.ndim else float(a)
    raise ValueError(f"r must lie in (0, 1), got {r!r}")


# n**3, the highest power of n the tail rows take, is a finite double for
# every n below this
_MAX_ORDER = 2**341


def _check_orders(n: int, m: int) -> tuple[int, int]:
    # numpy integers come back as Python ints: the tail coefficients take
    # n**3, which wraps in int64 from n = 2.1e6
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        raise ValueError(f"orders must be integers, got ({n!r}, {m!r})") from None
    if n < 2 or m < 2:
        raise ValueError(f"orders must both be >= 2, got ({n}, {m})")
    if n >= _MAX_ORDER or m >= _MAX_ORDER:
        raise ValueError("orders must be below 2**341, where n**3 leaves the double range")
    return n, m


def _floor_general(r):
    # u^3 (1 - u^6)/(12 r) with u = (1-r)/(1+r), by (1+r)^6 - (1-r)^6 =
    # 4r (3 + 10r^2 + 3r^4); the u form cancels as r -> 0 (0.0 from r = 1e-17)
    return (1.0 - r) ** 3 * (3.0 + r * r * (10.0 + 3.0 * r * r)) / (3.0 * (1.0 + r) ** 9)


def _floor_convex(r):
    return (1.0 - r) / (1.0 + r) ** 3


# The margin at one r on the float rows a and c, written out per family: the
# floor core, then tail_weighted on each row with its Horner loop unrolled.
# The loop's first step, 0.0 * s + e, is e exactly (s > 0, every e a finite
# double >= 0), so the chain starts at the last entry; every other operation
# is the loop's, in its order (s**d is formed once, as the same pow), so the
# bits are the same.


def _margin_general_at(n, m, a, c, r):
    s = 1.0 - r
    d = s**4
    return (_floor_general(r) - r**n * (((a[3] * s + a[2]) * s + a[1]) * s + a[0]) / d
            - r**m * (((c[3] * s + c[2]) * s + c[1]) * s + c[0]) / d)


def _margin_convex_at(n, m, a, c, r):
    s = 1.0 - r
    d = s**3
    return (_floor_convex(r) - r**n * ((a[2] * s + a[1]) * s + a[0]) / d
            - r**m * ((c[2] * s + c[1]) * s + c[0]) / d)


@dataclass(frozen=True)
class _Family:
    """What the margin and the asymptotic bound take from one family."""

    floor: Callable  # the unchecked distortion floor core
    # the rows n -> (e_0(n), ..., e_{d-1}(n)) of the analytic and co-analytic
    # tails' closed forms (see tails), exact integers for a Python int n and
    # checked exactly against the series in tests/test_tails.py; the last
    # entry is the weight w(n) = n |a_n| (or n |b_n|)
    analytic: Callable
    co_analytic: Callable
    # (n, m, a, c, r) -> the unchecked margin at r on the float rows a and
    # c, the two rows above written out (see _margin_at)
    evaluate: Callable
    log_a: float  # the bound is 1 - (log_a ln n - log_b ln ln n)/n
    log_b: float
    first_bound_order: int  # the first n at which that bound is positive


_FAMILIES = {
    # |a_k| <= (k+1)(2k+1)/6, |b_k| <= (k-1)(2k-1)/6
    FamilyClass.GENERAL: _Family(
        _floor_general,
        lambda n: (2, 2 * n - 1, n**2, n * (n + 1) * (2 * n + 1) // 6),
        lambda n: (2, 2 * n - 3, (n - 1) ** 2, n * (n - 1) * (2 * n - 1) // 6),
        _margin_general_at,
        7.0, 4.0, 15,
    ),
    # |a_k| <= (k+1)/2, |b_k| <= (k-1)/2
    FamilyClass.CONVEX: _Family(
        _floor_convex,
        lambda n: (1, n, n * (n + 1) // 2),
        lambda n: (1, n - 1, n * (n - 1) // 2),
        _margin_convex_at,
        4.0, 2.0, 7,
    ),
}


def distortion_floor(family: FamilyClass, r):
    """Two-point distortion lower bound of `family` at radius r.

    General: (1/(12r)) u^3 (1 - u^6) with u = (1-r)/(1+r), evaluated as
    (1-r)^3 (3 + 10r^2 + 3r^4) / (3 (1+r)^9), which keeps full precision
    as r -> 0+; convex: (1-r)/(1+r)^3.  Both tend to 1 as r -> 0+.
    """
    return _FAMILIES[family].floor(_check_r_open(r))


def _margin_at(family: FamilyClass, n: int, m: int) -> Callable:
    """The unchecked margin r -> margin(n, m, r) of `family`, set up once.

    The orders are checked and both tail rows formed here, as floats, and
    bound to the record's `evaluate`, so a call is one Python call that
    evaluates the floor and two tails and nothing else; r must already lie
    in (0, 1).  float(e) is the double nearest e, which is also what float
    and numpy arithmetic make of the int e, so the float rows give the same
    bits as the int rows.  The rows are floats because the solver makes
    about 40 calls per solve, each of which would otherwise convert every
    int entry again: with int rows here, `certify`'s wall_s rose 3.4% and
    req_p50_ms 3.9% (medians of ten alternating perfbench pairs, worse in 9
    and 10 of 10; 2-core x86_64, Python 3.11, numpy 2.4;
    BENCH_pointwise_scalar.json).  Written out per family instead of the
    floor core plus two calls of `tails.tail_weighted`, a solve at n = m =
    2, 287 and 1e4 takes 31.8-34.6 us in place of 45.7-48.7 us (general)
    and 23.2-26.1 us in place of 38.5-41.1 us (convex), and an in-process
    `radius --format json` request at n = m = 287 108-110 us in place of
    117-127 us (best of 7, three alternating rounds, same machine);
    `certify`'s req_p50_ms fell 14.4% (BENCH_solver_evaluator.json).
    """
    n, m = _check_orders(n, m)
    fam = _FAMILIES[family]
    return partial(fam.evaluate, n, m, tuple(map(float, fam.analytic(n))),
                   tuple(map(float, fam.co_analytic(m))))


def _margin(family: FamilyClass, n: int, m: int, r):
    # one evaluation: the record's int rows go straight to the tail core,
    # which gives the bits of the float rows (see _margin_at) without a
    # bound evaluator and two float tuples built for a single use
    n, m = _check_orders(n, m)
    r = _check_r_open(r)
    fam = _FAMILIES[family]
    return (fam.floor(r) - tail_weighted(fam.analytic(n), n, r)
            - tail_weighted(fam.co_analytic(m), m, r))


def margin_general(n: int, m: int, r):
    """General-family univalence margin at radius r for the (n, m) section."""
    return _margin(FamilyClass.GENERAL, n, m, r)


def margin_convex(n: int, m: int, r):
    """Convex-family univalence margin at radius r for the (n, m) section."""
    return _margin(FamilyClass.CONVEX, n, m, r)


def margin_fn(family: FamilyClass):
    """Margin function f(n, m, r) for the given family."""
    # the module globals, looked up per call, so a function bound in their
    # place sees every margin call `threshold_order` makes; `solve_radius`
    # bisects its own evaluator (see _margin_at)
    return margin_general if family is FamilyClass.GENERAL else margin_convex


def _order_from(n, least: int, what: str, *args) -> int:
    """n as a Python int, once it is shown to be an integer from `least` on.

    `what` names the quantity, formatted with `args` on the error path only.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{what.format(*args)} requires an integer n, got {n!r}") from None
    if n < least:
        raise ValueError(f"{what.format(*args)} requires n >= {least}, got {n}")
    return n


def _log_offset(fam: _Family, n) -> float:
    # the unchecked core of log_offset, for an order already shown to be an
    # integer from 2 on; ln n is formed once
    ln = math.log(n)
    return fam.log_a * ln - fam.log_b * math.log(ln)


def log_offset(family: FamilyClass, n: int) -> float:
    """a ln n - b ln ln n, with (a, b) = (7, 4) general and (4, 2) convex.

    The family's lower bound is 1 minus this over n.
    """
    fam = _FAMILIES[family]
    return _log_offset(fam, _order_from(n, 2, "the {0.value} log offset", family))


def _one_minus_over(offset: float, n: int) -> float:
    """1 - offset/n for an offset below n.

    Past the largest double, n has no float to divide by, and 1 - offset/n
    lies within 2**-1000 of 1, so 1.0 is its correct rounding.
    """
    return 1.0 if n > sys.float_info.max else 1.0 - offset / n


def lower_bound(family: FamilyClass, n: int) -> float:
    """Asymptotic lower bound 1 - log_offset(family, n)/n for the family's root.

    Positive exactly from n = 15 (general) and n = 7 (convex) on, hence the
    domain restriction.
    """
    fam = _FAMILIES[family]
    n = _order_from(n, fam.first_bound_order, "{0.value} lower bound", family)
    return _one_minus_over(_log_offset(fam, n), n)


def close_to_convex_radius(n: int) -> float:
    """Close-to-convexity radius 1 - 3 ln(n)/n of equal-order convex sections, n >= 5."""
    n = _order_from(n, 5, "close-to-convexity radius")
    return _one_minus_over(3.0 * math.log(n), n)


def solve_radius(family: FamilyClass, n: int, m: int) -> RadiusResult:
    """Certified root of the (n, m) margin for `family`.

    The margin has exactly one root in (0, 1).  The general floor is
    (u^3 + 2u^4 + 2u^5 + 2u^6 + 2u^7 + 2u^8 + u^9)/12 with u = (1-r)/(1+r),
    a polynomial with positive coefficients in a u that decreases in r; the
    convex floor (1-r)/(1+r)^3 decreases too; both tails are power series
    with positive coefficients, so they increase.  The margin therefore
    decreases strictly from 1 at r = 0+ to -inf at r = 1-.  It cannot
    decrease as either order grows, and the (2, 2) roots are 0.108
    (general) and 0.190 (convex), so it is positive at r = 2**-10 for
    every order.

    The solver checks the margin's sign once at each end of the fixed
    bracket [2**-10, 1 - 2**-53], then bisects it to width <= 1e-12 (40
    steps), every r a Python float.  A margin still positive at 1 - 2**-53
    has its root within one double of 1 (equal orders from about 1.4e18
    for convex and 2.5e18 for general) and raises ValueError.  From about
    n = 1e13 the 1e-12 bracket no longer resolves 1 - r, and the radius
    may fail to dominate the asymptotic lower bound; that is reported as
    a warning.
    """
    f = _margin_at(family, n, m)
    lo, hi = _BRACKET
    if not f(lo) > 0.0:
        raise ValueError(f"the {family.value} margin (n={n}, m={m}) is not positive at r = {lo}")
    if f(hi) > 0.0:
        raise ValueError(
            f"the {family.value} margin (n={n}, m={m}) is still positive at r = 1 - 2**-53: "
            f"its root lies within one double of 1"
        )
    iterations = 0
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1

    radius = 0.5 * (lo + hi)
    low_order = min(n, m)
    first = _FAMILIES[family].first_bound_order
    bound = lower_bound(family, low_order) if low_order >= first else None
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
        residual=f(radius),
        iterations=iterations,
        lower_bound=bound,
    )


def threshold_order(family: FamilyClass, target: float) -> int:
    """Smallest n >= 2 whose equal-order margin is positive at r = `target`.

    The margin decreases strictly in r: the general floor is
    (u^3 + 2u^4 + 2u^5 + 2u^6 + 2u^7 + 2u^8 + u^9)/12 with u = (1-r)/(1+r),
    positive coefficients in a u that decreases in r, the convex floor
    (1-r)/(1+r)^3 decreases, and the tails increase.  So
    margin(n, n, target) > 0 says exactly that the (n, n) root lies above
    `target`: each order is one sign test, not a solve.  At fixed r the
    margin cannot decrease in n, because raising n drops the positive term
    w(n+1) r^n from each tail, so the first positive order is the
    threshold.  Hard cap at n = 10_000: a target no order up to it reaches
    raises ValueError.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target!r}")
    f = margin_fn(family)
    for n in range(2, MAX_THRESHOLD_ORDER + 1):
        if f(n, n, target) > 0.0:
            return n
    raise ValueError(
        f"no equal-order radius reached {target} for {family.value} up to "
        f"n={MAX_THRESHOLD_ORDER}"
    )
