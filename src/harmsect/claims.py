"""Finite-range verification of the auxiliary inequalities behind the radius bounds.

The asymptotic lower bounds on the certified radii rest on a chain of
claims about two scalar functions: the substitution r = 1 - x/n turns the
equal-order margin condition into "ratio < 1" for

    general: ratio(x, n) = e^-x (n/x)^7 (2 - x/n)^9 * N(x, n) / D(x, n)
    convex:  ratio(x, n) = e^-x (n/x)^4 (2 - x/n)^3 * (2 + (2n-1)x/n + x^2)

together with monotonicity of the ratio in x, positivity of a bracket
polynomial (degree 9 in x, 7 in n) appearing in its derivative, root locations of five
fixed polynomials, and bounds on auxiliary slowly-varying functions.
Each claim is registered under a stable id and checked over an explicit
finite parameter range (dense n up to 500, spot checks at 1e3/1e4/1e6
where the original statement is unbounded); the report always states the
range actually checked.  The registry is declared as data: each row of
_TABLE gives the id, that range text and the check steps the claim runs in
order, and one runner turns a row into its report.  The checks the general
and convex ratios share (adjacent decrease, 0 < ratio < 1 at the offset,
the limit spot check) are single steps that read the family's log ratio,
limit and tolerance from its _RATIO_FAMILIES entry.  The log offset comes
from radius.log_offset, and every dense range starts at the family's
first bound order, read from the one family record in radius.

Large-n evaluation of the ratios accumulates logarithms and exponentiates
once, and the general ratio's N and D are evaluated in scaled form (see
_bracket_num_den), so neither the (n/x)^7 prefactor nor the powers of n in
N and D overflow; the limit claims' ratios stay finite up to n = 1e200 and
beyond.

Every step that loops over orders runs on 2-D blocks instead: a column of
orders against the grid (or against one point per order), one numpy pass
per block of at most _BLOCK_POINTS points, so peak memory stays flat.  A
private core takes each order only through factors formed from the int n
in Python (exact powers n**k, math.log(n)); numpy's power of a float column
is not the exact integer power, so the factors are passed as float columns.
A block's row is then the public function's array evaluation at that order,
bit for bit, and _Margins.add_rows keeps the witness a loop over the orders
would keep.  The Q-roots claim's Sturm counts decide each sign in integers
(see polyroots).

The q2-positive and Q-identity steps, which evaluate the slope bracket,
write into one workspace per call: _on_blocks allocates one float array
of (arrays, orders per block, width) once, on a 64-byte boundary, and
each block writes the bracket's terms (and q2-positive's grid and
margins) into views of it, through ufunc out= arguments.  When each
q2-positive block allocated and freed its seven 64 KB arrays instead,
glibc's free trimmed the heap top after every block wherever no live
chunk sat above them, and the next block faulted the same pages back in
(about 4600 minor faults per call), so the step's time depended on the
process's heap layout.  The t-decreasing, T-decreasing and q1-negative
steps still allocate their arrays per block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .polyroots import _horner, isolate_real_roots
from .radius import _FAMILIES, FamilyClass, distortion_floor, log_offset

SPOT_ORDERS = (1_000, 10_000, 1_000_000)
LIMIT_SPOT_ORDER = 1_000_000


class UnknownClaimError(KeyError):
    """Requested claim id is not registered."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


# --------------------------------------------------------------------------
# ratio functions and their derivative factors
# --------------------------------------------------------------------------
#
# Each public function checks its arguments and calls a private core that
# takes the order only through factors formed from it (the _*_factors
# functions and _powers); a blocked claim step passes the same factors as
# (orders, 1) float columns.


# the largest order the ratios take: numpy converts n to a double to
# compare it with x, which raised OverflowError for larger ints
_MAX_RATIO_ORDER = sys.float_info.max


def _order_text(n) -> str:
    """n as an error message states it: an int by its size, anything else by its repr."""
    return f"an order of {n.bit_length()} bits" if isinstance(n, int) else repr(n)


def _check_x_range(x, n: int) -> None:
    if n > _MAX_RATIO_ORDER:  # inf too; NaN fails the range test below
        raise ValueError(f"n must be at most {_MAX_RATIO_ORDER!r}, the largest double, got {_order_text(n)}")
    xs = np.asarray(x)
    if not ((xs > 0) & (xs <= n)).all():
        raise ValueError(f"x must lie in (0, n], got x={x!r} for n={n}")


def _powers(n, count: int) -> tuple:
    """n**0 .. n**(count - 1), exact for an int n."""
    return tuple(n**k for k in range(count))


def _num_den_factors(n) -> tuple[float, float, float, float]:
    """u = 1/n and the three polynomials in u that _bracket_num_den takes."""
    u = 1.0 / n
    return u, 12.0 * (1.0 - u), 3.0 * (2.0 - 2.0 * u + u**2), 2.0 + u**2


def _bracket_num_den(x, u, c1, c2, c3):
    """N(x, n) / (n^4 s^3), D(x, n) / n^4 and s = max(x, 1) of the general ratio.

    ln(N / D) is ln(num) + 3 ln(s) - ln(den).  Neither part forms a power
    of n or of x above 1, so both stay finite for every x in (0, n] and n
    up to 1e300; 1/n is formed once, so int and float n agree.  With
    y = x/n, den = 16 - 32y + 28y^2 - 12y^3 + 3y^4 = 3(y-1)^4 + 10(y-1)^2 + 3
    is at least 3 for every real y, so it never vanishes and its log and
    square need no check.
    """
    y = x * u
    s = np.maximum(x, 1.0)
    v, w = 1.0 / s, x / s
    num = 12.0 * v**3 + c1 * w * v**2 + c2 * w**2 * v + c3 * w**3
    den = 16.0 - 32.0 * y + 28.0 * y**2 - 12.0 * y**3 + 3.0 * y**4
    return num, den, s


def _general_factors(n) -> tuple:
    return (n, math.log(n), *_num_den_factors(n))


def _log_ratio_general(x, n, ln_n, u, c1, c2, c3):
    num, den, s = _bracket_num_den(x, u, c1, c2, c3)
    return (
        -x
        + 7.0 * (ln_n - np.log(x))
        + 9.0 * np.log(2.0 - x / n)
        + np.log(num)
        + 3.0 * np.log(s)
        - np.log(den)
    )


def _slope_prefactor(x, n, u, c1, c2, c3):
    _, den, _ = _bracket_num_den(x, u, c1, c2, c3)
    # den is D / n^4, so the n^8 of (2n - x)^8 cancels against D^2
    return -((2.0 - x / n) ** 8) * np.exp(-x) / (x**8 * den**2)


def slope_prefactor_general(x, n: int):
    """Strictly negative prefactor in d/dx of the general tail_ratio, x in (0, n].

    -(2n - x)^8 e^-x / (x^8 D(x, n)^2); the full derivative is this times
    slope_bracket_general.
    """
    _check_x_range(x, n)
    return _slope_prefactor(x, n, *_num_den_factors(n))


def _bracket_factors(p) -> tuple:
    """The slope bracket's 14 factors that depend on the order alone, p[k] = n**k.

    Each is the derived expression's factor, the same operations in the
    same order: on Python floats each IEEE operation gives the double it
    gives on a float column, and on the ints of an int n, n - 3 is exact.
    """
    n = p[1]
    return (
        2688.0 * (n - 3) * p[6],
        2688.0 * p[7],
        448.0 * p[7] - 2368.0 * p[6] + 3648.0 * p[5],
        64.0 * p[4] * (7.0 * p[3] - 48.0 * p[2] + 137.0 * n - 132.0),
        16.0 * p[2] * (59.0 * p[3] - 128.0 * p[2] + 178.0 * n - 75.0),
        80.0 * p[4],
        32.0 * p[5],
        1672.0 * p[3],
        4.0 * p[2],
        2040.0 * n,
        2.0 * p[2],
        2.0 * n * (88.0 * p[4] - 240.0 * p[3] + 434.0 * p[2] - 390.0 * n + 81.0),
        2.0 * n * (78.0 * p[2] - 98.0 * n + 57.0),
        6.0 * (6.0 * p[3] - 2.0 * p[2] + 6.0 * n - 1.0),
    )


# the arrays of x's shape that _slope_bracket writes into
_BRACKET_BUFFERS = 6


def _slope_bracket(x, p, work):
    # p[k] is n**k: Python numbers, or (orders, 1) float columns.  Each
    # term is the derived expression's term: the same operations on the
    # same operands in the same order, each array result written into work
    # (x^3, x^5 and x^7, which two term groups each use, the running sum
    # and two scratch arrays).  The factors formed from n alone are
    # _bracket_factors of Python numbers, order by order for columns: about
    # 50 numpy calls on (orders, 1) columns cost more than the Python
    # arithmetic.  x^2 is np.power(x, 2): on float arrays that is
    # np.square's value, as x**2 is, and on the object arrays of a scalar x
    # it is the scalar's own x**2.  Returns the sum, an array of work.
    if isinstance(p[1], np.ndarray):
        c = _columns(_bracket_factors, zip(*(column[:, 0].tolist() for column in p[:8])))
    else:
        c = _bracket_factors(p)
    x3, x5, x7, total, t, u = work
    np.power(x, 3, out=x3)
    np.power(x, 5, out=x5)
    np.power(x, 7, out=x7)
    # 2688 n^7 + 2688 (n - 3) n^6 x
    np.multiply(c[0], x, out=total)
    np.add(c[1], total, out=total)
    # + 3 (448 n^7 - 2368 n^6 + 3648 n^5 - x^7) x^2
    np.subtract(c[2], x7, out=t)
    np.multiply(3.0, t, out=t)
    np.multiply(t, np.power(x, 2, out=u), out=t)
    np.add(total, t, out=total)
    # + 64 n^4 (7 n^3 - 48 n^2 + 137 n - 132) x^3 + 16 n^2 (59 n^3 - 128 n^2 + 178 n - 75) x^5
    np.multiply(c[3], x3, out=t)
    np.add(total, t, out=total)
    np.multiply(c[4], x5, out=t)
    np.add(total, t, out=total)
    # + 2 n^2 (32 n^5 - 80 n^4 (6 + x) + 1672 n^3 - 4 n^2 (774 + 13 x^3) + 2040 n - 3 x^5) x^4
    np.multiply(c[5], np.add(6.0, x, out=t), out=t)
    np.subtract(c[6], t, out=t)
    np.add(t, c[7], out=t)
    np.multiply(c[8], np.add(774.0, np.multiply(13.0, x3, out=u), out=u), out=u)
    np.subtract(t, u, out=t)
    np.add(t, c[9], out=t)
    np.subtract(t, np.multiply(3.0, x5, out=u), out=t)
    np.multiply(c[10], t, out=t)
    np.multiply(t, np.power(x, 4, out=u), out=t)
    np.add(total, t, out=total)
    # + 2 n (88 n^4 - 240 n^3 + 434 n^2 - 390 n + 81) x^6 + 2 n (78 n^2 - 98 n + 57) x^7
    np.multiply(c[11], np.power(x, 6, out=t), out=t)
    np.add(total, t, out=total)
    np.multiply(c[12], x7, out=t)
    np.add(total, t, out=total)
    # + 6 (6 n^3 - 2 n^2 + 6 n - 1) x^8
    np.multiply(c[13], np.power(x, 8, out=t), out=t)
    return np.add(total, t, out=total)


# At x near n the bracket's terms reach n^11, and (2**93)**11 = 2**1023 is
# the largest power of two a double holds: from 2**93 both bracket forms
# return nan or inf, and past it their powers of n overflow.
_MAX_SLOPE_ORDER = 2**93


def _check_slope_order(n) -> None:
    if not n < _MAX_SLOPE_ORDER:  # NaN fails too
        raise ValueError(f"n must be below 2**93, where the bracket leaves the double range, got {n!r}")


def slope_bracket_general(x, n: int):
    """Bracket polynomial in the derivative of the general tail_ratio.

    Degree 9 in x (from the -3 x^9 and -6 n^2 x^9 terms) and 7 in n;
    n must be below 2**93.

    Entered term group by term group exactly as derived, with n**k written
    p[k]; no re-expansion.  A scalar x gives a scalar, an array x a float
    array of its shape.
    """
    _check_slope_order(n)
    # A scalar x runs the core on object arrays, whose loops call the
    # scalar's own operators: numpy's vector power differs from the scalar
    # power in the last bit at some points, and a scalar keeps the scalar bits.
    scalar = np.isscalar(x)
    xs = np.array(x, dtype=object if scalar else None, ndmin=1)
    work = np.empty((_BRACKET_BUFFERS, *xs.shape), dtype=object if scalar else float)
    value = _slope_bracket(xs, _powers(n, 8), work)
    return value if np.ndim(x) else value[0]


# Catalogued parts of the scaled bracket under x = n/k, coefficients ascending
# in k.  The Q-roots claim proves their real roots on [-10, 10] exactly and,
# from them, that each is positive on [1, 3].
SCALED_BRACKET_PARTS: tuple[tuple[float, ...], ...] = (
    tuple(6.0 * c for c in (27, -92, 204, -224, 112)),
    tuple(2.0 * c for c in (-3, 57, -390, 1424, -3096, 4384, -3552, 1344)),
    (-3.0, 36.0, -196.0, 868.0, -2048.0, 3344.0, -3072.0, 1344.0),
    tuple(4.0 * c for c in (3, 39, -120, 236, -240, 112)),
    tuple(2.0 * c for c in (-3, 18, -52, 88, -80, 32)),
)

# The quartic-in-k part is catalogued with trailing constant +3 (that
# variant's single real root sits near -0.0631), but reconstructing the
# slope bracket exactly requires -3 here: with +3 the assembly overshoots
# slope_bracket_general(n/k, n) by 24 n^10 / k^8.
_ASSEMBLY_PART_4 = tuple(4.0 * c for c in (-3, 39, -120, 236, -240, 112))


def _slope_bracket_scaled(k, p):
    # p[j] is n**j
    p1, p2, p3, _, p5 = SCALED_BRACKET_PARTS
    v1, v2, v3, v4, v5 = _horner((p1, p2, p3, _ASSEMBLY_PART_4, p5), k)
    return (
        p[7] * (1.0 - 2.0 * k) ** 2 / k**6 * v1
        + p[8] / k**8 * v2
        + p[9] / k**9 * v3
        + p[10] / k**8 * v4
        + p[11] / k**9 * v5
    )


def slope_bracket_scaled(k, n: int):
    """Slope bracket under the substitution x = n/k, assembled from the parts.

    Valid for k in [1, 3] and n below 2**93; agrees with
    slope_bracket_general(n/k, n) to roundoff, which is what the Q-identity
    claim certifies.
    """
    ks = np.asarray(k)
    if not ((ks >= 1) & (ks <= 3)).all():
        raise ValueError(f"k must lie in [1, 3], got {k!r}")
    _check_slope_order(n)
    return _slope_bracket_scaled(k, _powers(n, 12))


def _convex_factors(n) -> tuple:
    return (n, math.log(n))


def _log_ratio_convex(x, n, ln_n):
    inner = 2.0 + (2.0 * n - 1.0) * x / n + x**2
    return -x + 4.0 * (ln_n - np.log(x)) + 3.0 * np.log(2.0 - x / n) + np.log(inner)


@dataclass(frozen=True)
class _RatioFamily:
    """One family's tail-to-floor ratio: its core, the core's factors, and the claimed limit."""

    log_ratio: Callable  # the private core: log_ratio(x, *factors(n))
    factors: Callable
    limit: Fraction  # exact, so the check states it as str(limit) and measures with float(limit)
    tol: str  # text, so the report states the tolerance as written


_RATIO_FAMILIES = {
    FamilyClass.GENERAL: _RatioFamily(_log_ratio_general, _general_factors, Fraction(64, 2401), "1e-3"),
    FamilyClass.CONVEX: _RatioFamily(_log_ratio_convex, _convex_factors, Fraction(1, 2), "1e-2"),
}


def log_tail_ratio(family: FamilyClass, x, n: int):
    """ln of tail_ratio(family, x, n).

    The general form is finite on all of (0, n] for n up to 1e300.  The
    convex form forms (2n - 1) x and x^2, so it is finite on all of (0, n]
    only for n up to about 9.4e153; past the double range it returns inf or
    raises OverflowError (inf already at x = 50 for n = 2**1021).
    """
    _check_x_range(x, n)
    fam = _RATIO_FAMILIES[family]
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else float(x)
    return fam.log_ratio(x, *fam.factors(n))


def tail_ratio(family: FamilyClass, x, n: int):
    """Scaled tail-to-floor ratio of the family's equal-order margin at r = 1 - x/n, x in (0, n].

    The equal-order margin is positive wherever this is below 1.
    """
    return np.exp(log_tail_ratio(family, x, n))


def _convex_bracket(x, n, n2):
    # n2 is n**2
    return (
        2.0 * n2 * (8.0 + 8.0 * x + 4.0 * x**2 + x**3)
        - n * x * (8.0 + 4.0 * x + x**2 + x**3)
        + x**3
    )


# The bracket forms n**2, which for a larger order leaves the double range:
# an int square raised OverflowError on its way to a float, and so did a
# float's n**2.  Every double up to the bound has a finite square.
_MAX_CONVEX_ORDER = math.isqrt(int(sys.float_info.max))


def convex_slope_bracket(x, n: int):
    """Positive bracket in -d/dx of the convex tail_ratio.

    The derivative equals -(2n - x)^2 * this / (e^x x^5), so positivity of
    the bracket certifies that the convex ratio decreases.  n must be at
    most the square root of the largest double, about 1.34e154.
    """
    if not n <= _MAX_CONVEX_ORDER:  # NaN fails too
        raise ValueError(f"n must be at most {math.sqrt(sys.float_info.max)!r}, where n**2 leaves "
                         f"the double range, got {_order_text(n)}")
    return _convex_bracket(x, n, n**2)


# --------------------------------------------------------------------------
# auxiliary bound functions for the convex ratio at x = beta_n
# --------------------------------------------------------------------------


def _aux_a(x: float) -> float:
    lx, llx = math.log(x), math.log(math.log(x))
    return lx - llx + llx**2 / (4.0 * lx)


def _aux_b(x: float) -> float:
    return math.log(x) - math.log(math.log(x)) / 2.0


def _aux_c(x: float) -> float:
    return 2.0 - math.log(math.log(x)) / math.log(x)


# bound once: reading an Enum member off its class costs about 0.2 us, and
# the convex offset is taken once per order
_convex_offset = partial(log_offset, FamilyClass.CONVEX)


def _convex_ratio_parts(n: int) -> tuple[float, float, float]:
    beta = _convex_offset(n)
    ln = math.log(n)
    common = (1.0 - beta / (2.0 * n)) ** 3
    t1 = 16.0 * ln**2 / beta**4 * common
    t2 = 16.0 * ln**2 / beta**3 * common * (1.0 - 1.0 / (2.0 * n))
    t3 = 8.0 * ln**2 / beta**2 * common
    return t1, t2, t3


# --------------------------------------------------------------------------
# claim registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one finite-range claim check.

    worst_margin is a "distance to failure": positive means the claim held
    everywhere on the stated range, with the witness recording where the
    margin was smallest.  Tolerance-style claims use margin = tol - |error|.
    """

    claim_id: str
    parameter_range: str
    verdict: str
    worst_margin: float
    witness: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def as_dict(self) -> dict:
        return asdict(self)


class _Margins:
    """Tracks the minimum margin and its witness across a claim's checks."""

    def __init__(self) -> None:
        self.value = math.inf
        self.witness: dict = {}

    def add(self, margin: float, **witness) -> None:
        margin = float(margin)
        if margin < self.value:
            self.value = margin
            self.witness = {k: (float(v) if isinstance(v, np.floating) else v) for k, v in witness.items()}

    def add_rows(self, orders: list, checks: list, xs=None) -> None:
        """A block of orders' margins, with the witness a loop over the orders would keep.

        checks holds (label, margins) pairs, margins with one row (or one
        value) per order; a loop adds an order's checks in list order, then
        the next order's.  xs, if given, holds the grid: one row per order,
        or one row for all; the witness then records the point.
        """
        rows = len(orders)
        lows, at = [], []
        for _, margins in checks:
            margins = np.asarray(margins).reshape(rows, -1)
            j = np.argmin(margins, axis=1)
            lows.append(margins[np.arange(rows), j])
            at.append(j)
        lows = np.stack(lows, axis=1)
        # first smallest in loop order; add() skips a NaN minimum, so it never wins
        r, c = divmod(int(np.argmin(np.where(np.isnan(lows), np.inf, lows))), len(checks))
        point = {} if xs is None else {"x": float(xs[r, at[c][r]] if np.ndim(xs) == 2 else xs[at[c][r]])}
        self.add(lows[r, c], n=orders[r], **point, check=checks[c][0])

    def report(self, claim_id: str, parameter_range: str) -> ClaimReport:
        verdict = "Pass" if self.value > 0.0 else "Fail"
        return ClaimReport(claim_id, parameter_range, verdict, self.value, self.witness)


# Blocked steps evaluate a block of orders against the grid in one numpy pass.
# A block holds at most this many grid points, so peak memory stays flat.
_BLOCK_POINTS = 8192


def _aligned_empty(shape: tuple) -> np.ndarray:
    """np.empty(shape) whose data starts on a 64-byte boundary.

    With AVX-512, each 64-byte vector load from an array that malloc
    placed off that boundary spans two cache lines: on a 2-core AVX-512
    x86_64 machine, q2-positive ran 4-8% slower with its workspace off the
    boundary, so its time depended on where malloc put the workspace.
    """
    count = math.prod(shape)
    raw = np.empty(count + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + count].reshape(shape)


def _on_blocks(orders: list, width: int, block: Callable, m: _Margins, buffers: int = 0) -> None:
    """Add block(ns) for consecutive blocks ns of the orders, at most _BLOCK_POINTS points each.

    block(ns) returns the grid (None for one point per order) and the
    (label, margins) checks, as _Margins.add_rows takes them.  A step with
    buffers allocates one 64-byte aligned workspace of that many (orders
    per block, width) float arrays and calls block(ns, work) with each
    array's first len(ns) rows, so its blocks write into the same memory.
    """
    size = max(1, _BLOCK_POINTS // width)
    work = _aligned_empty((buffers, min(size, len(orders)), width)) if buffers else None
    for i in range(0, len(orders), size):
        ns = orders[i : i + size]
        xs, checks = block(ns) if work is None else block(ns, work[:, : len(ns)])
        m.add_rows(ns, checks, xs)


def _columns(factors: Callable, orders: list) -> np.ndarray:
    """factors(n) for each order, formed in Python; row j is factor j as an (orders, 1) column."""
    return np.ascontiguousarray(np.array([factors(n) for n in orders], dtype=float).T)[:, :, None]


def _grid_rows(starts: list, stops: list, num: int, out=None) -> np.ndarray:
    """np.linspace(start, stop, num) for each (start, stop), one row each, in out (or a new array).

    The steps are np.linspace's: column j is j times the row's step
    (stop - start) / (num - 1), plus the start, and the last column is the
    stop.  Each row has start < stop, far enough apart that the step is
    not 0 (np.linspace divides first for a step that underflows), and
    num is at least 2.
    """
    start, stop = (np.array(ends, dtype=float)[:, None] for ends in (starts, stops))
    if out is None:
        out = np.empty((len(starts), num))
    np.multiply(np.arange(num, dtype=float), (stop - start) / (num - 1), out=out)
    out += start
    out[:, -1:] = stop
    return out


def _dense(family: FamilyClass, stop: int = 501) -> list:
    """The orders from the family's first bound order up to, not including, stop."""
    return list(range(_FAMILIES[family].first_bound_order, stop))


def _decrease_block(family: FamilyClass, ns: list):
    """Adjacent decrease of the log ratio on [offset_n, n]; convex also checks its derivative bracket."""
    fam = _RATIO_FAMILIES[family]
    xs = _grid_rows([log_offset(family, n) for n in ns], ns, 257)
    logs = fam.log_ratio(xs, *_columns(fam.factors, ns))
    checks = [("log-ratio decrease", logs[:, :-1] - logs[:, 1:])]
    if family is FamilyClass.CONVEX:
        n, n2, scale = _columns(lambda n: (n, n**2, 2.0 * float(n) ** 2), ns)
        brackets = _convex_bracket(xs, n, n2) / (scale * (8.0 + 8.0 * xs + 4.0 * xs**2 + xs**3))
        checks.append(("derivative bracket > 0 (normalized)", brackets))
    return xs, checks


def _below_one_block(family: FamilyClass, ns: list):
    fam = _RATIO_FAMILIES[family]
    x, *factors = _columns(lambda n: (log_offset(family, n), *fam.factors(n)), ns)
    value = np.exp(fam.log_ratio(x, *factors))
    return None, [("ratio < 1", 1.0 - value), ("ratio > 0", value)]


def _ratio_limit(family: FamilyClass, m: _Margins) -> None:
    fam = _RATIO_FAMILIES[family]
    n = LIMIT_SPOT_ORDER
    value = np.exp(fam.log_ratio(log_offset(family, n), *fam.factors(n)))
    m.add(float(fam.tol) - abs(value - float(fam.limit)), n=n, value=value,
          check=f"|ratio - {fam.limit}| < {fam.tol}")


_SUMMAND_BOUNDS = (Fraction(1, 32), Fraction(1, 6), Fraction(19, 24))


def _summand_bounds(word: str, m: _Margins) -> None:
    checks = [(float(bound), f"{word} {i} < {bound}") for i, bound in enumerate(_SUMMAND_BOUNDS, start=1)]
    for n in range(16, 501):
        for t, (bound, label) in zip(_convex_ratio_parts(n), checks):
            m.add(bound - t, n=n, check=label)


def _closed_at_n(n: int) -> float:
    """tail_ratio(FamilyClass.GENERAL, n, n) in closed form."""
    return math.exp(-n) * (2.0 * n**3 + 6.0 * n**2 + 7.0 * n + 3.0) / 3.0


def _at_n_block(ns: list):
    x, closed, *factors = _columns(lambda n: (n, _closed_at_n(n), *_general_factors(n)), ns)
    value = np.exp(_log_ratio_general(x, *factors))
    rel = np.abs(value - closed) / closed
    # the smaller of the two, as min(value, closed) picks it
    positivity = np.where(closed < value, closed, value)
    return None, [("positivity", positivity), ("closed form, tol 1e-12", 1e-12 - rel)]


# q2-positive's workspace: the grid, then the bracket's arrays
_Q2_BUFFERS = 1 + _BRACKET_BUFFERS


def _q2_block(ns: list, work):
    """The grid and the normalized bracket, both written into work."""
    xs = _grid_rows([n / 1000.0 for n in ns], ns, 1000, work[0])
    *p, scale = _columns(lambda n: (*_powers(n, 8), 2688.0 * float(n) ** 7), ns)
    margins = _slope_bracket(xs, p, work[1:])
    return xs, [("bracket / 2688 n^7 > 0", np.divide(margins, scale, out=margins))]


def _q1_block(ns: list):
    xs = _grid_rows([n / 512.0 for n in ns], ns, 512)
    factors = _columns(lambda n: (n, *_num_den_factors(n)), ns)
    return xs, [("prefactor < 0", -_slope_prefactor(xs, *factors))]


_EXPECTED_PART_ROOTS: tuple[tuple[float, ...], ...] = (
    (),
    (0.104153,),
    (0.143187,),
    (-0.0630667,),
    (0.5,),
)


def _part_roots(m: _Margins) -> None:
    """Proven root lists on [-10, 10]; positive on [1, 3] = no root there and positive at 1."""
    for idx, (part, expected) in enumerate(zip(SCALED_BRACKET_PARTS, _EXPECTED_PART_ROOTS), start=1):
        roots = isolate_real_roots(part, -10.0, 10.0)
        if len(roots) != len(expected):
            m.add(-1.0, part=idx, found=len(roots), check="root count")
            continue
        for root, target in zip(roots, expected):
            m.add(1e-5 - abs(root - target), part=idx, root=root, check="root location, tol 1e-5")
        if idx == 5 and roots:
            residual = abs(_horner((part,), roots[0])[0])
            m.add(1e-12 - residual, part=idx, residual=residual, check="residual, tol 1e-12")
        m.add(_horner((part,), 1.0)[0], part=idx, check="value at 1 > 0")
        m.add(min((max(1.0 - r, r - 3.0) for r in roots), default=math.inf), part=idx, check="no root in [1, 3]")


def _bound_helpers(m: _Margins) -> None:
    m.add(_aux_a(9) - math.sqrt(2.0), n=9, check="helper a(9) > sqrt(2)")
    m.add(1e-4 - abs(_aux_b(16) - 2.2627), n=16, check="helper b(16), tol 1e-4")
    m.add(1e-5 - abs(_aux_c(16) - 1.63219), n=16, check="helper c(16), tol 1e-5")
    for n in _dense(FamilyClass.CONVEX, 500):
        m.add(_aux_a(n + 1) - _aux_a(n), n=n, check="helper a increasing")
        m.add(_aux_b(n + 1) - _aux_b(n), n=n, check="helper b increasing")
    for n in range(16, 500):
        m.add(_aux_c(n + 1) - _aux_c(n), n=n, check="helper c increasing")


def _decomposition_block(ns: list):
    x, parts, *factors = _columns(
        lambda n: (_convex_offset(n), sum(_convex_ratio_parts(n)), *_convex_factors(n)), ns
    )
    direct = np.exp(_log_ratio_convex(x, *factors))
    return None, [("summand decomposition, tol 1e-12", 1e-12 - np.abs(parts - direct) / direct)]


_K_GRID = np.linspace(1.0, 3.0, 201)


def _identity_block(ns: list, work):
    """The gap between the assembled and the direct bracket, the direct one written into work."""
    p = _columns(partial(_powers, count=12), ns)
    x = p[1] / _K_GRID
    direct = _slope_bracket(x, p, work)
    gap = 1e-10 - np.abs(_slope_bracket_scaled(_K_GRID, p) - direct) / np.abs(direct)
    return _K_GRID, [("assembled vs direct, tol 1e-10", gap)]


_R_GRID = np.arange(1, 100) / 100.0


def _floor_block(ns: list):
    gap = (1.0 - _R_GRID) ** 2 / (1.0 + _R_GRID) ** 4 - distortion_floor(FamilyClass.GENERAL, _R_GRID)
    return _R_GRID, [("local floor - two-point floor >= 0", gap)]


_GENERAL_ORDERS = [*_dense(FamilyClass.GENERAL), *SPOT_ORDERS]
_CONVEX_ORDERS = [*_dense(FamilyClass.CONVEX), *SPOT_ORDERS]

# The registry: id, the range text its report states, then the steps it runs
# in order.  A step over orders is partial(_on_blocks, orders, width, block)
# with the orders in a list; a workspace goes in as buffers=, by keyword,
# since _on_blocks takes the _Margins fourth.  CLAIMS maps each id to one run
# of its row.
_TABLE: tuple[tuple, ...] = (
    ("t-decreasing", "n in {15..500} u {1e3,1e4,1e6}; 257-point x grid on [offset_n, n]; "
     "adjacent strict decrease of the log ratio",
     partial(_on_blocks, _GENERAL_ORDERS, 257, partial(_decrease_block, FamilyClass.GENERAL))),
    ("t-at-n-positive", "n in {1..500}; ratio at x = n positive and equal to "
     "e^-n (2n^3+6n^2+7n+3)/3 within 1e-12 relative",
     partial(_on_blocks, list(range(1, 501)), 1, _at_n_block)),
    ("t-gamma-lt-1", "n in {15..500} u {1e3,1e4,1e6}; 0 < ratio(offset_n, n) < 1",
     partial(_on_blocks, _GENERAL_ORDERS, 1, partial(_below_one_block, FamilyClass.GENERAL))),
    ("q2-positive", "n in {15..500} u {1e3,1e4,1e6}; 1000-point x grid on (0, n]; "
     "bracket normalized by its constant term",
     partial(_on_blocks, _GENERAL_ORDERS, 1000, _q2_block, buffers=_Q2_BUFFERS)),
    ("q1-negative", "n in {15..100}; 512-point x grid on (0, n]",
     partial(_on_blocks, _dense(FamilyClass.GENERAL, 101), 512, _q1_block)),
    ("Q-roots", "each scaled-bracket part: real roots on [-10, 10] vs catalogued "
     "values (tol 1e-5; exact-root residual 1e-12); sign constant and positive on [1, 3]",
     _part_roots),
    ("Q-identity", "n in {15..60}; 201-point k grid on [1, 3]; |assembled - direct| / |direct| < 1e-10",
     partial(_on_blocks, _dense(FamilyClass.GENERAL, 61), 201, _identity_block, buffers=_BRACKET_BUFFERS)),
    ("T-decreasing", "n in {7..500} u {1e3,1e4,1e6}; 257-point x grid on [offset_n, n]; "
     "log decrease and derivative-bracket positivity",
     partial(_on_blocks, _CONVEX_ORDERS, 257, partial(_decrease_block, FamilyClass.CONVEX))),
    ("T-beta-lt-1", "direct 0 < ratio(offset_n, n) < 1 for n in {7..500} u {1e3,1e4,1e6}; "
     "summand bound route (1/32, 1/6, 19/24) for n in {16..500}",
     partial(_on_blocks, _CONVEX_ORDERS, 1, partial(_below_one_block, FamilyClass.CONVEX)),
     partial(_summand_bounds, "part")),
    ("T-limit-half", f"single spot check at n = {LIMIT_SPOT_ORDER}; |ratio(offset_n, n) - 1/2| < 1e-2",
     partial(_ratio_limit, FamilyClass.CONVEX)),
    ("t-limit-64-2401", f"single spot check at n = {LIMIT_SPOT_ORDER}; |ratio(offset_n, n) - 64/2401| < 1e-3",
     partial(_ratio_limit, FamilyClass.GENERAL)),
    ("abc-bounds", "helper values at 9/16 with stated tolerances; helpers increasing on "
     "{7..500} (a, b) and {16..500} (c); summand bounds on {16..500}; "
     "summand decomposition identity on {7..500}",
     _bound_helpers, partial(_summand_bounds, "summand"),
     partial(_on_blocks, _dense(FamilyClass.CONVEX), 1, _decomposition_block)),
    ("distortion-min-rule", "r in {0.01..0.99} step 0.01; general two-point floor below the "
     "local-univalence floor (1-r)^2/(1+r)^4",
     partial(_on_blocks, [0], len(_R_GRID), _floor_block)),
)


def _run(claim_id: str, parameter_range: str, steps) -> ClaimReport:
    m = _Margins()
    for step in steps:
        step(m)
    return m.report(claim_id, parameter_range)


CLAIMS: dict[str, Callable[[], ClaimReport]] = {
    claim_id: partial(_run, claim_id, parameter_range, steps) for claim_id, parameter_range, *steps in _TABLE
}


def verify_claim(claim_id: str) -> ClaimReport:
    """Run one registered claim check; raises UnknownClaimError for bad ids."""
    try:
        checker = CLAIMS[claim_id]
    except KeyError:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; registered: {', '.join(CLAIMS)}"
        ) from None
    return checker()


def verify_all() -> list[ClaimReport]:
    """Run every registered claim in registry order."""
    return [checker() for checker in CLAIMS.values()]
