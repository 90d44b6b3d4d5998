"""Exact real-root isolation for polynomials with double coefficients, and
the package's one float Horner core.

A polynomial is a sequence of its coefficients in ascending degree order,
finite floats or ints; a tuple of floats, such as each part of
claims.SCALED_BRACKET_PARTS, is the usual form.  _horner evaluates several
such sequences at one point, or at an array of points, and serves both the
harmonic maps of `harmonic` and the bracket parts of `claims`.

Every double is a rational number, so the roots can be counted exactly: the
Sturm sequence of the square-free part of p, built in fractions.Fraction,
gives the number of distinct real roots in any interval.  Intervals without
a root are dropped, the rest are halved until each holds one root, and each
root, a simple one of the square-free part, is then narrowed by that part's
exact sign until it is known to the nearest double.  No step samples,
tolerates or polishes anything.

Each chain member is multiplied once by the positive lcm of its
denominators, which leaves its sign unchanged everywhere; a sign at a point
p/q (q > 0; every point evaluated is a dyadic rational) is then the sign of
the integer sum c_i p^i q^(d-i), formed by homogeneous Horner in Python
ints instead of Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _horner(coeffs, z) -> list:
    """[sum_k c_k z^k for c in coeffs] by Horner's rule, one value per part.

    Each part holds its coefficients in ascending order, as a sequence of
    Python numbers for every z: harmonic's lists, formed once per
    polynomial by HarmonicPolynomial._lists, or a bracket part's tuple of
    floats.  A Python number z runs on Python numbers, several times
    faster than numpy scalars; an array z runs elementwise on arrays.
    Nothing is converted here.
    """
    values = []
    for part in coeffs:
        acc = 0.0
        for c in part[::-1]:
            acc = acc * z + c
        values.append(acc)
    return values


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b; coefficients ascending, b[-1] != 0, [] is zero."""
    a, quotient = list(a), []
    for i in range(len(a) - len(b), -1, -1):
        quotient.append(a[i + len(b) - 1] / b[-1])
        for j, c in enumerate(b):
            a[i + j] -= quotient[-1] * c
    del a[len(b) - 1 :]
    while a and a[-1] == 0:
        a.pop()
    return quotient[::-1], a


def _sturm(f: list[Fraction]) -> list[list[Fraction]]:
    """The Sturm sequence f, f', -rem(f, f'), ... down to its last nonzero term."""
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while rem := _divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    return chain


def _integer(f: list[Fraction]) -> list[int]:
    """f times the lcm of its denominators: integer coefficients, and the same sign as f everywhere."""
    scale = math.lcm(*(c.denominator for c in f))
    return [c.numerator * (scale // c.denominator) for c in f]


def _sign(c: list[int], x: Fraction) -> int:
    """Sign of the integer polynomial c at x = p/q, from q^d c(p/q) = sum c_i p^i q^(d-i), q > 0."""
    p, q = x.numerator, x.denominator
    acc, qk = c[-1], 1
    for ci in reversed(c[:-1]):
        qk *= q
        acc = acc * p + ci * qk
    return (acc > 0) - (acc < 0)


def _count(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Number of roots in the open interval (a, b) of chain[0], whose roots are all simple."""
    signs = [[s for s in (_sign(f, x) for f in chain) if s] for x in (a, b)]
    at_a, at_b = (sum(s != t for s, t in zip(row, row[1:])) for row in signs)
    return at_a - at_b - (_sign(chain[0], b) == 0)


def _narrow(chain: list[list[int]], a: Fraction, b: Fraction) -> float:
    """The one root of f = chain[0] in (a, b), a simple one, rounded to the nearest double."""
    f = chain[0]
    left_positive = (_sign(f, a) or _sign(chain[1], a)) > 0  # if a is a root, f' gives f's sign right of it
    while (x := float(a)) != (y := float(b)):
        # for adjacent doubles, the side of the tie between them decides the rounding
        tie = (Fraction(x) + Fraction(y)) / 2 if math.nextafter(x, y) == y else a
        mid = tie if a < tie < b else (a + b) / 2
        v = _sign(f, mid)
        if v == 0:
            return float(mid)
        a, b = (mid, b) if (v > 0) == left_positive else (a, mid)
    return x


def isolate_real_roots(coefficients, lo: float, hi: float) -> list[float]:
    """The distinct real roots in [lo, hi] of the polynomial with these coefficients.

    coefficients is a sequence of finite floats or ints in ascending degree
    order; trailing zeros are dropped.  A Python int is taken exactly, and
    any other number, a numpy integer too, as its float.  The roots come
    back ascending, each rounded to the nearest double.  The count is
    exact: a multiple root comes back once, and a root at lo or hi is
    included.  Raises ValueError for the zero polynomial (an empty or
    all-zero sequence), for a non-finite bound or coefficient, and unless
    lo < hi.
    """
    # an int is finite however large; math.isfinite would convert it to a float
    if not (all(isinstance(c, int) or math.isfinite(c) for c in (lo, hi, *coefficients)) and lo < hi):
        raise ValueError(f"need finite lo < hi and finite coefficients, got [{lo}, {hi}] for {coefficients}")
    # Fraction of a numpy integer would keep its fixed-width arithmetic
    f = [Fraction(c if isinstance(c, int) else float(c)) for c in coefficients]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise ValueError("the zero polynomial has no isolated roots")
    if len(f) == 1:
        return []
    chain = _sturm(f)
    if len(chain[-1]) > 1:  # f / gcd(f, f') has the same roots, all of them simple
        chain = _sturm(_divmod(f, chain[-1])[0])
    chain = [_integer(g) for g in chain]
    f = chain[0]
    ends = (Fraction(lo), Fraction(hi))
    roots = [float(x) for x in ends if _sign(f, x) == 0]
    todo = [ends]
    while todo:
        a, b = todo.pop()
        count = _count(chain, a, b)
        if count == 1:
            roots.append(_narrow(chain, a, b))
        elif count > 1:
            mid = (a + b) / 2
            if _sign(f, mid) == 0:
                roots.append(float(mid))
            todo += [(a, mid), (mid, b)]
    return sorted(roots)
