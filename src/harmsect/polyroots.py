"""Exact real-root isolation for polynomials with double coefficients.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class RealPolynomial:
    """Dense real polynomial, coefficients in ascending degree order.

    Evaluation is plain Horner in the given coefficient order; the
    coefficients are never re-expanded or reordered, so a transcription
    error in them shows up as a failed identity check rather than drifting
    silently.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i] != 0.0:
                return i
        return 0

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float)) if not np.isscalar(x) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def scaled(self, factor: float) -> "RealPolynomial":
        return RealPolynomial(tuple(factor * c for c in self.coefficients))


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


def isolate_real_roots(p: RealPolynomial, lo: float, hi: float) -> list[float]:
    """The distinct real roots of p in [lo, hi], ascending, each rounded to the nearest double.

    The count is exact: a multiple root comes back once, and a root at lo
    or hi is included.  Raises ValueError for the zero polynomial, for a
    non-finite bound or coefficient, and unless lo < hi.
    """
    if not (all(map(math.isfinite, (lo, hi, *p.coefficients))) and lo < hi):
        raise ValueError(f"need finite lo < hi and finite coefficients, got [{lo}, {hi}] for {p.coefficients}")
    f = [Fraction(c) for c in p.coefficients[: p.degree + 1]]
    if f == [0]:
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
