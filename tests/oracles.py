"""Independent evaluation forms that the tests compare the library against.

None of these is a production path: the library evaluates every tail and
margin through one closed form per weight (the coefficient rows of the
family record `radius._FAMILIES`, evaluated by `tails.tail_weighted`,
which the margins in `radius` call).  The forms here take other routes to
the same numbers, a termwise weight polynomial, a truncated sum, the
mixed-sign combination of the three elementary tails (k, k^2, k^3) and the
fully combined equal-order closed forms, so that agreement between the two
routes checks both.  They state the weights again rather than read the
record.  Their inputs come from the tests, so they check no arguments.

A tail is named by its (family, part) pair, the part "analytic" or
"co_analytic".  `record_row` and `record_tail` read the library's own row
and tail of such a pair, for the tests that compare them with the forms
here.

`disk_jacobian_min` samples the Jacobian on a disk grid, the way the
empirical scan once did, as the oracle for the scan's circle test.
"""

from __future__ import annotations

import math

import numpy as np

from harmsect.harmonic import jacobian
from harmsect.radius import _FAMILIES, FamilyClass
from harmsect.tails import tail_weighted

GENERAL, CONVEX = FamilyClass.GENERAL, FamilyClass.CONVEX

# the four tails of the margins, general before convex, analytic before co-analytic
TAILS = [(family, part) for family in FamilyClass for part in ("analytic", "co_analytic")]


def tail_id(tail) -> str:
    """A tail's test id, such as TailClass.GENERAL_ANALYTIC.

    These are the names the tail tests have always been reported under,
    kept so that their results stay comparable across runs.
    """
    family, part = tail
    return f"TailClass.{family.name}_{part.upper()}"


def record_row(tail):
    """The library's closed-form row of `tail`, as the family record holds it."""
    family, part = tail
    return getattr(_FAMILIES[family], part)


def record_tail(tail, n: int, r):
    """The library's tail of `tail`: the tail core on the record's row at n."""
    return tail_weighted(record_row(tail)(n), n, r)


WEIGHTS = {
    (GENERAL, "analytic"): lambda k: k * (k + 1) * (2 * k + 1) / 6.0,
    (GENERAL, "co_analytic"): lambda k: k * (k - 1) * (2 * k - 1) / 6.0,
    (CONVEX, "analytic"): lambda k: k * (k + 1) / 2.0,
    (CONVEX, "co_analytic"): lambda k: k * (k - 1) / 2.0,
}


def weight(tail, k):
    """Evaluate the weight polynomial of `tail` at index k (scalar or array)."""
    return WEIGHTS[tail](k)


def tail_brute(tail, n: int, r: float, terms: int) -> float:
    """Truncated sum sum_{k=n+1..n+terms} w(k) r^(k-1).

    Summation uses math.fsum, so the result is the correctly rounded value
    of the exact truncated sum; in particular it is monotonically
    nondecreasing in `terms` for r >= 0.  Near r = 1 it converges far too
    slowly for production use.
    """
    ks = np.arange(n + 1, n + terms + 1, dtype=float)
    with np.errstate(under="ignore"):
        summands = weight(tail, ks) * np.power(float(r), ks - 1.0)
    return math.fsum(summands)


def tail_linear(n: int, r):
    """sum_{k=n+1..inf} k r^(k-1) = r^n [1 + n(1-r)] / (1-r)^2."""
    s = 1.0 - r
    return r**n * (1.0 + n * s) / s**2


def tail_square(n: int, r):
    """sum_{k=n+1..inf} k^2 r^(k-1) = r^n [2 + (2n-1)(1-r) + n^2 (1-r)^2] / (1-r)^3."""
    s = 1.0 - r
    return r**n * (2.0 + (2 * n - 1) * s + n**2 * s**2) / s**3


def tail_cube(n: int, r):
    """sum_{k=n+1..inf} k^3 r^(k-1), closed rational form.

    Equals r^n [6 + (6n-6)(1-r) + (3n^2-3n+1)(1-r)^2 + n^3 (1-r)^3] / (1-r)^4.
    """
    s = 1.0 - r
    return r**n * (6.0 + (6 * n - 6) * s + (3 * n**2 - 3 * n + 1) * s**2 + n**3 * s**3) / s**4


# Each weight polynomial expanded in the monomial basis {k, k^2, k^3}:
#   k(k+1)(2k+1)/6 = k^3/3 + k^2/2 + k/6
#   k(k-1)(2k-1)/6 = k^3/3 - k^2/2 + k/6
#   k(k+1)/2       = k^2/2 + k/2
#   k(k-1)/2       = k^2/2 - k/2
COMBINATION = {
    (GENERAL, "analytic"): (1.0 / 6.0, 0.5, 1.0 / 3.0),
    (GENERAL, "co_analytic"): (1.0 / 6.0, -0.5, 1.0 / 3.0),
    (CONVEX, "analytic"): (0.5, 0.5, 0.0),
    (CONVEX, "co_analytic"): (-0.5, 0.5, 0.0),
}


def tail_combination(tail, n: int, r):
    """The weighted tail as its mixed-sign combination of elementary tails."""
    c1, c2, c3 = COMBINATION[tail]
    out = c1 * tail_linear(n, r) + c2 * tail_square(n, r)
    if c3:
        out = out + c3 * tail_cube(n, r)
    return out


def tail_general_pair_diag(n: int, r):
    """Combined analytic + co-analytic general tail at equal order n.

    Closed form of the general analytic plus co-analytic tail at order n,
    i.e. of
    sum_{k>n} k(2k^2+1)/3 r^(k-1):

        r^n [12 + 12(n-1)(1-r) + 3(2n^2-2n+1)(1-r)^2 + (2n^3+n)(1-r)^3]
        / (3 (1-r)^4)
    """
    s = 1.0 - r
    num = 12.0 + 12.0 * (n - 1) * s + 3.0 * (2 * n**2 - 2 * n + 1) * s**2 + (2 * n**3 + n) * s**3
    return r**n * num / (3.0 * s**4)


def margin_general_diag(n: int, r):
    """Equal-order general margin in fully combined closed form.

    (1-r)^3 (3 + 10 r^2 + 3 r^4) / (3 (1+r)^9) minus the combined tail;
    agrees with margin_general(n, n, r) to roundoff.
    """
    floor = (1.0 - r) ** 3 * (3.0 + 10.0 * r**2 + 3.0 * r**4) / (3.0 * (1.0 + r) ** 9)
    return floor - tail_general_pair_diag(n, r)


def margin_convex_diag(n: int, r):
    """Equal-order convex margin: the combined tail collapses to sum k^2 r^(k-1)."""
    s = 1.0 - r
    tail = r**n * (2.0 + (2 * n - 1) * s + n**2 * s**2) / s**3
    return s / (1.0 + r) ** 3 - tail


def disk_points(grid):
    """grid.radial_points concentric circles of grid.angular_points points
    each, from radius/radial_points out to the circle |z| = grid.radius."""
    radii = np.linspace(grid.radius / grid.radial_points, grid.radius, grid.radial_points)
    angles = 2.0 * np.pi * np.arange(grid.angular_points) / grid.angular_points
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def disk_jacobian_min(p, grid) -> float:
    """The smallest Jacobian |h'|^2 - |g'|^2 sampled at disk_points(grid)."""
    return float(np.min(jacobian(p, disk_points(grid))))
