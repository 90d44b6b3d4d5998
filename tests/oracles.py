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
empirical scan once did, as the oracle for the scan's circle test, and
`atan2_windings` counts winding numbers from the args of the steps, the
way the circle passes once did, as the oracle for their sign-test count.
`polyline` forms an SVG polyline one point at a time, the way
`svg._polyline` once did, as the oracle for its array form.

`tolist_evaluate`, `tolist_jacobian` and `tolist_kernel` evaluate one
point on Python numbers, turning the coefficient arrays into lists on
every call through `tolist_horner`, the way the scalar path once did, as
the oracle for the lists each polynomial now forms once.

`real_horner` evaluates a real polynomial the way the float polynomial
class of `polyroots` once did, with its own zero start for an array, as
the oracle for the shared Horner core `polyroots._horner` on the bracket
parts.

`slope_bracket_expression` evaluates the general ratio's slope bracket as
one Python expression, the way `claims._slope_bracket` once did, with
numpy allocating every intermediate, as the oracle for the core that
writes its terms into a workspace.

`summand_bounds_loop` and `bound_helpers_loop` add the margins of the
summand bounds and of the helpers a, b and c one at a time, order by
order, the way `claims._summand_bounds` and `claims._bound_helpers` once
did (each helper evaluated at n and again at n + 1), as the oracles for
the steps that form each value once and report through
`_Margins.add_rows`; `convex_ratio_parts` forms the summands the way
`claims._convex_ratio_parts` did, with ln n squared once per summand.
`slope_prefactor_expression` evaluates the general slope prefactor as
one expression, with D written out as `claims._bracket_num_den` wrote it
when the prefactor took D from there (and threw N and s away), as the
oracle for the prefactor on the D core alone.  `log_offset_formula` states each
family's a ln n - b ln ln n again, as the oracle for the one unchecked
log-offset core.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from harmsect.harmonic import jacobian
from harmsect.radius import _FAMILIES, FamilyClass, log_offset
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


def atan2_windings(vals):
    """Guard flags and winding numbers of the closed curves in the rows of vals.

    A row's count is the sum of its wrapped arg steps, the args of
    vals[j+1] conj(vals[j]) (the last step wraps to the first sample), over
    2 pi, rounded; it is guarded when every step stays below pi/2 in
    modulus, Re(vals[j+1] conj(vals[j])) > 0.
    """
    steps = np.roll(vals, -1, axis=-1)
    steps *= vals.conj()
    guarded = (steps.real > 0.0).all(axis=-1)
    return guarded, np.rint(np.angle(steps).sum(axis=-1) / (2.0 * np.pi))


def polyline(frame, xs, ys, color: str) -> str:
    """The <polyline> of the points (xs, ys) in frame: each point through the
    scalar Frame.px and Frame.py and formatted by its own f-string."""
    pts = " ".join(f"{frame.px(float(x)):.2f},{frame.py(float(y)):.2f}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'


def tolist_horner(coeffs, z: complex) -> list:
    """Horner's rule on Python complex numbers, one value per part; an array
    part is turned into a list first, on every call."""
    values = []
    for part in coeffs:
        acc = 0.0
        for c in (part.tolist() if isinstance(part, np.ndarray) else part)[::-1]:
            acc = acc * z + c
        values.append(acc)
    return values


def tolist_evaluate(p, z):
    """f(z) = h(z) + conj(g(z)) at one point."""
    z = complex(z)
    h, g = tolist_horner((p.a, p.b), z)
    return z * h + np.conj(z * g)


def tolist_jacobian(p, z) -> float:
    """|h'(z)|^2 - |g'(z)|^2 at one point, h' and g' formed here."""
    derivatives = (np.arange(1, p.a.size + 1) * p.a, np.arange(1, p.b.size + 1) * p.b)
    hp, gp = tolist_horner(derivatives, complex(z))
    return abs(hp) ** 2 - abs(gp) ** 2


def tolist_kernel(p, z, t) -> complex:
    """sum_k (a_k z^k - conj(b_k z^k)) sin(kt)/sin(t) at one point, the
    ratios by math.sin and k exactly where sin t = 0."""
    z = complex(z)
    sin_t = math.sin(t)
    ks = range(1, p.degree + 1)
    ratio = [math.sin(k * t) / sin_t for k in ks] if sin_t != 0.0 else [float(k) for k in ks]
    a = [c * q for c, q in zip(p.a.tolist(), ratio)]
    b = [-c * q for c, q in zip(p.b.tolist(), ratio)]
    h, g = tolist_horner((a, b), z)
    return z * h + (z * g).conjugate()


def tolist_divided_difference(p, r: float, eta: float, psi: float):
    """(f(z1) - f(z2))/(z1 - z2) at z1 = r e^(i eta), z2 = r e^(i psi) by cmath."""
    z1, z2 = float(r) * cmath.exp(1j * eta), float(r) * cmath.exp(1j * psi)
    return (tolist_evaluate(p, z1) - tolist_evaluate(p, z2)) / (z1 - z2)


def real_horner(coefficients, x):
    """The real polynomial with these ascending coefficients at x, by Horner's
    rule on the coefficients as floats, from a zero array for an array x."""
    acc = np.zeros_like(np.asarray(x, dtype=float)) if not np.isscalar(x) else 0.0
    for c in reversed(tuple(map(float, coefficients))):
        acc = acc * x + c
    return acc


def slope_bracket_expression(x, p):
    """The slope bracket at x with p[k] = n**k, term group by term group as
    derived; x^3, x^5 and x^7 are formed once, as two groups use each."""
    n = p[1]
    x3, x5, x7 = x**3, x**5, x**7
    return (
        2688.0 * p[7]
        + 2688.0 * (n - 3) * p[6] * x
        + 3.0 * (448.0 * p[7] - 2368.0 * p[6] + 3648.0 * p[5] - x7) * x**2
        + 64.0 * p[4] * (7.0 * p[3] - 48.0 * p[2] + 137.0 * n - 132.0) * x3
        + 16.0 * p[2] * (59.0 * p[3] - 128.0 * p[2] + 178.0 * n - 75.0) * x5
        + 2.0
        * p[2]
        * (
            32.0 * p[5]
            - 80.0 * p[4] * (6.0 + x)
            + 1672.0 * p[3]
            - 4.0 * p[2] * (774.0 + 13.0 * x3)
            + 2040.0 * n
            - 3.0 * x5
        )
        * x**4
        + 2.0 * n * (88.0 * p[4] - 240.0 * p[3] + 434.0 * p[2] - 390.0 * n + 81.0) * x**6
        + 2.0 * n * (78.0 * p[2] - 98.0 * n + 57.0) * x7
        + 6.0 * (6.0 * p[3] - 2.0 * p[2] + 6.0 * n - 1.0) * x**8
    )


def convex_ratio_parts(n: int) -> tuple[float, float, float]:
    """The three summands of the convex ratio at its log offset, each formed
    in full."""
    beta = log_offset(CONVEX, n)
    ln = math.log(n)
    common = (1.0 - beta / (2.0 * n)) ** 3
    t1 = 16.0 * ln**2 / beta**4 * common
    t2 = 16.0 * ln**2 / beta**3 * common * (1.0 - 1.0 / (2.0 * n))
    t3 = 8.0 * ln**2 / beta**2 * common
    return t1, t2, t3


def summand_bounds_loop(word: str, m) -> None:
    """The summand bounds t_i < 1/32, 1/6, 19/24 on n = 16..500, added to m
    one margin at a time."""
    checks = [(float(bound), f"{word} {i} < {bound}")
              for i, bound in enumerate((Fraction(1, 32), Fraction(1, 6), Fraction(19, 24)), start=1)]
    for n in range(16, 501):
        for t, (bound, label) in zip(convex_ratio_parts(n), checks):
            m.add(bound - t, n=n, check=label)


def aux_a(x: float) -> float:
    lx, llx = math.log(x), math.log(math.log(x))
    return lx - llx + llx**2 / (4.0 * lx)


def aux_b(x: float) -> float:
    return math.log(x) - math.log(math.log(x)) / 2.0


def aux_c(x: float) -> float:
    return 2.0 - math.log(math.log(x)) / math.log(x)


def bound_helpers_loop(m) -> None:
    """abc-bounds' helper checks, added to m one margin at a time."""
    m.add(aux_a(9) - math.sqrt(2.0), n=9, check="helper a(9) > sqrt(2)")
    m.add(1e-4 - abs(aux_b(16) - 2.2627), n=16, check="helper b(16), tol 1e-4")
    m.add(1e-5 - abs(aux_c(16) - 1.63219), n=16, check="helper c(16), tol 1e-5")
    for n in range(7, 500):
        m.add(aux_a(n + 1) - aux_a(n), n=n, check="helper a increasing")
        m.add(aux_b(n + 1) - aux_b(n), n=n, check="helper b increasing")
    for n in range(16, 500):
        m.add(aux_c(n + 1) - aux_c(n), n=n, check="helper c increasing")


def slope_prefactor_expression(x, n):
    """-(2n - x)^8 e^-x / (x^8 D(x, n)^2), with D / n^4 in y = x/n."""
    u = 1.0 / n
    y = x * u
    den = 16.0 - 32.0 * y + 28.0 * y**2 - 12.0 * y**3 + 3.0 * y**4
    return -((2.0 - x / n) ** 8) * np.exp(-x) / (x**8 * den**2)


def log_offset_formula(family, n) -> float:
    """a ln n - b ln ln n, (a, b) = (7, 4) general and (4, 2) convex."""
    a, b = (7.0, 4.0) if family is GENERAL else (4.0, 2.0)
    return a * math.log(n) - b * math.log(math.log(n))
