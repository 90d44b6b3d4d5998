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
offset, dense orders, limit and tolerance from its _RATIO_FAMILIES entry.

Large-n evaluation of the ratios accumulates logarithms and exponentiates
once, and the general ratio's N and D are evaluated in scaled form (see
_bracket_num_den), so neither the (n/x)^7 prefactor nor the powers of n in
N and D overflow; the limit claims' ratios stay finite up to n = 1e200 and
beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .polyroots import RealPolynomial, isolate_real_roots
from .radius import FamilyClass, distortion_floor_general, log_offset_convex, log_offset_general

DENSE_GENERAL = range(15, 501)
DENSE_CONVEX = range(7, 501)
SPOT_ORDERS = (1_000, 10_000, 1_000_000)
GENERAL_RATIO_LIMIT = 64.0 / 2401.0
LIMIT_SPOT_ORDER = 1_000_000


class UnknownClaimError(KeyError):
    """Requested claim id is not registered."""

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


# --------------------------------------------------------------------------
# ratio functions and their derivative factors
# --------------------------------------------------------------------------


def _check_x_range(x, n: int) -> None:
    xs = np.asarray(x)
    if not ((xs > 0) & (xs <= n)).all():
        raise ValueError(f"x must lie in (0, n], got x={x!r} for n={n}")


def _bracket_num_den(x, n: int):
    """N(x, n) / (n^4 s^3), D(x, n) / n^4 and s = max(x, 1) of the general ratio.

    ln(N / D) is ln(num) + 3 ln(s) - ln(den).  Neither part forms a power
    of n or of x above 1, so both stay finite for every x in (0, n] and n
    up to 1e300; 1/n is formed once, so int and float n agree.
    """
    u = 1.0 / n
    y = x * u
    s = np.maximum(x, 1.0)
    v, w = 1.0 / s, x / s
    num = (
        12.0 * v**3
        + 12.0 * (1.0 - u) * w * v**2
        + 3.0 * (2.0 - 2.0 * u + u**2) * w**2 * v
        + (2.0 + u**2) * w**3
    )
    den = 16.0 - 32.0 * y + 28.0 * y**2 - 12.0 * y**3 + 3.0 * y**4
    return num, den, s


def log_tail_ratio_general(x, n: int):
    """ln of tail_ratio_general; finite on all of (0, n] for n up to 1e300."""
    _check_x_range(x, n)
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else float(x)
    num, den, s = _bracket_num_den(x, n)
    if np.any(np.asarray(den) <= 0):
        raise ArithmeticError(f"denominator vanished for n={n}; should be impossible")
    return (
        -x
        + 7.0 * (math.log(n) - np.log(x))
        + 9.0 * np.log(2.0 - x / n)
        + np.log(num)
        + 3.0 * np.log(s)
        - np.log(den)
    )


def tail_ratio_general(x, n: int):
    """Scaled tail-to-floor ratio of the general margin at r = 1 - x/n.

    The equal-order general margin is positive wherever this is below 1.
    """
    return np.exp(log_tail_ratio_general(x, n))


def slope_prefactor_general(x, n: int):
    """Strictly negative prefactor in d/dx of tail_ratio_general.

    -(2n - x)^8 e^-x / (x^8 D(x, n)^2); the full derivative is this times
    slope_bracket_general.
    """
    if not (np.asarray(x) > 0).all():
        raise ValueError(f"x must be positive, got {x!r}")
    _, den, _ = _bracket_num_den(x, n)
    if np.any(np.asarray(den) == 0):
        raise ArithmeticError(f"denominator vanished for n={n}")
    # den is D / n^4, so the n^8 of (2n - x)^8 cancels against D^2
    return -((2.0 - x / n) ** 8) * np.exp(-x) / (x**8 * den**2)


def slope_bracket_general(x, n: int):
    """Bracket polynomial in the derivative of tail_ratio_general.

    Degree 9 in x (from the -3 x^9 and -6 n^2 x^9 terms) and 7 in n.

    Entered term group by term group exactly as derived; no re-expansion.
    """
    return (
        2688.0 * n**7
        + 2688.0 * (n - 3) * n**6 * x
        + 3.0 * (448.0 * n**7 - 2368.0 * n**6 + 3648.0 * n**5 - x**7) * x**2
        + 64.0 * n**4 * (7.0 * n**3 - 48.0 * n**2 + 137.0 * n - 132.0) * x**3
        + 16.0 * n**2 * (59.0 * n**3 - 128.0 * n**2 + 178.0 * n - 75.0) * x**5
        + 2.0
        * n**2
        * (
            32.0 * n**5
            - 80.0 * n**4 * (6.0 + x)
            + 1672.0 * n**3
            - 4.0 * n**2 * (774.0 + 13.0 * x**3)
            + 2040.0 * n
            - 3.0 * x**5
        )
        * x**4
        + 2.0 * n * (88.0 * n**4 - 240.0 * n**3 + 434.0 * n**2 - 390.0 * n + 81.0) * x**6
        + 2.0 * n * (78.0 * n**2 - 98.0 * n + 57.0) * x**7
        + 6.0 * (6.0 * n**3 - 2.0 * n**2 + 6.0 * n - 1.0) * x**8
    )


# Catalogued parts of the scaled bracket under x = n/k.  The Q-roots claim proves
# their real roots on [-10, 10] exactly and, from them, that each is positive on [1, 3].
SCALED_BRACKET_PARTS: tuple[RealPolynomial, ...] = (
    RealPolynomial((27, -92, 204, -224, 112)).scaled(6.0),
    RealPolynomial((-3, 57, -390, 1424, -3096, 4384, -3552, 1344)).scaled(2.0),
    RealPolynomial((-3, 36, -196, 868, -2048, 3344, -3072, 1344)),
    RealPolynomial((3, 39, -120, 236, -240, 112)).scaled(4.0),
    RealPolynomial((-3, 18, -52, 88, -80, 32)).scaled(2.0),
)

# The quartic-in-k part is catalogued with trailing constant +3 (that
# variant's single real root sits near -0.0631), but reconstructing the
# slope bracket exactly requires -3 here: with +3 the assembly overshoots
# slope_bracket_general(n/k, n) by 24 n^10 / k^8.
_ASSEMBLY_PART_4 = RealPolynomial((-3, 39, -120, 236, -240, 112)).scaled(4.0)


def slope_bracket_scaled(k, n: int):
    """Slope bracket under the substitution x = n/k, assembled from the parts.

    Valid for k in [1, 3]; agrees with slope_bracket_general(n/k, n) to
    roundoff, which is what the Q-identity claim certifies.
    """
    ks = np.asarray(k)
    if not ((ks >= 1) & (ks <= 3)).all():
        raise ValueError(f"k must lie in [1, 3], got {k!r}")
    p1, p2, p3, _, p5 = SCALED_BRACKET_PARTS
    return (
        n**7 * (1.0 - 2.0 * k) ** 2 / k**6 * p1(k)
        + n**8 / k**8 * p2(k)
        + n**9 / k**9 * p3(k)
        + n**10 / k**8 * _ASSEMBLY_PART_4(k)
        + n**11 / k**9 * p5(k)
    )


def log_tail_ratio_convex(x, n: int):
    """ln of tail_ratio_convex."""
    _check_x_range(x, n)
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else float(x)
    inner = 2.0 + (2.0 * n - 1.0) * x / n + x**2
    return -x + 4.0 * (math.log(n) - np.log(x)) + 3.0 * np.log(2.0 - x / n) + np.log(inner)


def tail_ratio_convex(x, n: int):
    """Scaled tail-to-floor ratio of the convex margin at r = 1 - x/n."""
    return np.exp(log_tail_ratio_convex(x, n))


def convex_slope_bracket(x, n: int):
    """Positive bracket in -d/dx of tail_ratio_convex.

    The derivative equals -(2n - x)^2 * this / (e^x x^5), so positivity of
    the bracket certifies that the convex ratio decreases.
    """
    return (
        2.0 * n**2 * (8.0 + 8.0 * x + 4.0 * x**2 + x**3)
        - n * x * (8.0 + 4.0 * x + x**2 + x**3)
        + x**3
    )


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


def _convex_ratio_parts(n: int) -> tuple[float, float, float]:
    beta = log_offset_convex(n)
    ln = math.log(n)
    common = (1.0 - beta / (2.0 * n)) ** 3
    t1 = 16.0 * ln**2 / beta**4 * common
    t2 = 16.0 * ln**2 / beta**3 * common * (1.0 - 1.0 / (2.0 * n))
    t3 = 8.0 * ln**2 / beta**2 * common
    return t1, t2, t3


@dataclass(frozen=True)
class ConvexRatioBounds:
    """Auxiliary monotone functions and the three summands of the convex ratio.

    a, b, c are the slowly increasing helpers whose lower bounds at small n
    control t1, t2, t3; the summands add up to tail_ratio_convex at the
    convex log offset.
    """

    a: float
    b: float
    c: float
    t1: float
    t2: float
    t3: float


def ratio_bound_parts(n: int) -> ConvexRatioBounds:
    """Bound helpers and ratio summands at order n (requires n >= 7)."""
    if n < 7:
        raise ValueError(f"ratio bound parts require n >= 7, got {n}")
    t1, t2, t3 = _convex_ratio_parts(n)
    return ConvexRatioBounds(a=_aux_a(n), b=_aux_b(n), c=_aux_c(n), t1=t1, t2=t2, t3=t3)


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
        return {
            "claim_id": self.claim_id,
            "parameter_range": self.parameter_range,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
        }


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

    def add_array(self, margins: np.ndarray, xs: np.ndarray, n: int, label: str) -> None:
        i = int(np.argmin(margins))
        self.add(margins[i], n=n, x=float(xs[i]), check=label)

    def report(self, claim_id: str, parameter_range: str) -> ClaimReport:
        verdict = "Pass" if self.value > 0.0 else "Fail"
        return ClaimReport(claim_id, parameter_range, verdict, self.value, self.witness)


# Check steps: each adds its margins to the running claim's _Margins.


@dataclass(frozen=True)
class _RatioFamily:
    """What the shared ratio steps need of one family's tail-to-floor ratio."""

    log_ratio: Callable
    offset: Callable[[int], float]
    dense: range
    limit: float
    limit_text: str
    tol: str  # text, so the report states the tolerance as written

    def orders(self) -> list[int]:
        return list(self.dense) + list(SPOT_ORDERS)

    def ratio_at_offset(self, n: int) -> float:
        return np.exp(self.log_ratio(self.offset(n), n))


_RATIO_FAMILIES = {
    FamilyClass.GENERAL: _RatioFamily(
        log_tail_ratio_general, log_offset_general, DENSE_GENERAL, GENERAL_RATIO_LIMIT, "64/2401", "1e-3"
    ),
    FamilyClass.CONVEX: _RatioFamily(log_tail_ratio_convex, log_offset_convex, DENSE_CONVEX, 0.5, "1/2", "1e-2"),
}


def _ratio_decreasing(family: FamilyClass, m: _Margins) -> None:
    """Adjacent decrease of the log ratio on [offset_n, n]; convex also checks its derivative bracket."""
    fam = _RATIO_FAMILIES[family]
    for n in fam.orders():
        xs = np.linspace(fam.offset(n), n, 257)
        logs = fam.log_ratio(xs, n)
        m.add_array(logs[:-1] - logs[1:], xs[:-1], n, "log-ratio decrease")
        if family is FamilyClass.CONVEX:
            brackets = convex_slope_bracket(xs, n) / (2.0 * float(n) ** 2 * (8.0 + 8.0 * xs + 4.0 * xs**2 + xs**3))
            m.add_array(brackets, xs, n, "derivative bracket > 0 (normalized)")


def _ratio_below_one(family: FamilyClass, m: _Margins) -> None:
    fam = _RATIO_FAMILIES[family]
    for n in fam.orders():
        value = fam.ratio_at_offset(n)
        m.add(1.0 - value, n=n, check="ratio < 1")
        m.add(value, n=n, check="ratio > 0")


def _ratio_limit(family: FamilyClass, m: _Margins) -> None:
    fam = _RATIO_FAMILIES[family]
    n = LIMIT_SPOT_ORDER
    value = fam.ratio_at_offset(n)
    m.add(float(fam.tol) - abs(value - fam.limit), n=n, value=value,
          check=f"|ratio - {fam.limit_text}| < {fam.tol}")


_SUMMAND_BOUNDS = ((1.0 / 32.0, "1/32"), (1.0 / 6.0, "1/6"), (19.0 / 24.0, "19/24"))


def _summand_bounds(word: str, m: _Margins) -> None:
    checks = [(bound, f"{word} {i} < {text}") for i, (bound, text) in enumerate(_SUMMAND_BOUNDS, start=1)]
    for n in range(16, 501):
        for t, (bound, label) in zip(_convex_ratio_parts(n), checks):
            m.add(bound - t, n=n, check=label)


def _on_grid(orders, grid, margin, label: str, m: _Margins) -> None:
    """Smallest margin(xs, n) over xs = grid(n), for each order n."""
    for n in orders:
        xs = grid(n)
        m.add_array(margin(xs, n), xs, n, label)


def _ratio_at_n(m: _Margins) -> None:
    for n in range(1, 501):
        value = tail_ratio_general(n, n)
        closed = math.exp(-n) * (2.0 * n**3 + 6.0 * n**2 + 7.0 * n + 3.0) / 3.0
        m.add(min(value, closed), n=n, check="positivity")
        rel = abs(value - closed) / closed
        m.add(1e-12 - rel, n=n, check="closed form, tol 1e-12")


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
            m.add(1e-12 - abs(part(roots[0])), part=idx, residual=abs(part(roots[0])), check="residual, tol 1e-12")
        m.add(part(1.0), part=idx, check="value at 1 > 0")
        m.add(min((max(1.0 - r, r - 3.0) for r in roots), default=math.inf), part=idx, check="no root in [1, 3]")


def _bound_helpers(m: _Margins) -> None:
    m.add(_aux_a(9) - math.sqrt(2.0), n=9, check="helper a(9) > sqrt(2)")
    m.add(1e-4 - abs(_aux_b(16) - 2.2627), n=16, check="helper b(16), tol 1e-4")
    m.add(1e-5 - abs(_aux_c(16) - 1.63219), n=16, check="helper c(16), tol 1e-5")
    for n in range(7, 500):
        m.add(_aux_a(n + 1) - _aux_a(n), n=n, check="helper a increasing")
        m.add(_aux_b(n + 1) - _aux_b(n), n=n, check="helper b increasing")
    for n in range(16, 500):
        m.add(_aux_c(n + 1) - _aux_c(n), n=n, check="helper c increasing")


def _summand_decomposition(m: _Margins) -> None:
    for n in range(7, 501):
        t1, t2, t3 = _convex_ratio_parts(n)
        direct = tail_ratio_convex(log_offset_convex(n), n)
        rel = abs((t1 + t2 + t3) - direct) / direct
        m.add(1e-12 - rel, n=n, check="summand decomposition, tol 1e-12")


_K_GRID = np.linspace(1.0, 3.0, 201)


def _scaled_identity_gap(ks, n: int):
    direct = slope_bracket_general(n / ks, n)
    return 1e-10 - np.abs(slope_bracket_scaled(ks, n) - direct) / np.abs(direct)


def _floor_gap(rs, n: int):
    return (1.0 - rs) ** 2 / (1.0 + rs) ** 4 - distortion_floor_general(rs)


# The registry: id, the range text its report states, then the steps it runs
# in order.  CLAIMS maps each id to one run of its row.
_TABLE: tuple[tuple, ...] = (
    ("t-decreasing", "n in {15..500} u {1e3,1e4,1e6}; 257-point x grid on [offset_n, n]; "
     "adjacent strict decrease of the log ratio",
     partial(_ratio_decreasing, FamilyClass.GENERAL)),
    ("t-at-n-positive", "n in {1..500}; ratio at x = n positive and equal to "
     "e^-n (2n^3+6n^2+7n+3)/3 within 1e-12 relative",
     _ratio_at_n),
    ("t-gamma-lt-1", "n in {15..500} u {1e3,1e4,1e6}; 0 < ratio(offset_n, n) < 1",
     partial(_ratio_below_one, FamilyClass.GENERAL)),
    ("q2-positive", "n in {15..500} u {1e3,1e4,1e6}; 1000-point x grid on (0, n]; "
     "bracket normalized by its constant term",
     partial(_on_grid, _RATIO_FAMILIES[FamilyClass.GENERAL].orders(),
             lambda n: np.linspace(n / 1000.0, n, 1000),
             lambda xs, n: slope_bracket_general(xs, n) / (2688.0 * float(n) ** 7), "bracket / 2688 n^7 > 0")),
    ("q1-negative", "n in {15..100}; 512-point x grid on (0, n]",
     partial(_on_grid, range(15, 101), lambda n: np.linspace(n / 512.0, n, 512),
             lambda xs, n: -slope_prefactor_general(xs, n), "prefactor < 0")),
    ("Q-roots", "each scaled-bracket part: real roots on [-10, 10] vs catalogued "
     "values (tol 1e-5; exact-root residual 1e-12); sign constant and positive on [1, 3]",
     _part_roots),
    ("Q-identity", "n in {15..60}; 201-point k grid on [1, 3]; |assembled - direct| / |direct| < 1e-10",
     partial(_on_grid, range(15, 61), lambda n: _K_GRID, _scaled_identity_gap, "assembled vs direct, tol 1e-10")),
    ("T-decreasing", "n in {7..500} u {1e3,1e4,1e6}; 257-point x grid on [offset_n, n]; "
     "log decrease and derivative-bracket positivity",
     partial(_ratio_decreasing, FamilyClass.CONVEX)),
    ("T-beta-lt-1", "direct 0 < ratio(offset_n, n) < 1 for n in {7..500} u {1e3,1e4,1e6}; "
     "summand bound route (1/32, 1/6, 19/24) for n in {16..500}",
     partial(_ratio_below_one, FamilyClass.CONVEX), partial(_summand_bounds, "part")),
    ("T-limit-half", f"single spot check at n = {LIMIT_SPOT_ORDER}; |ratio(offset_n, n) - 1/2| < 1e-2",
     partial(_ratio_limit, FamilyClass.CONVEX)),
    ("t-limit-64-2401", f"single spot check at n = {LIMIT_SPOT_ORDER}; |ratio(offset_n, n) - 64/2401| < 1e-3",
     partial(_ratio_limit, FamilyClass.GENERAL)),
    ("abc-bounds", "helper values at 9/16 with stated tolerances; helpers increasing on "
     "{7..500} (a, b) and {16..500} (c); summand bounds on {16..500}; "
     "summand decomposition identity on {7..500}",
     _bound_helpers, partial(_summand_bounds, "summand"), _summand_decomposition),
    ("distortion-min-rule", "r in {0.01..0.99} step 0.01; general two-point floor below the "
     "local-univalence floor (1-r)^2/(1+r)^4",
     partial(_on_grid, (0,), lambda n: np.arange(1, 100) / 100.0, _floor_gap,
             "local floor - two-point floor >= 0")),
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
