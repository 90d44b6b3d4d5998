"""Margin functions, the certified root solver, and the asymptotic bounds."""

import math
import sys
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from harmsect import radius
from harmsect.radius import (
    FamilyClass,
    RadiusResult,
    close_to_convex_radius,
    distortion_floor,
    log_offset,
    lower_bound,
    margin_convex,
    margin_fn,
    margin_general,
    solve_radius,
    threshold_order,
)
from harmsect.tails import tail_weighted
from oracles import (
    TAILS,
    margin_convex_diag,
    log_offset_formula,
    margin_general_diag,
    record_row,
    record_tail,
    tail_combination,
    tail_id,
)

# printed six-decimal equal-order general radii (half-ulp tolerance 5e-7)
TABLE_GENERAL = {
    2: 0.108193,
    3: 0.147197,
    4: 0.182263,
    5: 0.214025,
    10: 0.337088,
    50: 0.675001,
    100: 0.788521,
    287: 0.900122,
}

R_GRID = np.asarray([0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])


# Reference solver: the margin composed from the public floor, which checks
# r, and the tail core on each of the family's two rows, with the solver's
# end checks and bisection of the fixed bracket.  With
# `tail=tail_combination` it composes the mixed-sign combination of
# elementary tails instead.  The first order of each family's asymptotic
# bound is stated here again, not read from the library's family record.
FIRST_BOUND_ORDER = {FamilyClass.GENERAL: 15, FamilyClass.CONVEX: 7}
BRACKET = (2.0**-10, 1.0 - 2.0**-53)
SCAN_GRID = np.arange(1, 1000) * 1e-3


def reference_margin(family, n, m, r, tail=record_tail):
    return (distortion_floor(family, r) - tail((family, "analytic"), n, r)
            - tail((family, "co_analytic"), m, r))


def bisect(margin, lo, hi):
    """The 1e-12 bracket of margin's sign change in [lo, hi] and its step count."""
    iterations = 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations


def reference_solve(family, n, m, tail=record_tail):
    def margin(r):
        return reference_margin(family, n, m, r, tail)

    assert margin(BRACKET[0]) > 0.0 >= margin(BRACKET[1]), (n, m)
    lo, hi, iterations = bisect(margin, *BRACKET)
    root = 0.5 * (lo + hi)
    low = min(n, m)
    bound = lower_bound(family, low) if low >= FIRST_BOUND_ORDER[family] else None
    return RadiusResult(root, lo, hi, float(margin(root)), iterations, bound)


def scan_solve(family, n, m):
    """Oracle: the earlier solver's root, the first sign drop of the array
    margin on the 999-point grid 1e-3, ..., 0.999, bisected to 1e-12."""
    def margin(r):
        return reference_margin(family, n, m, r)

    pos = margin(SCAN_GRID) > 0.0
    i = int(np.nonzero(pos[:-1] & ~pos[1:])[0][0])
    lo, hi, _ = bisect(margin, float(SCAN_GRID[i]), float(SCAN_GRID[i + 1]))
    return 0.5 * (lo + hi)


def random_pairs(family, count=200):
    """Seeded (n, m) pairs, log-uniform on [2, 5000]."""
    rng = np.random.default_rng(7 if family is FamilyClass.GENERAL else 8)
    return [tuple(int(v) for v in np.exp(rng.uniform(math.log(2), math.log(5000), 2)))
            for _ in range(count)]


def per_family(fn):
    """fn with each family bound as its first argument, with ids such as lower_bound_general."""
    return [pytest.param(partial(fn, family), id=f"{fn.__name__}_{family.value}") for family in FamilyClass]


def dense_sign_scan(f, step=1e-6):
    """Oracle: first positive-to-nonpositive crossing of f on a dense r grid."""
    rs = np.arange(1, int(1 / step)) * step
    vals = f(rs)
    pos = vals > 0
    drops = np.nonzero(pos[:-1] & ~pos[1:])[0]
    assert drops.size >= 1
    return 0.5 * (rs[drops[0]] + rs[drops[0] + 1])


class TestDistortionFloors:
    def test_general_limit_at_zero(self):
        assert distortion_floor(FamilyClass.GENERAL, 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_general_at_half(self):
        # u = 1/3: (1/6) (1/27) (1 - 3^-6)
        exact = (1.0 / 6.0) * (1.0 / 27.0) * (1.0 - 1.0 / 729.0)
        assert distortion_floor(FamilyClass.GENERAL, 0.5) == pytest.approx(exact, rel=1e-14)
        assert exact == pytest.approx(0.00616437, abs=5e-9)

    def test_general_to_one(self):
        assert distortion_floor(FamilyClass.GENERAL, 1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_convex_values(self):
        assert distortion_floor(FamilyClass.CONVEX, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert distortion_floor(FamilyClass.CONVEX, 0.5) == pytest.approx(0.5 / 3.375, rel=1e-14)
        assert distortion_floor(FamilyClass.CONVEX, 1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_general_floor_keeps_its_precision_near_zero(self):
        # the form u^3 (1 - u^6)/(12 r) cancelled as r -> 0: it read
        # 1.0000000821 at r = 1e-10, 1.0000334 at 1e-12 and 0.0 from 1e-17.
        # Against the exact value at each double r, within a few ulps
        rs = np.concatenate([np.logspace(-300, -1, 600), np.linspace(0.1, 1 - 1e-6, 400)])
        floors = [distortion_floor(FamilyClass.GENERAL, float(r)) for r in rs]
        assert all(0.0 < f <= 1.0 for f in floors)
        assert all(later <= earlier for earlier, later in zip(floors, floors[1:]))
        for r, f in zip(rs, floors):
            q = Fraction(float(r))
            exact = (1 - q) ** 3 * (3 + 10 * q**2 + 3 * q**4) / (3 * (1 + q) ** 9)
            assert abs(Fraction(f) - exact) <= 4e-15 * exact, r

    @pytest.mark.parametrize("fn", per_family(distortion_floor))
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, fn, r):
        with pytest.raises(ValueError):
            fn(r)


class TestMargins:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 7), (40, 2)])
    def test_general_near_zero(self, n, m):
        assert margin_general(n, m, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert margin_convex(n, m, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_general_at_printed_root(self):
        assert abs(margin_general(2, 2, 0.108193)) < 1e-5

    def test_blowup_near_one(self):
        assert margin_general(2, 2, 0.999999) < -1e6
        for n in (2, 10, 100):
            assert margin_convex(n, n, 0.999999) < 0

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    @pytest.mark.parametrize("r", [[0.1, 0.2], (0.1, 0.2), [[0.1], [0.2]], [0.3]])
    def test_sequence_r_evaluates_as_array(self, fn, r):
        # the domain check reads a list as an array; the evaluation once took
        # 1.0 - r on the list itself and raised TypeError
        expected = fn(5, 8, np.array(r))
        assert np.array_equal(fn(5, 8, r), expected)
        # a float r takes the scalar path, whose pow may differ in the last bit
        assert np.ravel(expected) == pytest.approx([fn(5, 8, x) for x in np.ravel(r)], rel=1e-14)

    @pytest.mark.parametrize("fn", per_family(distortion_floor))
    def test_floor_of_a_sequence(self, fn):
        assert np.array_equal(fn([0.1, 0.2]), fn(np.array([0.1, 0.2])))

    def test_sequence_r_outside_the_domain_rejected(self):
        with pytest.raises(ValueError):
            margin_general(5, 8, [0.1, 1.0])

    def test_convex_sign_scan_around_half(self):
        # dense sign scan of the convex margin: the equal-order root crosses
        # 1/2 between n = 11 and n = 12
        assert margin_convex(11, 11, 0.5) < 0 < margin_convex(12, 12, 0.5)

    def test_convex_diag_positive_at_lower_bound(self):
        n = 7
        r = 1.0 - log_offset(FamilyClass.CONVEX, n) / n
        assert margin_convex_diag(n, r) > 0

    @pytest.mark.parametrize("n", range(2, 51))
    def test_diag_forms_match(self, n):
        g = margin_general(n, n, R_GRID)
        gd = margin_general_diag(n, R_GRID)
        assert np.all(np.abs(g - gd) / (1.0 + np.abs(gd)) < 1e-13)
        c = margin_convex(n, n, R_GRID)
        cd = margin_convex_diag(n, R_GRID)
        assert np.all(np.abs(c - cd) / (1.0 + np.abs(cd)) < 1e-13)

    def test_diag_near_zero(self):
        assert margin_general_diag(5, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert margin_convex_diag(5, 1e-9) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    def test_order_guards(self, fn):
        with pytest.raises(ValueError):
            fn(1, 2, 0.5)
        with pytest.raises(ValueError):
            fn(2, 1, 0.5)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.1])
    def test_r_guards(self, r):
        for fn in (margin_general, margin_convex):
            with pytest.raises(ValueError, match=r"r must lie in \(0, 1\)"):
                fn(2, 2, r)

    @pytest.mark.parametrize(
        "r",
        [math.nan, np.float64(math.nan), np.array(math.nan), [0.5, math.nan],
         np.array([0.2, math.nan, 0.7])],
    )
    def test_nan_rejected(self, r):
        # NaN fails every comparison, so "no value outside" would let it pass
        for call in (
            lambda: margin_general(2, 2, r),
            lambda: margin_convex(2, 2, r),
            lambda: distortion_floor(FamilyClass.GENERAL, r),
            lambda: distortion_floor(FamilyClass.CONVEX, r),
        ):
            with pytest.raises(ValueError, match=r"r must lie in \(0, 1\)"):
                call()

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    @pytest.mark.parametrize("n,m", [(2.5, 3), (3, 2.5), (3.0, 3), ("3", 3)])
    def test_non_integral_orders_rejected(self, fn, n, m):
        with pytest.raises(ValueError, match="orders must be integers"):
            fn(n, m, 0.5)

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    @pytest.mark.parametrize("n,m", [(2**341, 2), (2, 10**200), (10**400, 10**400)])
    def test_orders_beyond_the_double_range_rejected(self, fn, n, m):
        # the general tails' n**3 left the double range from about 10**103
        # on, as an OverflowError, not a domain error
        with pytest.raises(ValueError, match=r"orders must be below 2\*\*341"):
            fn(n, m, 0.5)

    def test_numpy_integer_orders_accepted(self):
        assert margin_general(np.int64(3), np.int32(4), 0.3) == margin_general(3, 4, 0.3)
        assert margin_convex(np.uint8(3), np.int64(4), 0.3) == margin_convex(3, 4, 0.3)

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    def test_numpy_integer_orders_do_not_wrap(self, fn):
        # int64 arithmetic wrapped n**3 from about n = 2.1e6 and flipped the
        # general margin's sign: +3.9e14 at np.int64(2_100_000), r = 0.99999
        n = 2_100_000
        assert fn(np.int64(n), np.int64(n), 0.99999) == fn(n, n, 0.99999) < 0.0

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    def test_float_and_array_r_agree(self, fn):
        # a float r takes the direct comparison in the domain check, an array the numpy one
        rs = np.array([1e-3, 0.25, 0.999])
        assert [fn(5, 8, float(r)) for r in rs] == pytest.approx(fn(5, 8, rs), rel=1e-14)
        assert fn(5, 8, np.float64(0.25)) == fn(5, 8, 0.25)

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_zero_dimensional_r_is_evaluated_in_double(self, fn, dtype):
        # a 0-d r was returned as given by the domain check, so a float32 r
        # ran in single precision (0.0061643724 against 0.006164371962268623
        # at (287, 287, 0.5)) and a float16 r gave nan with overflow warnings
        for r in (dtype(0.5), np.array(0.5, dtype=dtype)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = fn(287, 287, r)
            assert isinstance(value, float) and value == fn(287, 287, 0.5)
        family = FamilyClass.GENERAL if fn is margin_general else FamilyClass.CONVEX
        assert distortion_floor(family, dtype(0.5)) == distortion_floor(family, 0.5)
        assert threshold_order(family, dtype(0.5)) == threshold_order(family, 0.5)


@pytest.fixture
def r_checks(monkeypatch):
    """Record every r domain check; the margins' check is the only one."""
    calls = []
    check = radius._check_r_open
    monkeypatch.setattr(radius, "_check_r_open", lambda r: calls.append(r) or check(r))
    return calls


class TestOneCheckPerCall:
    @pytest.mark.parametrize("family", list(FamilyClass))
    @pytest.mark.parametrize("r", [0.3, np.array([0.1, 0.5, 0.9])])
    def test_margin_checks_r_once(self, r_checks, family, r):
        margin_fn(family)(40, 60, r)
        assert len(r_checks) == 1

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_solver_checks_r_at_most_once_per_evaluation(self, monkeypatch, r_checks, family):
        # one evaluator per solve, its rows formed once, and no r check at
        # all: every r the solver evaluates lies in the fixed bracket
        sections, evaluations = [], []
        build = radius._margin_at

        def spy(*section):
            sections.append(section)
            f = build(*section)
            return lambda r: evaluations.append(r) or f(r)

        monkeypatch.setattr(radius, "_margin_at", spy)
        solve_radius(family, 40, 60)
        assert sections == [(family, 40, 60)]
        assert len(evaluations) == 43  # the two bracket ends, 40 bisection steps, the residual
        assert r_checks == []
        # one evaluation form for every sign: an array r takes numpy's SIMD
        # power, whose last bits can differ from the scalar form's
        assert all(type(r) is float for r in evaluations)


class TestOneShotMargins:
    """A public margin evaluates the record's int rows through the module-global
    tail core, and builds no evaluator for a single use."""

    @pytest.fixture
    def tails(self, monkeypatch):
        calls = []
        core = radius.tail_weighted

        def spy(coefficients, n, r):
            calls.append((coefficients, n))
            return core(coefficients, n, r)

        monkeypatch.setattr(radius, "tail_weighted", spy)
        monkeypatch.setattr(radius, "_margin_at", refuse_setup)
        return calls

    @pytest.mark.parametrize("family", list(FamilyClass))
    @pytest.mark.parametrize("r", [0.3, np.array([0.1, 0.5, 0.9])])
    def test_margin_calls_the_tail_core_twice(self, tails, family, r):
        margin_fn(family)(40, 60, r)
        fam = radius._FAMILIES[family]
        assert tails == [(fam.analytic(40), 40), (fam.co_analytic(60), 60)]
        assert all(type(e) is int for row, _ in tails for e in row)

    def test_threshold_makes_two_tail_calls_per_order(self, tails):
        assert threshold_order(FamilyClass.GENERAL, 0.5) == 22
        assert [n for _, n in tails] == [n for n in range(2, 23) for _ in (0, 1)]

    @pytest.mark.parametrize("fn", [margin_general, margin_convex])
    def test_same_bits_as_the_solver_evaluator(self, fn):
        family = FamilyClass.GENERAL if fn is margin_general else FamilyClass.CONVEX
        for n, m in [(2, 2), (287, 287), (5, 8), (10**12, 3), (2**340, 2**340)]:
            f = radius._margin_at(family, n, m)
            for r in [2.0**-10, 0.3, 0.7, 1.0 - 2.0**-53]:
                assert fn(n, m, r).hex() == f(r).hex(), (n, m, r)
            assert np.array_equal(fn(n, m, SCAN_GRID), f(SCAN_GRID))


def refuse_setup(*section):
    raise AssertionError(f"a one-shot margin built the solver's evaluator for {section}")


def assert_same_bracket(result, family, n, m):
    """`result` has the bracket of the elementary-combination margin.

    Its residual, the margin at the radius, may move by rounding only: at
    most 8 ulps of the floor there, the largest of the margin's three
    terms (4 ulps measured).
    """
    old = reference_solve(family, n, m, tail=tail_combination)
    assert (result.radius, result.bracket_lo, result.bracket_hi, result.iterations) == (
        old.radius, old.bracket_lo, old.bracket_hi, old.iterations), (n, m)
    ulp = math.ulp(distortion_floor(family, result.radius))
    assert abs(result.residual - old.residual) <= 8 * ulp, (n, m)


class TestReferenceEquivalence:
    """Bit-for-bit agreement with the margin composed from the public parts,
    and the brackets of the elementary-combination margin."""

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_equal_orders(self, family):
        for n in [*range(2, 301), 1000, 10000]:
            result = solve_radius(family, n, n)
            assert result == reference_solve(family, n, n), n
            assert_same_bracket(result, family, n, n)
            # the fixed bracket moves no root by more than the bracket width
            # (8.9e-13 measured) from the earlier scan's
            assert abs(result.radius - scan_solve(family, n, n)) <= 1e-12, n

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_random_pairs(self, family):
        for n, m in random_pairs(family):
            result = solve_radius(family, n, m)
            assert result == reference_solve(family, n, m), (n, m)
            assert_same_bracket(result, family, n, m)
            assert abs(result.radius - scan_solve(family, n, m)) <= 1e-12, (n, m)

    @pytest.mark.parametrize("family", list(FamilyClass))
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 9), (50, 50), (287, 287), (1000, 40),
                                     (10**17, 2), (2**200 - 1, 3), (2**340, 2**340)])
    def test_margin_on_scan_grid(self, family, n, m):
        assert np.array_equal(margin_fn(family)(n, m, SCAN_GRID),
                              reference_margin(family, n, m, SCAN_GRID))


def public_solve(family, n, m):
    """The solver's earlier form: the public margin, which checks r, at every r."""
    f = margin_fn(family)

    def margin(r):
        return f(n, m, r)

    assert margin(BRACKET[0]) > 0.0 >= margin(BRACKET[1]), (n, m)
    lo, hi, iterations = bisect(margin, *BRACKET)
    root = 0.5 * (lo + hi)
    return root, lo, hi, float(margin(root)), iterations


def int_row_tail(row, n, r):
    """The tail core's earlier body: the row formed at n as ints inside the Horner loop."""
    s = 1.0 - r
    coefficients = row(n)
    num = 0.0
    for e in reversed(coefficients):
        num = num * s + e
    return r**n * num / s ** len(coefficients)


# orders from 1 to 2**340, below the 2**341 cap: past int64 and past 2**53,
# from which doubles no longer hold every integer
ORDER_LADDER = [1, 2, 3, 7, 287, 10**4, 2**31 + 1, 2**53 + 1, 10**17, 3 * 10**18 + 7,
                2**100 + 1, 2**200 - 1, 2**300 + 3, 2**340]


class TestBitIdentity:
    """The once-formed evaluator gives the same bits as the public margin
    at every r, and the float rows the same bits as the int rows."""

    @staticmethod
    def assert_same_solve(family, n, m):
        with warnings.catch_warnings():
            # the lower-bound warning fires from about n = 1e13 on
            warnings.simplefilter("ignore", UserWarning)
            res = solve_radius(family, n, m)
            ref = public_solve(family, n, m)
        got = (res.radius, res.bracket_lo, res.bracket_hi, res.residual)
        assert [x.hex() for x in got] == [x.hex() for x in ref[:4]], (n, m)
        assert type(res.residual) is float
        assert res.iterations == ref[4], (n, m)

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_solver_equals_the_public_margin_bisection(self, family):
        rng = np.random.default_rng(20261019 if family is FamilyClass.GENERAL else 20261020)
        pairs = [tuple(int(v) for v in np.exp(rng.uniform(math.log(2), math.log(1e17), 2)))
                 for _ in range(90)]
        pairs += [(n, n) for n in range(2, 301)]
        pairs += [(n, n) for n in (10**5, 10**12, 10**18)] + [(3 * 10**18, 2)]
        for n, m in pairs:
            self.assert_same_solve(family, n, m)

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_solver_does_not_read_the_tail_core(self, monkeypatch, family):
        # the solver's evaluator writes each row's tail out; only one-shot
        # margins go through the module-global tail core
        sections = [(2, 2), (40, 60), (10**12, 3)]
        expected = [solve_radius(family, n, m) for n, m in sections]

        def refuse(*args):
            raise AssertionError("the solver called the tail core")

        monkeypatch.setattr(radius, "tail_weighted", refuse)
        for (n, m), ref in zip(sections, expected):
            res = solve_radius(family, n, m)
            got = (res.radius, res.bracket_lo, res.bracket_hi, res.residual)
            assert [x.hex() for x in got] == [
                x.hex() for x in (ref.radius, ref.bracket_lo, ref.bracket_hi, ref.residual)
            ], (n, m)
            assert (res.iterations, res.lower_bound) == (ref.iterations, ref.lower_bound)

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_float_row_equals_int_row(self, tail):
        row = record_row(tail)
        rs = [2.0**-10, *map(float, R_GRID), 0.999, 1.0 - 2.0**-53]
        for n in ORDER_LADDER:
            formed = tuple(map(float, row(n)))
            for r in rs:
                assert tail_weighted(formed, n, r).hex() == int_row_tail(row, n, r).hex(), (n, r)
            assert np.array_equal(tail_weighted(formed, n, SCAN_GRID),
                                  int_row_tail(row, n, SCAN_GRID)), n


def margin_convex_poly(n: int, r):
    """Polynomial form with the same sign as margin_convex_diag on (0, 1).

    (1-r)^4 - [2 + (2n-1)(1-r) + n^2 (1-r)^2] (1+r)^3 r^n, obtained by
    multiplying the diagonal margin by (1-r)^3 (1+r)^3 > 0.  Defined on
    0 <= r < 1 and equal to 1 at r = 0.
    """
    s = 1.0 - r
    return s**4 - (2.0 + (2 * n - 1) * s + n**2 * s**2) * (1.0 + r) ** 3 * r**n


class TestConvexPolyForm:
    def test_value_at_zero(self):
        for n in (2, 5, 30):
            assert margin_convex_poly(n, 0.0) == 1.0

    def test_negative_near_one(self):
        assert margin_convex_poly(5, 0.999999) < 0

    @pytest.mark.parametrize("n", range(2, 51, 4))
    def test_sign_matches_diag(self, n):
        for r in R_GRID:
            diag = margin_convex_diag(n, float(r))
            poly = margin_convex_poly(n, float(r))
            if abs(diag) > 1e-9:
                assert math.copysign(1, diag) == math.copysign(1, poly)


class TestSolver:
    @pytest.mark.parametrize("n,expected", sorted(TABLE_GENERAL.items()))
    def test_printed_table(self, n, expected):
        result = solve_radius(FamilyClass.GENERAL, n, n)
        assert result.radius == pytest.approx(expected, abs=5e-7)

    @pytest.mark.parametrize("family", list(FamilyClass))
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 9), (25, 25), (120, 40)])
    def test_result_invariants(self, family, n, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_radius(family, n, m)
        assert res.bracket_lo < res.radius <= res.bracket_hi
        assert res.bracket_hi - res.bracket_lo <= 1e-12
        assert abs(res.residual) < 1e-10
        assert 0.0 < res.radius < 1.0
        if res.lower_bound is not None:
            assert res.radius > res.lower_bound

    def test_lower_bound_presence(self):
        assert solve_radius(FamilyClass.GENERAL, 14, 14).lower_bound is None
        assert solve_radius(FamilyClass.GENERAL, 15, 15).lower_bound is not None
        assert solve_radius(FamilyClass.CONVEX, 6, 6).lower_bound is None
        assert solve_radius(FamilyClass.CONVEX, 7, 7).lower_bound is not None
        # the off-diagonal bound comes from the smaller order
        res = solve_radius(FamilyClass.GENERAL, 40, 15)
        assert res.lower_bound == pytest.approx(lower_bound(FamilyClass.GENERAL, 15), rel=1e-15)

    def test_off_diagonal_against_dense_scan(self):
        res = solve_radius(FamilyClass.GENERAL, 2, 3)
        oracle = dense_sign_scan(lambda rs: margin_general(2, 3, rs))
        assert res.radius == pytest.approx(oracle, abs=2e-6)
        assert res.radius == pytest.approx(0.1151438086, abs=1e-6)
        assert res.radius > solve_radius(FamilyClass.GENERAL, 2, 2).radius

    @pytest.mark.parametrize(
        "n,m",
        [(2, 3), (3, 2), (7, 21), (21, 7), (12, 40), (40, 12), (2, 40), (40, 2)],
    )
    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_min_rule(self, family, n, m):
        low = min(n, m)
        assert (
            solve_radius(family, n, m).radius >= solve_radius(family, low, low).radius
        )

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_monotone_in_order(self, family):
        radii = [solve_radius(family, n, n).radius for n in range(2, 30)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("n", [2, 5, 12, 30])
    def test_convex_root_dominates_general(self, n):
        # informational: smaller tails and a larger floor push the convex
        # root to the right
        assert (
            solve_radius(FamilyClass.CONVEX, n, n).radius
            > solve_radius(FamilyClass.GENERAL, n, n).radius
        )

    def test_order_guard(self):
        with pytest.raises(ValueError):
            solve_radius(FamilyClass.GENERAL, 1, 2)

    @pytest.mark.parametrize("n,m", [(2.5, 3), (3, 2.5)])
    def test_non_integral_orders_rejected(self, n, m):
        # a float order once gave a radius (0.1327 for (2.5, 3))
        with pytest.raises(ValueError, match="orders must be integers"):
            solve_radius(FamilyClass.GENERAL, n, m)

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_largest_orders_reach_the_bracket_scan(self, family):
        # just below the bound the margin is still positive at r = 1 - 2**-53,
        # so the root lies within one double of 1 and has no bracket in
        # doubles; from the bound on the orders are rejected before any
        # margin is formed
        big = 2**341 - 1
        for n in (big, 10**19):
            with pytest.raises(ValueError, match="within one double of 1"):
                solve_radius(family, n, n)
        for n, m in [(big + 1, 2), (10**200, 10**200), (10**400, 5)]:
            with pytest.raises(ValueError, match=r"orders must be below 2\*\*341"):
                solve_radius(family, n, m)

    @pytest.mark.parametrize("family", list(FamilyClass))
    @pytest.mark.parametrize("n", [36_965, 65_051, 10**5, 10**6, 10**8, 10**12])
    def test_orders_past_the_earlier_scan_solve(self, family, n):
        # the earlier 999-point scan ended at r = 0.999, below these roots,
        # and found no bracket from n = 36 965 (convex) and 65 051 (general)
        f = margin_fn(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_radius(family, n, n)
        assert f(n, n, res.bracket_lo) > 0.0 >= f(n, n, res.bracket_hi)
        assert res.bracket_hi - res.bracket_lo <= 1e-12
        assert res.radius > res.lower_bound

    def test_general_order_1e5_root(self):
        # x = n (1 - r) = 67.897 at n = 1e5, the root a sign scan of the
        # margin over x found independently
        res = solve_radius(FamilyClass.GENERAL, 10**5, 10**5)
        assert 10**5 * (1.0 - res.radius) == pytest.approx(67.897, abs=1e-3)

    def test_numpy_integer_orders_accepted(self):
        assert solve_radius(FamilyClass.CONVEX, np.int64(7), np.int64(9)) == solve_radius(
            FamilyClass.CONVEX, 7, 9
        )

    def test_general_floor_is_a_positive_polynomial_in_u(self):
        # u^3 (1 - u^6) / (12 r) = (u^3 + 2u^4 + ... + 2u^8 + u^9) / 12 with
        # u = (1 - r)/(1 + r): positive coefficients in a u that decreases in
        # r, so the floor decreases and the margin has exactly one root
        weights = [0, 0, 0, 1, 2, 2, 2, 2, 2, 1]
        for r in (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            u = (1 - r) / (1 + r)
            closed = u**3 * (1 - u**6) / (12 * r)
            assert closed == sum(w * u**k for k, w in enumerate(weights)) / 12
            assert distortion_floor(FamilyClass.GENERAL, float(r)) == pytest.approx(float(closed), rel=1e-14)


class TestBounds:
    def test_general_value(self):
        expected = 1.0 - (7 * math.log(15) - 4 * math.log(math.log(15))) / 15
        assert lower_bound(FamilyClass.GENERAL, 15) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.0019, abs=5e-5)

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_first_bound_order_is_the_first_positive_order(self, family):
        # the domain starts exactly where the bound turns positive: at the
        # order before it the same formula is -0.0423 (general, n = 14) and
        # -1.07e-4 (convex, n = 6)
        first = FIRST_BOUND_ORDER[family]
        assert lower_bound(family, first) > 0.0
        assert 1.0 - log_offset(family, first - 1) / (first - 1) <= 0.0
        with pytest.raises(ValueError, match=f"requires n >= {first}"):
            lower_bound(family, first - 1)

    def test_general_large_n(self):
        assert lower_bound(FamilyClass.GENERAL, 10**6) > 0.9999

    def test_general_monotone(self):
        ns = [15, 16, 20, 40, 100, 1_000, 10_000, 100_000]
        vals = [lower_bound(FamilyClass.GENERAL, n) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_convex_values(self):
        expected = 1.0 - (4 * math.log(7) - 2 * math.log(math.log(7))) / 7
        assert lower_bound(FamilyClass.CONVEX, 7) == pytest.approx(expected, rel=1e-15)
        assert lower_bound(FamilyClass.CONVEX, 10**6) > 0.9999

    @pytest.mark.parametrize(
        "fn", [*per_family(lower_bound), *per_family(log_offset), close_to_convex_radius]
    )
    def test_non_integral_order_rejected(self, fn):
        # lower_bound(GENERAL, 15.5) once returned 0.0224, a bound for no section
        for n in (15.5, 16.0, "16"):
            with pytest.raises(ValueError, match="requires an integer n"):
                fn(n)
        assert fn(np.int64(16)) == fn(16)

    # orders up to the largest double: the largest, the largest int below
    # 2**1000 and a power of ten; each keeps the bits of 1 - offset/n
    IN_RANGE = pytest.mark.parametrize(
        "n", [int(sys.float_info.max), 2**1000 - 1, 10**300], ids=["max", "2**1000-1", "10**300"]
    )

    @IN_RANGE
    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_lower_bound_bits_up_to_the_largest_double(self, family, n):
        assert lower_bound(family, n).hex() == (1.0 - log_offset(family, n) / n).hex()

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_offset_and_bound_bits_on_a_ladder(self, family):
        first = FIRST_BOUND_ORDER[family]
        ladder = [2, 3, first - 1, first, first + 1, 100, 287, 10**3, 10**6, 2**53 + 1, 10**18,
                  10**100, int(sys.float_info.max), 10**400]
        for n in ladder:
            offset = log_offset_formula(family, n)
            assert log_offset(family, n).hex() == offset.hex()
            if n >= first:
                bound = 1.0 if n > sys.float_info.max else 1.0 - offset / n
                assert lower_bound(family, n).hex() == bound.hex()

    @pytest.mark.parametrize("fn", [*per_family(lower_bound), *per_family(log_offset)])
    def test_each_bound_checks_its_order_once(self, monkeypatch, fn):
        calls = []
        original = radius._order_from

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(radius, "_order_from", counting)
        fn(287)
        assert calls == [287]

    @IN_RANGE
    def test_close_to_convex_bits_up_to_the_largest_double(self, n):
        assert close_to_convex_radius(n).hex() == (1.0 - 3.0 * math.log(n) / n).hex()

    @pytest.mark.parametrize("n", [int(sys.float_info.max) + 1, 2**1024, 10**400, 2**20000],
                             ids=["max+1", "2**1024", "10**400", "2**20000"])
    def test_past_the_double_range_the_bounds_round_to_one(self, n):
        # 1 - offset/n is within 2**-1000 of 1; n / float once raised
        # OverflowError("int too large to convert to float")
        for family in FamilyClass:
            assert lower_bound(family, n) == 1.0
            assert 0.0 < log_offset(family, n) < n
        assert close_to_convex_radius(n) == 1.0

    def test_close_to_convex(self):
        assert close_to_convex_radius(5) == pytest.approx(1 - 3 * math.log(5) / 5, rel=1e-15)
        assert close_to_convex_radius(5) == pytest.approx(0.0343373, abs=1e-7)
        assert close_to_convex_radius(10**6) > 0.99995
        with pytest.raises(ValueError):
            close_to_convex_radius(4)


class TestThresholds:
    def test_general(self):
        assert threshold_order(FamilyClass.GENERAL, 0.25) == 7
        assert threshold_order(FamilyClass.GENERAL, 0.5) == 22

    def test_convex_from_root_scan(self):
        # frozen from the dense sign scan of the convex margin
        assert threshold_order(FamilyClass.CONVEX, 0.25) == 4
        assert threshold_order(FamilyClass.CONVEX, 0.5) == 12

    def test_failure_below_threshold(self):
        n = threshold_order(FamilyClass.GENERAL, 0.25)
        assert solve_radius(FamilyClass.GENERAL, n - 1, n - 1).radius < 0.25
        assert solve_radius(FamilyClass.GENERAL, n, n).radius >= 0.25

    def test_tiny_target_is_reached_at_order_two(self):
        # the cancelling general floor read 0.0 at r = 1e-17, so no order reached it
        assert threshold_order(FamilyClass.GENERAL, 1e-17) == 2
        assert threshold_order(FamilyClass.CONVEX, 1e-17) == 2

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5, -0.25])
    def test_target_guard(self, target):
        with pytest.raises(ValueError):
            threshold_order(FamilyClass.GENERAL, target)

    def test_no_solver_runs(self, monkeypatch):
        # each order is one sign test of the margin at the target, never a solve
        def refuse(*args):
            raise AssertionError("threshold_order called solve_radius")

        monkeypatch.setattr(radius, "solve_radius", refuse)
        expected = {FamilyClass.GENERAL: (7, 22, 78), FamilyClass.CONVEX: (4, 12, 43)}
        for family, orders in expected.items():
            assert tuple(threshold_order(family, t) for t in (0.25, 0.5, 0.75)) == orders

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_equal_order_margin_never_decreases_in_n(self, family):
        # T(n+1, r) = T(n, r) - w(n+1) r^n with w > 0, so the first order whose
        # margin is positive at the target is the threshold
        rs = np.linspace(0.05, 0.95, 19)
        margins = np.array([margin_fn(family)(n, n, rs) for n in range(2, 1001)])
        assert np.all(np.diff(margins, axis=0) >= 0.0)

    @pytest.mark.parametrize("family", list(FamilyClass))
    def test_threshold_is_the_first_order_whose_root_reaches_the_target(self, family):
        rng = np.random.default_rng(20261018)
        first = solve_radius(family, 2, 2).radius
        for target in rng.uniform(first, 0.95, 40):
            n = threshold_order(family, float(target))
            assert solve_radius(family, n, n).radius >= target
            if n > 2:
                assert solve_radius(family, n - 1, n - 1).radius < target


class TestTypes:
    def test_radius_result_is_frozen(self):
        res = RadiusResult(0.5, 0.4999, 0.5001, 0.0, 10, None)
        with pytest.raises(Exception):
            res.radius = 0.6
