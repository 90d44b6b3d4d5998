"""Closed-form tail sums against exact arithmetic and the truncation oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from harmsect import tails
from harmsect.harmonic import ExtremalCoefficients
from harmsect.radius import FamilyClass
from harmsect.tails import TailClass, tail_weighted
from oracles import (
    tail_brute,
    tail_combination,
    tail_cube,
    tail_general_pair_diag,
    tail_linear,
    tail_square,
    weight,
)

ALL_CLASSES = list(TailClass)
R_GRID = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def brute_elementary(power, n, r, terms=20_000):
    """Oracle: direct truncated sum of k^power r^(k-1)."""
    ks = np.arange(n + 1, n + terms + 1, dtype=float)
    return math.fsum(ks**power * r ** (ks - 1.0))


class TestElementaryTails:
    """The elementary oracle tails, which check no arguments, against direct sums."""

    def test_linear_geometric_derivative(self):
        # n = 0 tail is the derivative of the geometric series, 1/(1-r)^2
        assert tail_linear(0, 0.5) == pytest.approx(4.0, abs=1e-14)

    def test_linear_vanishes_at_zero(self):
        assert tail_linear(1, 0.0) == 0.0

    def test_linear_n2(self):
        # frozen from the truncation oracle
        assert brute_elementary(1, 2, 0.5) == pytest.approx(2.0, rel=1e-13)
        assert tail_linear(2, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_square_at_zero(self):
        assert tail_square(0, 0.0) == 1.0
        assert tail_square(3, 0.0) == 0.0

    def test_square_half(self):
        # (1+r)/(1-r)^3 at r = 1/2
        assert brute_elementary(2, 0, 0.5) == pytest.approx(12.0, rel=1e-13)
        assert tail_square(0, 0.5) == pytest.approx(12.0, abs=1e-12)

    def test_cube_values(self):
        # (1+4r+r^2)/(1-r)^4 at r = 1/2
        assert brute_elementary(3, 0, 0.5) == pytest.approx(52.0, rel=1e-13)
        assert tail_cube(0, 0.5) == pytest.approx(52.0, abs=1e-12)
        assert tail_cube(0, 0.0) == 1.0
        assert tail_cube(5, 0.0) == 0.0

    @pytest.mark.parametrize("power,fn", [(1, tail_linear), (2, tail_square), (3, tail_cube)])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_against_oracle(self, power, fn, n, r):
        expected = brute_elementary(power, n, r)
        assert fn(n, r) == pytest.approx(expected, rel=1e-12)


PUBLIC_TAILS = {
    "weighted": lambda n, r: tail_weighted(TailClass.GENERAL_ANALYTIC, n, r),
}


class TestIntegerOrders:
    @pytest.mark.parametrize("name", PUBLIC_TAILS)
    def test_non_integral_order_rejected(self, name):
        # a tail between two orders is the value of no sum: the general
        # analytic tail at n = 2.5, r = 0.5 once gave 18.83
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
            PUBLIC_TAILS[name](2.5, 0.5)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
            PUBLIC_TAILS[name](3.0, 0.5)

    @pytest.mark.parametrize("name", PUBLIC_TAILS)
    def test_numpy_integer_order_accepted(self, name):
        fn = PUBLIC_TAILS[name]
        for n in (np.int64(3), np.int32(3), np.uint8(3)):
            assert fn(n, 0.5) == fn(3, 0.5)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_numpy_integer_orders_do_not_wrap(self, cls):
        # the coefficients take n**3, which wraps in int64 from about n = 2.1e6:
        # the general analytic tail at np.int64(10**7) was 6% off, so the
        # checked order must reach the core as a Python int
        for n in (2_100_000, 10**7, 5 * 10**9):
            assert tail_weighted(cls, np.int64(n), 0.9999999) == tail_weighted(cls, n, 0.9999999)


class TestWeights:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_nonnegative_integers(self, cls):
        ks = np.arange(1, 60, dtype=float)
        w = weight(cls, ks)
        assert np.all(w >= 0)
        assert np.allclose(w, np.round(w))

    def test_co_analytic_vanish_at_one(self):
        assert weight(TailClass.GENERAL_CO_ANALYTIC, 1.0) == 0.0
        assert weight(TailClass.CONVEX_CO_ANALYTIC, 1.0) == 0.0

    def test_first_values(self):
        assert weight(TailClass.GENERAL_ANALYTIC, 2.0) == 5.0
        assert weight(TailClass.GENERAL_CO_ANALYTIC, 2.0) == 1.0
        assert weight(TailClass.CONVEX_ANALYTIC, 2.0) == 3.0
        assert weight(TailClass.CONVEX_CO_ANALYTIC, 2.0) == 1.0

    @pytest.mark.parametrize(
        "family,analytic,co_analytic",
        [
            (FamilyClass.GENERAL, TailClass.GENERAL_ANALYTIC, TailClass.GENERAL_CO_ANALYTIC),
            (FamilyClass.CONVEX, TailClass.CONVEX_ANALYTIC, TailClass.CONVEX_CO_ANALYTIC),
        ],
    )
    def test_weights_are_k_times_the_scanned_coefficients(self, family, analytic, co_analytic):
        # the margins sum w(k) = k |a_k| (and k |b_k|) over the coefficient
        # bounds that `scan` takes with equality.  w(k) is an exact integer
        # here, so w(k) / k and the coefficient are both the correctly
        # rounded value of one rational and must be equal bit for bit
        ks = np.arange(1, 61, dtype=float)
        source = ExtremalCoefficients(family)
        assert np.array_equal(weight(analytic, ks) / ks, source.analytic(ks))
        assert np.array_equal(weight(co_analytic, ks) / ks, source.co_analytic(ks))


class TestWeightedTails:
    def test_zero_radius(self):
        for cls in ALL_CLASSES:
            assert tail_weighted(cls, 1, 0.0) == 0.0
            assert tail_weighted(cls, 7, 0.0) == 0.0

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_sequence_r_evaluates_as_array(self, cls):
        # the domain check reads a list as an array; the evaluation once took
        # 1.0 - r on the list itself and raised TypeError
        for r in ([0.0, 0.1, 0.2], (0.5,), [[0.1], [0.9]]):
            assert np.array_equal(tail_weighted(cls, 3, r), tail_weighted(cls, 3, np.array(r)))

    def test_general_analytic_example(self):
        # sum_{k >= 2} k(k+1)(2k+1)/6 * 0.1^(k-1), oracle truncated at 500 terms
        expected = tail_brute(TailClass.GENERAL_ANALYTIC, 1, 0.1, 500)
        assert tail_weighted(TailClass.GENERAL_ANALYTIC, 1, 0.1) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50])
    @pytest.mark.parametrize("r", R_GRID)
    def test_against_truncation_oracle(self, cls, n, r):
        closed = tail_weighted(cls, n, r)
        brute = tail_brute(cls, n, r, 20_000)
        assert abs(closed - brute) / (1.0 + closed) < 1e-12

    def test_increasing_in_r(self):
        rs = np.linspace(0.05, 0.95, 19)
        for cls in ALL_CLASSES:
            vals = tail_weighted(cls, 3, rs)
            assert np.all(np.diff(vals) > 0)

    def test_decreasing_in_n(self):
        for cls in ALL_CLASSES:
            vals = [tail_weighted(cls, n, 0.6) for n in range(1, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tail_weighted(TailClass.GENERAL_ANALYTIC, 0, 0.5)
        with pytest.raises(ValueError, match=r"n must be below 2\*\*341"):
            tail_weighted(TailClass.GENERAL_ANALYTIC, 10**400, 0.5)
        with pytest.raises(ValueError, match=r"r must lie in \[0, 1\)"):
            tail_weighted(TailClass.GENERAL_ANALYTIC, 2, 1.0)
        with pytest.raises(ValueError, match=r"r must lie in \[0, 1\)"):
            tail_weighted(TailClass.GENERAL_ANALYTIC, 2, -0.2)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_orders_beyond_the_double_range_rejected(self, cls):
        # n**3 is a finite double below 2**341; the elementary cube tail
        # overflowed converting it from 10**103 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tail_weighted(cls, 2**341 - 1, 0.5) == 0.0
        for n in (2**341, 10**200, 10**400):
            with pytest.raises(ValueError, match=r"n must be below 2\*\*341"):
                tail_weighted(cls, n, 0.5)

    @pytest.mark.parametrize("r", [math.nan, [0.5, math.nan], np.array([math.nan, 0.2])])
    def test_nan_rejected(self, r):
        # NaN fails every comparison, so "no value outside" would let it pass
        for cls in ALL_CLASSES:
            with pytest.raises(ValueError, match=r"r must lie in \[0, 1\)"):
                tail_weighted(cls, 3, r)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_matches_elementary_combination(self, cls):
        # the mixed-sign combination of the three elementary tails rounds
        # differently, by at most 3 ulps measured
        rs = np.asarray(R_GRID)
        for n in (1, 2, 3, 7, 50, 287, 1000):
            closed = tail_weighted(cls, n, rs)
            assert np.all(np.abs(closed - tail_combination(cls, n, rs)) <= 4e-15 * closed)

    def test_one_r_check_per_call(self, monkeypatch):
        calls = []
        check = tails._check_r_halfopen
        monkeypatch.setattr(tails, "_check_r_halfopen", lambda r: calls.append(r) or check(r))
        for cls in ALL_CLASSES:
            calls.clear()
            tail_weighted(cls, 3, 0.4)
            assert calls == [0.4]


def exact_tail(cls: TailClass, n: int, r: Fraction) -> Fraction:
    """The closed form of `cls` at order n, in exact rational arithmetic."""
    row = tails._COEFFICIENTS[cls](n)
    s = 1 - r
    return r**n * sum(e * s ** (j - len(row)) for j, e in enumerate(row))


class TestExactForm:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    @pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])
    def test_each_order_drops_the_next_term(self, cls, r):
        # T(n) - T(n+1) - w(n+1) r^n is r^n times a polynomial of degree at
        # most 3 in n, so zero at six consecutive orders makes it zero at
        # every order.  T then differs from the tail by a constant in n, and
        # both tend to 0 as n grows, so T is the tail at this r
        for n in range(1, 7):
            drop = exact_tail(cls, n, r) - exact_tail(cls, n + 1, r)
            assert drop == Fraction(weight(cls, n + 1)) * r**n, n

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_coefficients_are_nonnegative_integers(self, cls):
        for n in [*range(2, 1001), 2**341 - 1]:
            row = tails._COEFFICIENTS[cls](n)
            assert all(type(e) is int and e >= 0 for e in row), (n, row)


class TestCombinedDiagonal:
    @pytest.mark.parametrize("n", range(2, 51))
    def test_matches_pair_sum(self, n):
        rs = np.asarray(R_GRID)
        pair = tail_weighted(TailClass.GENERAL_ANALYTIC, n, rs) + tail_weighted(
            TailClass.GENERAL_CO_ANALYTIC, n, rs
        )
        combined = tail_general_pair_diag(n, rs)
        assert np.all(np.abs(pair - combined) / (1.0 + np.abs(combined)) < 1e-13)


class TestBruteForce:
    def test_single_term(self):
        # first term k = 2 of the convex analytic tail at r = 1/2: weight 3
        assert tail_brute(TailClass.CONVEX_ANALYTIC, 1, 0.5, 1) == pytest.approx(1.5, abs=1e-15)

    def test_zero_radius(self):
        assert tail_brute(TailClass.GENERAL_ANALYTIC, 1, 0.0, 10) == 0.0

    def test_monotone_in_terms(self):
        values = [tail_brute(TailClass.GENERAL_ANALYTIC, 2, 0.7, t) for t in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_large_term_count_matches_closed_form(self):
        for cls in ALL_CLASSES:
            closed = tail_weighted(cls, 3, 0.9)
            brute = tail_brute(cls, 3, 0.9, 10**6)
            assert abs(closed - brute) / (1.0 + closed) < 1e-10
