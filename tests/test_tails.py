"""Closed-form tail sums against exact arithmetic and the truncation oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from harmsect.harmonic import extremal_map, section
from harmsect.radius import FamilyClass, margin_fn
from oracles import (
    TAILS,
    record_row,
    record_tail,
    tail_brute,
    tail_combination,
    tail_cube,
    tail_general_pair_diag,
    tail_linear,
    tail_id,
    tail_square,
    weight,
)


def margin_at(tail, n, r):
    """The family margin with `tail`'s order at n and the other order at 2."""
    family, part = tail
    orders = (n, 2) if part == "analytic" else (2, n)
    return margin_fn(family)(*orders, r)


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


class TestIntegerOrders:
    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_numpy_integer_orders_do_not_wrap(self, tail):
        # the coefficients take n**3, which wraps in int64 from about n = 2.1e6:
        # the general analytic tail at np.int64(10**7) was 6% off, so the
        # margin's checked order must reach the tail core as a Python int
        for n in (2_100_000, 10**7, 5 * 10**9):
            assert margin_at(tail, np.int64(n), 0.9999999) == margin_at(tail, n, 0.9999999)


class TestWeights:
    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_nonnegative_integers(self, tail):
        ks = np.arange(1, 60, dtype=float)
        w = weight(tail, ks)
        assert np.all(w >= 0)
        assert np.allclose(w, np.round(w))

    def test_co_analytic_vanish_at_one(self):
        assert weight((FamilyClass.GENERAL, "co_analytic"), 1.0) == 0.0
        assert weight((FamilyClass.CONVEX, "co_analytic"), 1.0) == 0.0

    def test_first_values(self):
        assert [weight(tail, 2.0) for tail in TAILS] == [5.0, 1.0, 3.0, 1.0]

    @pytest.mark.parametrize(
        "family,analytic,co_analytic",
        [(family, (family, "analytic"), (family, "co_analytic")) for family in FamilyClass],
        ids=lambda value: tail_id(value) if isinstance(value, tuple) else None,
    )
    def test_weights_are_k_times_the_scanned_coefficients(self, family, analytic, co_analytic):
        # the margins sum w(k) = k |a_k| (and k |b_k|) over the coefficient
        # bounds that `scan` takes with equality, over the whole range of
        # section orders.  w(k) is an exact integer here, so w(k) / k and the
        # coefficient are both the correctly rounded value of one rational
        # and must be equal bit for bit.  A section keeps exactly the leading
        # coefficients of the extremal map
        ks = np.arange(1, 1001, dtype=float)
        a, b = weight(analytic, ks) / ks, weight(co_analytic, ks) / ks
        p = extremal_map(family)
        assert p.a.size == p.b.size == 1000
        assert np.array_equal(p.a, a) and np.array_equal(p.b, b)
        for n, m in ((3, 7), (1000, 1000)):
            q = section(p, n, m)
            assert np.array_equal(q.a, a[:n]) and np.array_equal(q.b, b[:m])


class TestWeightedTails:
    def test_zero_radius(self):
        for tail in TAILS:
            assert record_tail(tail, 1, 0.0) == 0.0
            assert record_tail(tail, 7, 0.0) == 0.0

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_sequence_r_evaluates_as_array(self, tail):
        # the margin's domain check reads a list as an array; the evaluation
        # once took 1.0 - r on the list itself and raised TypeError
        for r in ([0.05, 0.1, 0.2], (0.5,), [[0.1], [0.9]]):
            assert np.array_equal(margin_at(tail, 3, r), margin_at(tail, 3, np.array(r)))

    def test_general_analytic_example(self):
        # sum_{k >= 2} k(k+1)(2k+1)/6 * 0.1^(k-1), oracle truncated at 500 terms
        tail = (FamilyClass.GENERAL, "analytic")
        expected = tail_brute(tail, 1, 0.1, 500)
        assert record_tail(tail, 1, 0.1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50])
    @pytest.mark.parametrize("r", R_GRID)
    def test_against_truncation_oracle(self, tail, n, r):
        closed = record_tail(tail, n, r)
        brute = tail_brute(tail, n, r, 20_000)
        assert abs(closed - brute) / (1.0 + closed) < 1e-12

    def test_increasing_in_r(self):
        rs = np.linspace(0.05, 0.95, 19)
        for tail in TAILS:
            vals = record_tail(tail, 3, rs)
            assert np.all(np.diff(vals) > 0)

    def test_decreasing_in_n(self):
        for tail in TAILS:
            vals = [record_tail(tail, n, 0.6) for n in range(1, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_orders_beyond_the_double_range_rejected(self, tail):
        # n**3 is a finite double below 2**341, so the core evaluates every
        # order the margins accept; the elementary cube tail overflowed
        # converting n**3 from 10**103 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert record_tail(tail, 2**341 - 1, 0.5) == 0.0
        for n in (2**341, 10**200, 10**400):
            with pytest.raises(ValueError, match=r"orders must be below 2\*\*341"):
                margin_at(tail, n, 0.5)

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_matches_elementary_combination(self, tail):
        # the mixed-sign combination of the three elementary tails rounds
        # differently, by at most 3 ulps measured
        rs = np.asarray(R_GRID)
        for n in (1, 2, 3, 7, 50, 287, 1000):
            closed = record_tail(tail, n, rs)
            assert np.all(np.abs(closed - tail_combination(tail, n, rs)) <= 4e-15 * closed)


def exact_tail(tail, n: int, r: Fraction) -> Fraction:
    """The record's closed form of `tail` at order n, in exact rational arithmetic."""
    coefficients = record_row(tail)(n)
    s = 1 - r
    return r**n * sum(e * s ** (j - len(coefficients)) for j, e in enumerate(coefficients))


class TestExactForm:
    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    @pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])
    def test_each_order_drops_the_next_term(self, tail, r):
        # T(n) - T(n+1) - w(n+1) r^n is r^n times a polynomial of degree at
        # most 3 in n, so zero at six consecutive orders makes it zero at
        # every order.  T then differs from the tail by a constant in n, and
        # both tend to 0 as n grows, so T is the tail at this r
        for n in range(1, 7):
            drop = exact_tail(tail, n, r) - exact_tail(tail, n + 1, r)
            assert drop == Fraction(weight(tail, n + 1)) * r**n, n

    @pytest.mark.parametrize("tail", TAILS, ids=tail_id)
    def test_coefficients_are_nonnegative_integers(self, tail):
        for n in [*range(2, 1001), 2**341 - 1]:
            coefficients = record_row(tail)(n)
            assert all(type(e) is int and e >= 0 for e in coefficients), (n, coefficients)


class TestCombinedDiagonal:
    @pytest.mark.parametrize("n", range(2, 51))
    def test_matches_pair_sum(self, n):
        rs = np.asarray(R_GRID)
        pair = record_tail((FamilyClass.GENERAL, "analytic"), n, rs) + record_tail(
            (FamilyClass.GENERAL, "co_analytic"), n, rs
        )
        combined = tail_general_pair_diag(n, rs)
        assert np.all(np.abs(pair - combined) / (1.0 + np.abs(combined)) < 1e-13)


class TestBruteForce:
    def test_single_term(self):
        # first term k = 2 of the convex analytic tail at r = 1/2: weight 3
        assert tail_brute((FamilyClass.CONVEX, "analytic"), 1, 0.5, 1) == pytest.approx(1.5, abs=1e-15)

    def test_zero_radius(self):
        assert tail_brute((FamilyClass.GENERAL, "analytic"), 1, 0.0, 10) == 0.0

    def test_monotone_in_terms(self):
        values = [tail_brute((FamilyClass.GENERAL, "analytic"), 2, 0.7, t) for t in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_large_term_count_matches_closed_form(self):
        for tail in TAILS:
            closed = record_tail(tail, 3, 0.9)
            brute = tail_brute(tail, 3, 0.9, 10**6)
            assert abs(closed - brute) / (1.0 + closed) < 1e-10
