"""Exact Sturm root isolation against exact constructions and numpy.roots."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import real_horner

from harmsect import polyroots
from harmsect.claims import SCALED_BRACKET_PARTS
from harmsect.polyroots import isolate_real_roots


def bits(values) -> list[str]:
    """float.hex of a float or of each entry of a float array."""
    return [float(v).hex() for v in np.ravel(values)]


class TestHorner:
    """The shared Horner core against the float polynomial oracle, bit for bit."""

    POINTS = (0.0, 1.0, -1.0, 0.5, 2.0, np.float64(-0.3), 1.0 / 3.0, 2.7182818284590451)

    def test_values(self):
        part = (1.0, -2.0, 3.0)  # 1 - 2x + 3x^2
        assert polyroots._horner((part,), 0.0) == [1.0]
        assert polyroots._horner((part,), 2.0) == [1.0 - 4.0 + 12.0]
        (values,) = polyroots._horner((part,), np.array([0.0, 1.0, -1.0]))
        assert values.tolist() == [1.0, 2.0, 6.0]

    def test_one_value_per_part(self):
        assert polyroots._horner(((1.0,), (0.0, 1.0)), 3.0) == [1.0, 3.0]

    @pytest.mark.parametrize("index", range(len(SCALED_BRACKET_PARTS)))
    def test_bracket_parts_match_the_oracle(self, index):
        part = SCALED_BRACKET_PARTS[index]
        for x in self.POINTS:
            assert bits(polyroots._horner((part,), x)[0]) == bits(real_horner(part, x)), x
        ks = np.linspace(-10.0, 10.0, 2001)
        (values,) = polyroots._horner((part,), ks)
        assert bits(values) == bits(real_horner(part, ks))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_polynomials_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        parts = [tuple(rng.standard_normal(size).tolist()) for size in rng.integers(1, 12, 4)]
        xs = rng.uniform(-3.0, 3.0, 257)
        for part, values in zip(parts, polyroots._horner(parts, xs)):
            assert bits(values) == bits(real_horner(part, xs))
            for x in xs[:16].tolist():
                assert bits(polyroots._horner((part,), x)[0]) == bits(real_horner(part, x))

    def test_parts_are_tuples_of_floats(self):
        for part in SCALED_BRACKET_PARTS:
            assert type(part) is tuple and all(type(c) is float for c in part)


class TestIsolation:
    def test_quadratic(self):
        roots = isolate_real_roots((-1.0, 0.0, 1.0), -2.0, 2.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-1.0, abs=1e-10)
        assert roots[1] == pytest.approx(1.0, abs=1e-10)

    def test_no_roots(self):
        assert isolate_real_roots((1.0, 0.0, 1.0), -5.0, 5.0) == []

    def test_cubic_against_numpy(self):
        # x^3 - 2.7 x^2 - 1.3 x + 0.4
        coeffs = (0.4, -1.3, -2.7, 1.0)
        p = coeffs
        expected = sorted(
            r.real for r in np.roots(list(reversed(coeffs))) if abs(r.imag) < 1e-12
        )
        found = isolate_real_roots(p, -10.0, 10.0)
        assert len(found) == len(expected)
        for a, b in zip(found, expected):
            assert a == pytest.approx(b, abs=1e-9)

    def test_newton_polish_residual(self):
        # simple root at an awkward irrational location: the nearest double
        p = (-2.0, 0.0, 1.0)  # x^2 - 2
        roots = isolate_real_roots(p, 0.0, 3.0)
        assert roots == [math.sqrt(2.0)]
        assert abs(polyroots._horner((p,), roots[0])[0]) < 1e-12

    def test_double_root_on_grid_point(self):
        # (x - 1/2)^2: the scan grid hits 1/2 exactly, so the value is 0.0
        # there and the root is reported without a warning
        p = (0.25, -1.0, 1.0)
        roots = isolate_real_roots(p, 0.0, 1.0)
        assert roots == [0.5]

    def test_double_root_is_exact_without_warning(self):
        # a = 0.375 + 2^-20 makes a*a, -2a and 1 exact doubles, so p = (x - a)^2
        # exactly and its one root comes back as a itself
        a = 0.375 + 2.0**-20
        p = (a * a, -2.0 * a, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isolate_real_roots(p, 0.0, 1.0) == [a]

    def test_close_roots_stay_apart(self):
        # roots 0.3 and 0.3000001, 1e-7 apart; rounding the coefficients moves
        # each by about 2e-10
        r, s = 0.3, 0.3000001
        roots = isolate_real_roots((r * s, -(r + s), 1.0), 0.0, 1.0)
        assert roots == pytest.approx([r, s], abs=1e-9)

    def test_near_double_root_count_follows_discriminant(self):
        # the coefficients of (x - c)^2 round, so the double root splits or
        # vanishes; the exact discriminant of the rounded coefficients decides
        c = 0.5 + 1e-7
        coeffs = (c * c, -2.0 * c, 1.0)
        c0, c1, c2 = (Fraction(v) for v in coeffs)
        disc = c1 * c1 - 4 * c2 * c0
        expected = 2 if disc > 0 else 1 if disc == 0 else 0
        assert expected == 2
        roots = isolate_real_roots(coeffs, 0.0, 1.0)
        assert len(roots) == expected
        assert roots == pytest.approx([c, c], abs=1e-7)

    def test_roots_at_both_ends_reported_once(self):
        # (x + 1)(x - 2)(x - 1/2) on [-1, 2]
        p = (1.0, -1.5, -1.5, 1.0)
        assert isolate_real_roots(p, -1.0, 2.0) == [-1.0, 0.5, 2.0]
        assert isolate_real_roots(p, -1.0, 0.0) == [-1.0]
        assert isolate_real_roots(p, 1.0, 2.0) == [2.0]

    def test_root_at_lo_with_positive_right_side(self):
        # x - x^2 is 0 at lo and positive just right of it
        assert isolate_real_roots((0.0, 1.0, -1.0), 0.0, 3.0) == [0.0, 1.0]
        assert isolate_real_roots((0.0, -1.0, 1.0), 0.0, 3.0) == [0.0, 1.0]

    def test_root_at_a_split_point(self):
        # +-(x^3 - x) on [-3, 3]: the first split lands on the root 0, which
        # then becomes the left end of the interval holding 1
        for sign in (1.0, -1.0):
            p = (0.0, -sign, 0.0, sign)
            assert isolate_real_roots(p, -3.0, 3.0) == [-1.0, 0.0, 1.0]

    @staticmethod
    def _dyadic_product(seed):
        # a product of (x - k/4) with |k| <= 32 and multiplicities 1-3: at most
        # 45 significant bits per coefficient, so every coefficient is an exact
        # double; returns it with its distinct roots
        rng = random.Random(seed)
        distinct = sorted({Fraction(rng.randint(-32, 32), 4) for _ in range(rng.randint(1, 3))})
        coeffs = [Fraction(1)]
        for root in distinct:
            for _ in range(rng.randint(1, 3)):
                coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
        assert all(Fraction(float(c)) == c for c in coeffs)
        return tuple(float(c) for c in coeffs), distinct

    @pytest.mark.parametrize("seed", range(8))
    def test_dyadic_products_give_their_distinct_roots(self, seed):
        # the distinct roots come back exactly from an interval that is not
        # aligned with the quarter grid
        p, distinct = self._dyadic_product(seed)
        assert isolate_real_roots(p, -9.7, 9.9) == [float(r) for r in distinct]

    def test_dyadic_products_on_the_quarter_grid(self):
        # on [-8, 8] and [0, 8] the ends and every split point lie on the
        # quarter grid, so roots at ends and at split points are common
        for seed in range(200):
            p, distinct = self._dyadic_product(seed)
            for lo, hi in ((-8.0, 8.0), (0.0, 8.0)):
                expected = [float(r) for r in distinct if lo <= r <= hi]
                assert isolate_real_roots(p, lo, hi) == expected, (seed, lo, hi)

    def test_root_on_a_rounding_tie(self):
        # 8x - 3 * 2^-1072 has its root at 1.5 * 2^-1074, halfway between two
        # subnormals: it rounds to the even one, 2^-1073
        p = (-3.0 * 2.0**-1072, 8.0)
        assert isolate_real_roots(p, -1.0, 2.0) == [2.0**-1073]

    @pytest.mark.parametrize("coefficients", [(), [], (0.0,), (0, 0.0, 0), [0.0, -0.0]])
    def test_zero_polynomial_rejected(self, coefficients):
        with pytest.raises(ValueError, match="zero polynomial"):
            isolate_real_roots(coefficients, -1.0, 1.0)

    @pytest.mark.parametrize("coefficients", [
        (-1.0, 0.0, 1.0), [-1.0, 0.0, 1.0], (-1, 0, 1), [-1, 0.0, 1], (-1.0, 0, 1.0, 0.0, 0),
        (np.float64(-1.0), np.int64(0), 1.0),
    ])
    def test_sequences_of_ints_and_floats(self, coefficients):
        # x^2 - 1 in every form, trailing zeros trimmed
        assert isolate_real_roots(coefficients, -2.0, 2.0) == [-1.0, 1.0]

    def test_trailing_zeros_trimmed(self):
        # zero x^2 and x^3 terms: 1 + 2x is linear, and 3 a nonzero constant
        assert isolate_real_roots((1.0, 2.0, 0.0, 0), -1.0, 1.0) == [-0.5]
        assert isolate_real_roots((3.0, 0.0, 0.0), -1.0, 1.0) == []

    def test_ints_past_the_double_range(self):
        # exact coefficients need no float: 10**400 x - 10**400 has its root at 1
        assert isolate_real_roots((-(10**400), 10**400), 0.0, 2.0) == [1.0]

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 2.0), (-2.0, np.inf), (np.nan, 2.0)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            isolate_real_roots((-1.0, 0.0, 1.0), lo, hi)

    @pytest.mark.parametrize("coefficients", [(np.inf, 1.0), [1.0, -np.inf], (1.0, np.nan), [np.float64(np.nan)]])
    def test_non_finite_coefficient_rejected(self, coefficients):
        with pytest.raises(ValueError, match="finite"):
            isolate_real_roots(coefficients, -1.0, 1.0)

    def test_nonzero_constant_has_no_roots(self):
        assert isolate_real_roots((3.0, 0.0), -1.0, 1.0) == []

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            isolate_real_roots((1.0, 1.0), 2.0, -2.0)

    def test_root_at_grid_point(self):
        # linear root exactly at the interval midpoint, hit by the scan grid
        p = (0.0, 1.0)
        roots = isolate_real_roots(p, -1.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-12)


def fraction_value(f: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def sign(v) -> int:
    return (v > 0) - (v < 0)


finite = st.floats(allow_nan=False, allow_infinity=False)
# p / 2**e: every point the isolation evaluates is such a dyadic rational
dyadic = st.builds(lambda p, e: Fraction(p, 2**e), st.integers(-(2**80), 2**80), st.integers(0, 1100))


class TestIntegerSigns:
    """The sign decided in integers is the sign of the exact Fraction value."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=9), dyadic)
    def test_random_polynomials(self, coefficients, x):
        f = [Fraction(c) for c in coefficients]
        assert polyroots._sign(polyroots._integer(f), x) == sign(fraction_value(f, x))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(range(len(SCALED_BRACKET_PARTS))), dyadic)
    def test_scaled_bracket_parts(self, index, x):
        f = [Fraction(c) for c in SCALED_BRACKET_PARTS[index]]
        assert polyroots._sign(polyroots._integer(f), x) == sign(fraction_value(f, x))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(range(len(SCALED_BRACKET_PARTS))), dyadic)
    def test_sturm_chain_members(self, index, x):
        # the members the counts evaluate have non-dyadic coefficients
        f = [Fraction(c) for c in SCALED_BRACKET_PARTS[index]]
        for g in polyroots._sturm(f):
            assert polyroots._sign(polyroots._integer(g), x) == sign(fraction_value(g, x))

    def test_zero_at_an_exact_root(self):
        f = [Fraction(-1, 4), Fraction(0), Fraction(1)]  # x^2 - 1/4
        assert polyroots._sign(polyroots._integer(f), Fraction(1, 2)) == 0
        assert polyroots._sign(polyroots._integer(f), Fraction(-1, 2)) == 0
