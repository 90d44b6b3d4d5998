"""Sections, kernel/divided-difference identities, and empirical radius scans."""

import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest

from harmsect import harmonic
from harmsect.harmonic import (
    EmpiricalScan,
    HarmonicPolynomial,
    KernelScan,
    ProbeGrid,
    divided_difference,
    empirical_scan,
    evaluate,
    extremal_map,
    jacobian,
    kernel,
    kernel_min_modulus,
    section,
)
from harmsect.radius import (
    FamilyClass,
    distortion_floor,
    solve_radius,
)
from oracles import (
    atan2_windings,
    disk_jacobian_min,
    disk_points,
    record_tail,
    tolist_divided_difference,
    tolist_evaluate,
    tolist_jacobian,
    tolist_kernel,
)

GENERAL = extremal_map(FamilyClass.GENERAL)
CONVEX = extremal_map(FamilyClass.CONVEX)
IDENTITY = HarmonicPolynomial(a=[1.0], b=[0.0])


def exponential_section(lam, degree=30):
    """Section of (e^(lam z) - 1)/lam, which is univalent exactly in |z| < pi/lam:
    it sends the two ends of a vertical chord of length 2 pi/lam to one point."""
    a = [lam ** (k - 1) / math.factorial(k) for k in range(1, degree + 1)]
    return HarmonicPolynomial(a=a, b=[0.0])


def critical_point_at(w):
    """f(z) = z - z^2/(2w): h' = 1 - z/w and J = |1 - z/w|^2 vanish only at
    w, and K(z, 0) = z h'(z), so f is locally univalent exactly in |z| < |w|."""
    return HarmonicPolynomial(a=[1.0, -0.5 / w], b=[0.0])


def zero_between_the_samples():
    """critical_point_at(w) with w just outside the circle |z| = 1/2, and
    midway between two of its samples at every angle count up to 64 x 1024,
    so each count there has a step near pi."""
    return critical_point_at(0.5 * (1.0 + 1e-9) * cmath.exp(1j * math.pi / 16384))


def sin_ratio(ks, t):
    """sin(kt)/sin(t) by the direct formula, k exactly at t = 0."""
    return ks.astype(float) if t == 0.0 else np.sin(ks * t) / math.sin(t)


def power_sum_kernel(p, z, t):
    """sum_k (a_k z^k - conj(b_k z^k)) sin(kt)/sin(t) from a table of the powers
    z^k, one matrix product over k: the oracle for kernel."""
    ks = np.arange(1, p.degree + 1, dtype=float)
    a = np.zeros(ks.size, dtype=complex)
    a[: p.a.size] = p.a
    b = np.zeros(ks.size, dtype=complex)
    b[: p.b.size] = p.b
    zk = np.asarray(z, dtype=complex)[..., None] ** ks
    return ((a * zk) - np.conj(b * zk)) @ sin_ratio(ks, t)


def random_polynomial(rng, n=None, m=None):
    n = n or int(rng.integers(2, 12))
    m = m or int(rng.integers(2, 12))
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / 2.0
    b = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 2.0
    a[0] = 1.0
    b[0] = 0.0
    return HarmonicPolynomial(a=a, b=b)


def derivative_parts(p):
    """The coefficients k a_k and k b_k of h' and g', in powers z^(k-1)."""
    return np.arange(1, p.a.size + 1) * p.a, np.arange(1, p.b.size + 1) * p.b


class TestSection:
    def test_general_extremal_orders_two(self):
        p = section(GENERAL, 2, 2)
        assert np.allclose(p.a, [1.0, 2.5])
        assert np.allclose(p.b, [0.0, 0.5])

    def test_convex_extremal_orders_three(self):
        p = section(CONVEX, 3, 3)
        assert np.allclose(p.a, [1.0, 1.5, 2.0])
        assert np.allclose(p.b, [0.0, 0.5, 1.0])

    def test_identity_source(self):
        p = section(IDENTITY, 4, 3)
        assert np.allclose(p.a, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(p.b, [0.0, 0.0, 0.0])

    def test_truncating_a_polynomial(self):
        p = section(GENERAL, 6, 6)
        q = section(p, 3, 2)
        assert np.allclose(q.a, p.a[:3])
        assert np.allclose(q.b, p.b[:2])

    def test_order_guard(self):
        with pytest.raises(ValueError):
            section(GENERAL, 0, 2)

    @pytest.mark.parametrize("source", [GENERAL, IDENTITY], ids=["extremal", "polynomial"])
    @pytest.mark.parametrize("n,m", [(2.5, 2), (2, 2.5), (3.0, 3), ("3", 3)])
    def test_non_integral_orders_rejected(self, source, n, m):
        # an extremal source once gave a degree-3 section at n = 2.5, and a
        # polynomial source raised TypeError
        with pytest.raises(ValueError, match="section orders must be integers"):
            section(source, n, m)

    @pytest.mark.parametrize("source", [GENERAL, IDENTITY], ids=["extremal", "polynomial"])
    @pytest.mark.parametrize("n,m", [(10**10, 2), (2, 1001), (10**400, 10**400)])
    def test_orders_above_the_bound_rejected(self, monkeypatch, source, n, m):
        # rejected before any array is made: no numpy allocation may run
        def refuse(*args, **kwargs):
            raise AssertionError("section allocated an array")

        for name in ("zeros", "arange"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ValueError, match=r"section orders must lie in 1\.\.1000"):
            section(source, n, m)

    def test_largest_order_accepted(self):
        p = section(GENERAL, 1000, np.int64(1000))
        assert p.a.size == p.b.size == 1000

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match=r"^normalization requires a_1 = 1, got \(2\+0j\)$"):
            HarmonicPolynomial(a=np.array([2.0 + 0j]), b=np.array([0j]))
        with pytest.raises(ValueError, match=r"^normalization requires b_1 = 0, got \(0\.5\+0j\)$"):
            HarmonicPolynomial(a=np.array([1.0 + 0j]), b=np.array([0.5 + 0j]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_analytic_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="part a .* a_2"):
            HarmonicPolynomial(a=[1.0, bad], b=[0.0, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 1.0)])
    def test_non_finite_co_analytic_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="part b .* b_3"):
            HarmonicPolynomial(a=[1.0, 0.2], b=[0.0, 0.1, bad])

    @pytest.mark.parametrize(
        "a,b,part",
        [([[1, 2]], [0], "a"), ([1.0], [[0.0, 0.5]], "b"), ([[1.0], [2.0]], [[0.0]], "a")],
        ids=["a-row", "b-row", "both"],
    )
    def test_two_dimensional_coefficients_rejected(self, a, b, part):
        # a 2-D part once reached the normalization check, where numpy
        # raised "the truth value of an array ... is ambiguous"
        with pytest.raises(ValueError, match=f"part {part} needs one-dimensional coefficients"):
            HarmonicPolynomial(a=a, b=b)

    @pytest.mark.parametrize("a,b", [([], [0.0]), ([1.0], [])], ids=["a", "b"])
    def test_empty_part_rejected(self, a, b):
        with pytest.raises(ValueError, match="^need at least one coefficient in each part$"):
            HarmonicPolynomial(a=a, b=b)


class TestEvaluate:
    def test_identity(self):
        p = section(IDENTITY, 1, 1)
        z = 0.3 + 0.4j
        assert evaluate(p, z) == pytest.approx(z)

    def test_real_axis_with_co_analytic(self):
        p = HarmonicPolynomial(a=np.array([1.0 + 0j]), b=np.array([0.0, 0.5]))
        r = 0.37
        assert evaluate(p, r) == pytest.approx(r + 0.5 * r**2)

    def test_general_section_at_real_point(self):
        p = section(GENERAL, 2, 2)
        # 0.1 + 2.5*0.01 + conj(0.5*0.01)
        assert evaluate(p, 0.1) == pytest.approx(0.13)

    def test_array_input(self):
        p = section(GENERAL, 3, 3)
        zs = np.array([0.1, 0.1j, -0.2 + 0.05j])
        vals = evaluate(p, zs)
        assert vals.shape == zs.shape
        assert vals[0] == pytest.approx(evaluate(p, 0.1))


class TestJacobian:
    def test_identity(self):
        p = section(IDENTITY, 1, 1)
        for z in (0.0, 0.3 + 0.4j, -0.9j):
            assert jacobian(p, z) == pytest.approx(1.0)

    def test_at_origin(self):
        p = HarmonicPolynomial(a=np.array([1.0 + 0j]), b=np.array([0.0, 0.5]))
        assert jacobian(p, 0.0) == pytest.approx(1.0)

    def test_known_vanishing_point(self):
        # h' = 1 + 5z, g' = z for the order-2 general extremal section:
        # the jacobian first vanishes on the negative real axis at r = 1/6
        p = section(GENERAL, 2, 2)
        assert jacobian(p, -1.0 / 6.0) == pytest.approx(0.0, abs=1e-14)
        assert jacobian(p, -1.0 / 6.0 + 1e-3) > 0

    @pytest.mark.parametrize(
        "family,n", [(FamilyClass.GENERAL, 2), (FamilyClass.GENERAL, 8), (FamilyClass.CONVEX, 6)]
    )
    def test_positive_inside_certified_radius(self, family, n):
        certified = solve_radius(family, n, n).radius
        p = section(extremal_map(family), n, n)
        grid = ProbeGrid(radius=0.95 * certified)
        assert disk_jacobian_min(p, grid) > 0
        assert harmonic._jacobian_min(p, grid) > 0


class TestKernel:
    def test_identity_is_z(self):
        p = section(IDENTITY, 1, 1)
        for t in (0.0, 0.3, math.pi / 2):
            for z in (0.5, 0.1 - 0.6j):
                assert kernel(p, z, t) == pytest.approx(z)

    def test_t_zero_extension(self):
        rng = np.random.default_rng(42)
        p = random_polynomial(rng)
        z = 0.4 - 0.2j
        ks = np.arange(1, p.a.size + 1)
        kb = np.arange(1, p.b.size + 1)
        expected = np.sum(ks * p.a * z**ks) - np.conj(np.sum(kb * p.b * z**kb))
        assert kernel(p, z, 0.0) == pytest.approx(expected)

    def test_second_order_terms_drop_at_right_endpoint(self):
        # sin(2t)/sin(t) vanishes at t = pi/2
        p = section(GENERAL, 2, 2)
        z = 0.3 + 0.1j
        assert kernel(p, z, math.pi / 2) == pytest.approx(z)

    @pytest.mark.parametrize("t", [0.0, 0.7, math.pi / 2], ids=["zero", "interior", "half-pi"])
    def test_matches_the_power_sum(self, t):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_polynomial(rng)
            zs = rng.uniform(0.0, 0.95, 16) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 16))
            want = power_sum_kernel(p, zs, t)
            got = kernel(p, zs, t)
            assert got.shape == zs.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            for z, w in zip(zs[:4], want[:4]):
                value = kernel(p, complex(z), t)
                assert isinstance(value, complex)
                assert value == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("t", [np.array([0.1, 0.2]), [0.3], np.full((1, 1), 0.3)],
                             ids=["array", "list", "two-d"])
    def test_non_scalar_t_rejected(self, t):
        with pytest.raises(ValueError, match=r"t must be one number in \[0, pi/2\], got shape"):
            kernel(section(GENERAL, 3, 3), 0.3, t)

    @pytest.mark.parametrize("t", [np.array(0.5), np.float64(0.5)], ids=["zero-d", "float64"])
    def test_one_numpy_t_accepted(self, t):
        p = section(GENERAL, 3, 3)
        value = kernel(p, 0.3 + 0.1j, t)
        assert type(value) is complex
        assert hexes(value) == hexes(kernel(p, 0.3 + 0.1j, 0.5))

    def test_domain_guards(self):
        p = section(IDENTITY, 1, 1)
        with pytest.raises(ValueError):
            kernel(p, 0.5, -0.1)
        with pytest.raises(ValueError):
            kernel(p, 0.5, 2.0)
        with pytest.raises(ValueError):
            kernel(p, 1.2, 0.3)

    @pytest.mark.parametrize(
        "z",
        [math.nan, complex(0.1, math.nan), np.array([0.1, math.nan])],
        ids=["nan", "nan-imag", "array"],
    )
    def test_nan_rejected(self, z):
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            kernel(section(GENERAL, 3, 3), z, 0.3)


class TestDividedDifferenceIdentity:
    def test_kernel_is_z_times_divided_difference(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = random_polynomial(rng)
            for _ in range(25):
                r = rng.uniform(0.05, 0.95)
                psi = rng.uniform(0.0, 2.0 * math.pi)
                t = rng.uniform(1e-6, math.pi / 2)
                eta = psi + 2.0 * t
                z = r * math.e ** (1j * (eta + psi) / 2.0)
                dd = divided_difference(p, r, eta, psi)
                kv = kernel(p, z, t)
                assert abs(kv - z * dd) <= 1e-10 * (1.0 + abs(kv))

    def test_analytic_reduction(self):
        # with b = 0 the kernel over z reproduces the analytic
        # divided-difference criterion
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 2.0
            a[0] = 1.0
            p = HarmonicPolynomial(a=a, b=np.zeros(1, dtype=complex))
            for _ in range(10):
                r = rng.uniform(0.05, 0.95)
                psi = rng.uniform(0.0, 2.0 * math.pi)
                t = rng.uniform(1e-6, math.pi / 2)
                eta = psi + 2.0 * t
                z = r * math.e ** (1j * (eta + psi) / 2.0)
                dd = divided_difference(p, r, eta, psi)
                kv = kernel(p, z, t)
                assert abs(kv - z * dd) <= 1e-10 * (1.0 + abs(kv))

    def test_coincident_points_rejected(self):
        p = section(GENERAL, 2, 2)
        with pytest.raises(ValueError):
            divided_difference(p, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize(
        "r,eta,psi",
        [(math.nan, 1.0, 2.0), (0.5, math.nan, 2.0), (0.5, 1.0, math.nan)],
        ids=["r", "eta", "psi"],
    )
    def test_nan_rejected(self, r, eta, psi):
        with pytest.raises(ValueError, match="distinct and finite"):
            divided_difference(section(GENERAL, 3, 3), r, eta, psi)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+inf", "-inf"])
    @pytest.mark.parametrize("arg", ["r", "eta", "psi", "eta-array", "psi-array"])
    def test_infinite_rejected(self, arg, sign):
        # inf once reached the chord: a RuntimeWarning from inf * 0 or
        # e^(i inf), then nan+nanj (hypot(inf, nan) = inf passed the check)
        args = {"r": 0.5, "eta": 1.0, "psi": 2.0}
        name, _, shape = arg.partition("-")
        args[name] = np.array([args[name], sign * math.inf]) if shape else sign * math.inf
        with pytest.raises(ValueError, match="distinct and finite"):
            divided_difference(section(GENERAL, 3, 3), **args)

    @pytest.mark.parametrize("r", [0.05, 0.1])
    def test_two_point_floor_for_large_section(self, r):
        # sampled chords of the order-60 general extremal section stay above
        # the family floor once the (astronomically small) tail correction
        # is taken out
        p = section(GENERAL, 60, 60)
        etas = np.linspace(0.0, 2.0 * math.pi, 121)
        psis = np.linspace(0.0, 2.0 * math.pi, 121)
        eta_grid, psi_grid = np.meshgrid(etas, psis)
        mask = np.abs(np.exp(1j * eta_grid) - np.exp(1j * psi_grid)) > 1e-9
        dd = np.abs(divided_difference(p, r, eta_grid[mask], psi_grid[mask]))
        floor = distortion_floor(FamilyClass.GENERAL, r)
        tails = record_tail((FamilyClass.GENERAL, "analytic"), 60, r) + record_tail(
            (FamilyClass.GENERAL, "co_analytic"), 60, r
        )
        eps_tail = tails / floor
        assert dd.min() >= floor * (1.0 - eps_tail)


def hexes(value):
    """The bits of a complex or real value, as float.hex of each part."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def numpy_scalar_horner(coeffs, z):
    """Horner's rule on numpy complex scalars, whose product is the textbook
    (ac - bd) + (ad + bc)i, rounded once per operation, as Python's is."""
    values = []
    for part in coeffs:
        acc = np.complex128(0.0)
        for c in part[::-1]:
            acc = acc * z + c
        values.append(acc)
    return values


def table_ratios(degree, t):
    """The row of _ratio_table at t: sin(kt)/sin(t) by numpy's sin."""
    return harmonic._ratio_table(np.arange(1, degree + 1, dtype=float), np.array([t]))[:, 0]


def math_ratios(degree, t):
    """The same row by math.sin, whose bits numpy's sin need not share."""
    sin_t = math.sin(t)
    ks = range(1, degree + 1)
    return np.array([math.sin(k * t) / sin_t if sin_t != 0.0 else float(k) for k in ks])


def ratio_table_kernel(p, z, ratio):
    """The kernel with its coefficients weighted by the row `ratio`, as arrays,
    and evaluated on numpy scalars: the form the scalar kernel replaced, which
    took `ratio` from _ratio_table."""
    z = np.complex128(z)
    h, g = numpy_scalar_horner((p.a * ratio[: p.a.size], -p.b * ratio[: p.b.size]), z)
    return z * h + np.conj(z * g)


def numpy_scalar_evaluate(p, z):
    z = np.complex128(z)
    h, g = numpy_scalar_horner((p.a, p.b), z)
    return z * h + np.conj(z * g)


def numpy_scalar_jacobian(p, z):
    derivatives = (np.arange(1, p.a.size + 1) * p.a, np.arange(1, p.b.size + 1) * p.b)
    hp, gp = numpy_scalar_horner(derivatives, np.complex128(z))
    return abs(hp) ** 2 - abs(gp) ** 2


def scalar_cases():
    """Seeded polynomials of degree 1 to 30, each with three points in the disk
    and its t values 0, pi/2 and one seeded in between."""
    rng = np.random.default_rng(20261019)
    for degree in range(1, 31):
        for _ in range(3):
            other = int(rng.integers(1, degree + 1))
            n, m = (degree, other) if rng.integers(2) else (other, degree)
            p = random_polynomial(rng, n, m)
            zs = rng.uniform(0.0, 0.95, 3) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
            ts = (0.0, math.pi / 2, float(rng.uniform(0.0, math.pi / 2)))
            yield p, [complex(z) for z in zs], ts


class TestScalarPath:
    """One point runs on Python numbers: the same bits as the numpy-scalar forms."""

    def test_kernel_matches_the_ratio_table_form(self):
        # bit for bit on the ratios of math.sin, which the kernel uses; numpy's
        # sin is also within about an ulp of sin(kt), but a SIMD build of it
        # need not give math.sin's bits, so the _ratio_table row and the
        # kernel it gives agree to rounding
        eps = np.finfo(float).eps
        for p, zs, ts in scalar_cases():
            for t in ts:
                ratio, table = math_ratios(p.degree, t), table_ratios(p.degree, t)
                # an ulp or two of sin(kt), divided by sin t
                per_unit = 1.0 / math.sin(t) if t else 0.0
                assert np.all(np.abs(table - ratio) <= 4 * eps * (np.abs(ratio) + per_unit))
                scale = sum(np.sum(np.abs(c) * (np.abs(ratio[: c.size]) + per_unit))
                            for c in (p.a, p.b))
                for z in zs:
                    value = kernel(p, z, t)
                    assert hexes(value) == hexes(ratio_table_kernel(p, z, ratio)), (p.degree, z, t)
                    assert hexes(kernel(p, np.complex128(z), np.float64(t))) == hexes(value)
                    assert abs(value - ratio_table_kernel(p, z, table)) <= 1e-13 * scale

    def test_evaluate_and_jacobian_match_the_numpy_scalar_forms(self):
        for p, zs, _ in scalar_cases():
            for z in zs:
                assert hexes(evaluate(p, z)) == hexes(numpy_scalar_evaluate(p, z)), (p.degree, z)
                assert jacobian(p, z).hex() == float(numpy_scalar_jacobian(p, z)).hex()

    def test_one_point_and_a_one_element_array_agree(self):
        # to rounding only: numpy's vectorized complex product and modulus
        # round differently from Python's (see the module docstring)
        for p, zs, ts in scalar_cases():
            # |h'|^2 + |g'|^2 on the unit disk is at most this
            da, db = derivative_parts(p)
            scale = np.sum(np.abs(da)) ** 2 + np.sum(np.abs(db)) ** 2
            for z in zs:
                for t in ts:
                    assert kernel(p, z, t) == pytest.approx(kernel(p, np.array([z]), t)[0], rel=1e-13)
                assert evaluate(p, z) == pytest.approx(evaluate(p, np.array([z]))[0], rel=1e-13)
                assert abs(jacobian(p, z) - jacobian(p, np.array([z]))[0]) <= 1e-14 * scale

    def test_divided_difference_agrees_with_the_array_path(self):
        # real scalars form the endpoints with cmath.exp, then take evaluate's
        # quotient; numpy's exp is also within about an ulp of e^(i eta), but
        # need not give cmath's bits, so the array path agrees to rounding
        eps = np.finfo(float).eps
        rng = np.random.default_rng(20261020)
        for p, _, _ in scalar_cases():
            r = float(rng.uniform(0.05, 0.95))
            eta, psi = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
            value = divided_difference(p, r, eta, psi)
            w1, w2 = r * cmath.exp(1j * eta), r * cmath.exp(1j * psi)
            assert hexes(value) == hexes((evaluate(p, w1) - evaluate(p, w2)) / (w1 - w2))
            z1, z2 = r * np.exp(1j * np.array([eta])), r * np.exp(1j * np.array([psi]))
            assert abs(w1 - z1[0]) <= 4 * eps * r and abs(w2 - z2[0]) <= 4 * eps * r
            array = divided_difference(p, r, np.array([eta]), np.array([psi]))[0]
            # the two evaluations round apart by about 1e-16 of |f| each, and
            # the difference of f cancels down to about |dz| |value|; moving an
            # endpoint by an ulp moves f by at most sum k (|a_k| + |b_k|) ulps
            dz = abs(w1 - w2)
            spread = (abs(evaluate(p, w1)) + abs(evaluate(p, w2))) / dz
            lipschitz = sum(np.sum(np.abs(part)) for part in derivative_parts(p))
            assert abs(value - array) <= 1e-14 * (spread + (lipschitz + abs(value)) * r / dz)


class TestReturnTypes:
    P = section(GENERAL, 4, 3)

    @pytest.mark.parametrize(
        "z",
        [0.3 + 0.4j, 0.5, 0, np.float64(0.5), np.complex128(0.3 - 0.4j), np.float32(0.25)],
        ids=["complex", "float", "int", "float64", "complex128", "float32"],
    )
    def test_one_point_gives_scalars(self, z):
        # evaluate's last step is numpy's conj, so one point of f is a
        # numpy.complex128, which subclasses complex
        assert type(evaluate(self.P, z)) is np.complex128
        assert type(kernel(self.P, z, 0.7)) is complex
        assert type(jacobian(self.P, z)) is float
        assert hexes(evaluate(self.P, z)) == hexes(evaluate(self.P, complex(z)))

    @pytest.mark.parametrize("zs", [[0.1, 0.2j], np.array([0.3 + 0.1j]), np.array(0.4)],
                             ids=["list", "one-element", "zero-d"])
    def test_points_give_arrays(self, zs):
        for value in (evaluate(self.P, zs), kernel(self.P, zs, 0.7), jacobian(self.P, zs)):
            assert np.shape(value) == np.shape(zs)
            # a 0-d array gives a numpy scalar, as it always has
            assert isinstance(value, np.ndarray if np.ndim(zs) else np.generic)

    @pytest.mark.parametrize("cast", [float, np.float64], ids=["float", "float64"])
    def test_divided_difference_of_real_scalars_is_a_complex_scalar(self, cast):
        # a quotient of two values of evaluate, so numpy.complex128 as well
        value = divided_difference(self.P, cast(0.5), cast(1.0), cast(2.0))
        assert type(value) is np.complex128
        assert value == divided_difference(self.P, 0.5, 1, 2)

    def test_divided_difference_of_arrays_is_an_array(self):
        value = divided_difference(self.P, 0.5, np.array([1.0, 1.5]), np.array([2.0, 0.0]))
        assert isinstance(value, np.ndarray) and value.shape == (2,)
        assert value[0] == pytest.approx(divided_difference(self.P, 0.5, 1.0, 2.0), rel=1e-14)


class TestModuleGlobals:
    """The chord quotient calls evaluate through the module global, so a
    function bound in its place sees every evaluation."""

    @pytest.mark.parametrize("eta", [1.0, np.array([1.0, 1.5])], ids=["scalar", "array"])
    def test_divided_difference_calls_evaluate(self, monkeypatch, eta):
        calls = []
        original = harmonic.evaluate

        def spy(p, z):
            calls.append(z)
            return original(p, z)

        monkeypatch.setattr(harmonic, "evaluate", spy)
        divided_difference(section(GENERAL, 3, 3), 0.5, eta, 2.0)
        assert len(calls) == 2


def oracle_cases():
    """Seeded polynomials of degree 1 to 40 and the degree-1000 extremal
    sections, each with the points 0, real and numpy scalars and three
    seeded points in the disk, and the t values 0, pi/2, a numpy scalar and
    one seeded in between."""
    rng = np.random.default_rng(20261021)
    polys = []
    for degree in range(1, 41):
        other = int(rng.integers(1, degree + 1))
        n, m = (degree, other) if rng.integers(2) else (other, degree)
        polys.append(random_polynomial(rng, n, m))
    polys += [section(GENERAL, 1000, 1000), section(CONVEX, 1000, 1000)]
    fixed = [0, 0.0, 0j, -0.0, 0.5, -0.25, np.float64(0.3), np.float32(0.25), np.int64(0),
             np.complex128(0.3 - 0.4j)]
    for p in polys:
        zs = rng.uniform(0.0, 0.95, 3) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
        ts = (0, 0.0, math.pi / 2, np.float64(0.7), float(rng.uniform(0.0, math.pi / 2)))
        yield p, fixed + [complex(z) for z in zs], ts


class TestScalarOracle:
    """The scalar calls give the bits of the forms that turned the coefficient
    arrays into lists on every call (tests/oracles.py)."""

    def test_evaluate_jacobian_and_kernel(self):
        for p, zs, ts in oracle_cases():
            for z in zs:
                value, want = evaluate(p, z), tolist_evaluate(p, z)
                assert type(value) is type(want) and hexes(value) == hexes(want), (p.degree, z)
                value, want = jacobian(p, z), tolist_jacobian(p, z)
                assert type(value) is type(want) and value.hex() == want.hex(), (p.degree, z)
                for t in ts:
                    value, want = kernel(p, z, t), tolist_kernel(p, z, t)
                    assert type(value) is complex and hexes(value) == hexes(want), (p.degree, z, t)

    def test_divided_difference(self):
        rng = np.random.default_rng(20261022)
        for p, _, _ in oracle_cases():
            r = float(rng.uniform(0.05, 0.95))
            eta, psi = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
            for args in ((r, eta, psi), (np.float64(r), np.float64(eta), psi), (r, 0, math.pi)):
                value, want = divided_difference(p, *args), tolist_divided_difference(p, *args)
                assert type(value) is type(want) and hexes(value) == hexes(want), (p.degree, args)


class TestScalarLists:
    """Each polynomial forms its coefficient lists once, on its first Horner evaluation."""

    def test_formed_once_and_equal_to_the_arrays(self):
        p = random_polynomial(np.random.default_rng(7), 7, 5)
        assert "_lists" not in vars(p)
        evaluate(p, 0.3 + 0.1j)
        lists = vars(p)["_lists"]
        assert lists == (p.a.tolist(), p.b.tolist(), *(part.tolist() for part in derivative_parts(p)))
        assert all(type(part) is list for part in lists)
        parts = list(lists)
        jacobian(p, 0.2)
        kernel(p, 0.1j, 0.4)
        divided_difference(p, 0.5, 1.0, 2.0)
        evaluate(p, np.float64(0.5))
        evaluate(p, np.array([0.1, 0.2j]))
        jacobian(p, np.array(0.3))
        harmonic._jacobian_min(p, ProbeGrid(radius=0.4))
        assert p._lists is lists
        assert all(new is old for new, old in zip(p._lists, parts))

    @pytest.mark.parametrize("call", ["jacobian", "kernel"])
    def test_any_scalar_call_forms_them(self, call):
        p = section(GENERAL, 4, 3)
        getattr(harmonic, call)(p, 0.25, *([0.3] if call == "kernel" else []))
        assert "_lists" in vars(p)

    def test_array_only_users_never_form_them(self):
        # section and the kernel pass read the coefficient arrays; every
        # Horner evaluation, at a point or on an array, forms the lists
        p = section(GENERAL, 10, 10)
        kernel_min_modulus(p, ProbeGrid(radius=0.4))
        for q in [p, section(p, 5, 5), *(extremal_map(family) for family in FamilyClass)]:
            assert "_lists" not in vars(q)

    @pytest.mark.parametrize("call", ["evaluate-point", "evaluate-array", "jacobian-point",
                                      "jacobian-array", "kernel-point", "kernel-array",
                                      "empirical_scan"])
    def test_every_horner_call_reads_lists(self, monkeypatch, call):
        parts = []
        original = harmonic._horner

        def spy(coeffs, z):
            parts.extend(coeffs)
            return original(coeffs, z)

        monkeypatch.setattr(harmonic, "_horner", spy)
        p = section(GENERAL, 5, 4)
        name, _, form = call.partition("-")
        z = {"point": 0.3 + 0.1j, "array": np.array([0.3 + 0.1j, -0.2j])}.get(form)
        if name == "empirical_scan":
            empirical_scan(p, ProbeGrid(angular_points=8, t_points=8))
        else:
            getattr(harmonic, name)(p, z, *([0.7] if name == "kernel" else []))
        assert parts and all(type(part) is list for part in parts)


class TestOwnedCoefficients:
    """A polynomial copies its coefficients and keeps them read-only."""

    @pytest.mark.parametrize("formed", [False, True], ids=["lists-unformed", "lists-formed"])
    def test_caller_mutation_does_not_reach_the_polynomial(self, formed):
        a, b = np.array([1, 0.5], dtype=complex), np.array([0, 0.1], dtype=complex)
        p = HarmonicPolynomial(a=a, b=b)
        z = 0.3 + 0.1j
        if formed:
            evaluate(p, z)
        a[1] = 0.0
        b[1] = 0.0
        assert p.a is not a and p.b is not b
        assert a.flags.writeable and b.flags.writeable
        fresh = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        # |1 + z|^2 - |0.2 z|^2, the b_2 and a_2 the polynomial was given
        assert jacobian(p, z) == pytest.approx(1.696, rel=1e-14)
        assert jacobian(p, z).hex() == jacobian(fresh, z).hex()
        assert hexes(evaluate(p, z)) == hexes(evaluate(fresh, z))
        assert hexes(kernel(p, z, 0.7)) == hexes(kernel(fresh, z, 0.7))
        assert np.array_equal(evaluate(p, np.array([z])), evaluate(fresh, np.array([z])))

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_coefficients_are_read_only(self, name):
        p = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        z = 0.3 + 0.1j
        before = (evaluate(p, z), jacobian(p, z))
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[1] = 0.0
        assert (evaluate(p, z), jacobian(p, z)) == before


class TestIdentity:
    """A map equals and hashes as itself only, whatever its coefficients."""

    def test_equality_is_identity(self):
        p = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        q = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        assert p == p and not p != p
        assert p != q and not p == q
        assert (p == q) is False

    def test_hash_is_identity(self):
        p = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        q = HarmonicPolynomial(a=[1, 0.5], b=[0, 0.1])
        assert hash(p) == hash(p) == object.__hash__(p)
        assert len({p, q, p}) == 2

    def test_a_map_keys_a_cache(self):
        calls = []

        @functools.cache
        def degree_of(p):
            calls.append(p)
            return p.degree

        p = section(extremal_map(FamilyClass.GENERAL), 5, 3)
        assert degree_of(p) == degree_of(p) == 5
        assert calls == [p]


class TestProbeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeGrid(radial_points=4)
        with pytest.raises(ValueError):
            ProbeGrid(radius=1.0)
        with pytest.raises(ValueError):
            ProbeGrid(radius=0.0)
        # a fractional count was accepted and failed later: radial_points=8.5
        # as a TypeError in the disk grid, angular_points=8.5 as an IndexError
        # in kernel_min_modulus
        for name in ("radial_points", "angular_points", "t_points"):
            for count in (8.5, 16.0, "16"):
                with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                    ProbeGrid(**{name: count})

    def test_scaled(self):
        grid = ProbeGrid().scaled(2)
        assert grid.radial_points == 128
        assert grid.angular_points == 512
        assert grid.t_points == 256
        with pytest.raises(ValueError):
            ProbeGrid().scaled(0)
        # scaled(1.5) once gave 12.0-point grids
        for factor in (1.5, 2.0):
            with pytest.raises(ValueError, match="^grid scale must be an integer"):
                ProbeGrid().scaled(factor)


class TestKernelScan:
    def test_identity_min_is_smallest_radius(self):
        # K(z, t) = z, so |K| is the radius all round the circle
        scan = kernel_min_modulus(section(IDENTITY, 1, 1), ProbeGrid(radius=0.9))
        assert scan.min_modulus == pytest.approx(0.9, rel=1e-12)
        assert abs(scan.argmin_z) == pytest.approx(0.9, rel=1e-12)
        assert scan.winding == 1

    def test_inside_certified_radius(self):
        p = section(GENERAL, 2, 2)
        scan = kernel_min_modulus(p, ProbeGrid(radius=0.9 * 0.108193))
        assert scan.min_modulus > 1e-3

    def test_near_violation_far_outside(self):
        # sections are not univalent in the full disk: at radius 0.999 the
        # grid passes close to a kernel zero
        p = section(GENERAL, 2, 2)
        scan = kernel_min_modulus(p, ProbeGrid(radius=0.999))
        assert scan.winding != 1

    @pytest.mark.parametrize(
        "p,r,winding",
        [
            # K(z, 0) = z (1 + 2z): a second zero at z = -1/2
            (HarmonicPolynomial(a=[1.0, 1.0], b=[0.0]), 0.6, 2),
            (HarmonicPolynomial(a=[1.0, 1.0], b=[0.0]), 0.4, 1),
            # K(z, 0) = z + 5z^2 - conj(z^2) vanishes at z = -1/4, sense-preserving
            (section(GENERAL, 2, 2), 0.26, 2),
            (section(GENERAL, 2, 2), 0.24, 1),
        ],
        ids=["z-plus-z2-outside", "z-plus-z2-inside", "general-2-outside", "general-2-inside"],
    )
    def test_winding_counts_the_zeros_inside(self, p, r, winding):
        scan = kernel_min_modulus(p, ProbeGrid(radius=r))
        assert scan.winding == winding
        assert scan.min_modulus > 0.0

    def test_guard_failure_counts_zero(self):
        # no refinement brings the arg step next to the zero below pi/2
        scan = kernel_min_modulus(zero_between_the_samples(), ProbeGrid(radius=0.5))
        assert scan.winding == 0
        # |K| at the sample next to the zero, angle 0: about r pi/16384
        assert scan.min_modulus == pytest.approx(0.5 * math.pi / 16384, rel=1e-3)
        assert scan.argmin_t == 0.0

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_minimum_matches_the_pointwise_kernel(self, seed):
        p = seeded_polynomial(seed)
        grid = ProbeGrid(angular_points=32, t_points=16, radius=0.35)
        scan = kernel_min_modulus(p, grid)
        assert abs(scan.argmin_z) == pytest.approx(grid.radius, rel=1e-12)
        assert scan.argmin_t in grid.t_values()
        pointwise = abs(kernel(p, scan.argmin_z, scan.argmin_t))
        assert scan.min_modulus == pytest.approx(pointwise, rel=1e-10, abs=1e-15)
        # the first pass's circle samples, from the scalar kernel: a refined
        # count adds samples, so the scan's minimum can only be lower
        thetas = 2.0 * np.pi * np.arange(4 * grid.angular_points) / (4 * grid.angular_points)
        zs = grid.radius * np.exp(1j * thetas)
        brute = min(np.abs(kernel(p, zs, float(t))).min() for t in grid.t_values())
        assert scan.min_modulus <= brute * (1.0 + 1e-10)

    def test_winding_matches_root_count_for_analytic_maps(self):
        # for b = 0, K(., t) is a polynomial in z, and its winding number on the
        # circle is its number of roots in the disk
        rng = np.random.default_rng(5)
        grid = ProbeGrid(angular_points=64, t_points=8)
        ts = grid.t_values()
        ks = np.arange(1, 9)
        seen = set()
        for _ in range(40):
            a = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 2.0
            a[0] = 1.0
            r = float(rng.uniform(0.2, 0.9))
            ratios = np.stack([sin_ratio(ks, float(t)) for t in ts])
            # roots of K(z, t)/z, highest power first
            moduli = [np.abs(np.roots((a * row)[::-1])) for row in ratios]
            if any(np.any(np.abs(m - r) < 1e-2) for m in moduli):
                continue
            counts = [1 + int(np.sum(m < r)) for m in moduli]
            expected = next((c for c in counts if c != 1), 1)
            p = HarmonicPolynomial(a=a, b=[0.0])
            scan = kernel_min_modulus(p, dataclasses.replace(grid, radius=r))
            assert scan.winding == expected, (a, r, counts)
            seen.add(expected)
        assert {1, 2} <= seen and len(seen) >= 3

    @pytest.mark.parametrize(
        "p,r",
        [(section(GENERAL, 10, 10), 0.9), (zero_between_the_samples(), 0.5)],
        ids=["general-10", "refined-to-64x"],
    )
    @pytest.mark.parametrize("block", [1, 5, 128])
    def test_block_size_does_not_change_the_scan(self, p, r, block, monkeypatch):
        # a one-row block is a matrix-vector product, which may round differently
        grid = ProbeGrid(radius=r)
        blocked = kernel_min_modulus(p, grid)
        monkeypatch.setattr(harmonic, "_T_BLOCK", block)
        scan = kernel_min_modulus(p, grid)
        assert (scan.winding, scan.argmin_z, scan.argmin_t) == (
            blocked.winding, blocked.argmin_z, blocked.argmin_t
        )
        assert scan.min_modulus == pytest.approx(blocked.min_modulus, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("part", ["a", "b"])
    def test_degree_above_the_bound_rejected(self, part):
        # the pass once padded through section, whose error named orders the
        # caller never passed: "section orders must lie in 1..1000, got (1001, 1001)"
        coeffs = {"a": [1.0], "b": [0.0]}
        coeffs[part] = coeffs[part] + [0.0] * 1000
        p = HarmonicPolynomial(**coeffs)
        match = r"^the kernel pass takes degrees up to 1000, got 1001$"
        with pytest.raises(ValueError, match=match):
            kernel_min_modulus(p, ProbeGrid())
        with pytest.raises(ValueError, match=match):
            empirical_scan(p, ProbeGrid())

    def test_unequal_parts_are_padded_without_a_section(self, monkeypatch):
        # a (order 3) is zero-padded to the degree 5 with no section built, and
        # the scan equals the one of the equal-order section
        p = section(GENERAL, 3, 5)
        padded = section(p, 5, 5)

        def refuse(*args):
            raise AssertionError("kernel_min_modulus built a section")

        monkeypatch.setattr(harmonic, "section", refuse)
        grid = ProbeGrid(radius=0.3)
        assert kernel_min_modulus(p, grid) == kernel_min_modulus(padded, grid)

    def test_ratio_table_matches_the_scalar_ratio(self):
        ks = np.arange(1, 31, dtype=float)
        ts = ProbeGrid().t_values()
        table = harmonic._ratio_table(ks, ts)
        assert table.shape == (ks.size, ts.size)
        assert np.array_equal(table[:, 0], ks)
        for j, t in enumerate(ts):
            scalar = sin_ratio(ks, float(t))
            assert np.allclose(table[:, j], scalar, rtol=1e-13, atol=1e-13)


class TestEmpiricalRadius:
    def test_identity_reaches_the_rim(self):
        value = empirical_scan(section(IDENTITY, 1, 1), ProbeGrid()).radius
        assert value == pytest.approx(1.0, abs=2e-3)

    def test_general_order_two(self):
        p = section(GENERAL, 2, 2)
        scan = empirical_scan(p, ProbeGrid())
        # the jacobian zero at r = 1/6 binds before the kernel zero at 1/4
        assert scan.binding == "jacobian"
        assert scan.radius == pytest.approx(1.0 / 6.0, abs=5e-3)
        assert scan.radius >= 0.108193 - 1e-3

    @pytest.mark.parametrize(
        "family,n",
        [(FamilyClass.GENERAL, 5), (FamilyClass.CONVEX, 5)],
    )
    def test_dominates_certified_radius(self, family, n):
        certified = solve_radius(family, n, n).radius
        p = section(extremal_map(family), n, n)
        assert empirical_scan(p, ProbeGrid()).radius >= certified - 1e-3

    @pytest.mark.parametrize("lam", [4.0, 3.6])
    def test_exponential_map_binds_on_the_kernel(self, lam):
        # locally univalent everywhere (the Jacobian is |e^(lam z)|^2), so only
        # the kernel's winding can find the radius pi/lam
        scan = empirical_scan(exponential_section(lam), ProbeGrid())
        assert scan.binding == "kernel"
        assert scan.radius == pytest.approx(math.pi / lam, abs=2e-3)
        assert scan.radius <= math.pi / lam
        assert scan.witness.winding == 1
        assert scan.min_jacobian > 0.0

    def test_guard_failure_fails_the_step(self):
        # the first bisection step, r = 1/2, cannot guard its count (see
        # TestKernelScan::test_guard_failure_counts_zero), so the radius stays
        # below 1/2.  With b = 0, K(z, 0) = z h'(z), so the Jacobian pass meets
        # the same unguarded count in h' first, and it binds
        scan = empirical_scan(zero_between_the_samples(), ProbeGrid())
        assert scan.binding == "jacobian"
        assert scan.radius == 0.5 - 2.0**-10
        assert scan.witness.winding == 1

    def test_convex_dominates_close_to_convex_radius(self):
        from harmsect.radius import close_to_convex_radius

        p = section(CONVEX, 5, 5)
        assert empirical_scan(p, ProbeGrid()).radius >= close_to_convex_radius(5) - 1e-3


class TestJacobianOnTheCircle:
    def test_disk_points_exclude_origin(self):
        grid = ProbeGrid(radial_points=8, angular_points=8, t_points=8, radius=0.5)
        zs = disk_points(grid)
        assert zs.size == 64
        assert np.min(np.abs(zs)) > 0

    def test_a_critical_point_between_the_disk_samples_binds(self):
        # J vanishes only at z = rho, which lies on none of the disk grid's
        # 64 circles: the disk grid passes r just above rho, where only the
        # winding of h' fails it
        rho = 0.6123
        p = critical_point_at(rho)
        scan = empirical_scan(p, ProbeGrid())
        assert scan.binding == "jacobian"
        assert scan.radius <= rho
        assert scan.radius == 0.611328125
        above = ProbeGrid(radius=0.6123046875)
        assert disk_jacobian_min(p, above) > 0.0
        assert harmonic._jacobian_min(p, above) <= 0.0

    def test_convex_three_binds_below_the_disk_grid(self):
        # at r = 0.326171875 the disk grid's 256 angles call J clean, but J < 0
        # on the circle between them (about -2.05e-5 at 200 001 angles)
        p = section(CONVEX, 3, 3)
        at = ProbeGrid(radius=0.326171875)
        assert disk_jacobian_min(p, at) > 0.0
        assert harmonic._jacobian_min(p, at) <= 0.0
        scan = empirical_scan(p, ProbeGrid())
        assert scan.radius == 0.3251953125
        assert scan.binding == "jacobian"

    def test_the_winding_of_h_prime_catches_what_the_circle_misses(self):
        # general (2, 2): J = |1 + 5z|^2 - |z|^2 >= 2 on |z| = 1/2, but h'
        # vanishes at -1/5 inside, where J = -1/25
        p = section(GENERAL, 2, 2)
        zs = 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        assert jacobian(p, zs).min() > 1.99
        assert harmonic._jacobian_min(p, ProbeGrid(radius=0.5)) <= 0.0

    def test_unguarded_count_fails(self):
        # h' = 1 - z/w vanishes 2.5e-10 outside |z| = 1/2, and no refinement
        # brings the arg step next to it below pi/2, although J > 0 there
        p = zero_between_the_samples()
        assert disk_jacobian_min(p, ProbeGrid(radius=0.5)) > 0.0
        assert harmonic._jacobian_min(p, ProbeGrid(radius=0.5)) == 0.0
        assert harmonic._jacobian_min(p, ProbeGrid(radius=0.499)) > 0.0

    def test_dense_disk_grid_finds_no_failure_the_circle_passes(self):
        # wherever a 128 x 512 disk grid samples J <= 0, the circle test fails
        rng = np.random.default_rng(8)
        cases = [section(GENERAL, n, n) for n in (2, 5, 10)]
        cases += [section(CONVEX, n, n) for n in (5, 10, 17)]
        cases += [random_polynomial(rng, n=10, m=10) for _ in range(12)]
        seen = {True: 0, False: 0}
        for p in cases:
            for r in np.linspace(0.1, 0.9, 9):
                dense = ProbeGrid(radial_points=128, angular_points=512, radius=float(r))
                disk_fails = disk_jacobian_min(p, dense) <= 0.0
                if disk_fails:
                    assert harmonic._jacobian_min(p, ProbeGrid(radius=float(r))) <= 0.0, (p, r)
                seen[disk_fails] += 1
        assert seen[True] >= 50 and seen[False] >= 30


def reference_scan(p, grid):
    """The scan loop with a kernel pass at every bisection step and a separate
    witness pass at the returned radius: the oracle for empirical_scan."""
    lo, hi = 0.0, 1.0
    binding = None
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        probe = dataclasses.replace(grid, radius=mid)
        jac_min = harmonic._jacobian_min(p, probe)
        kern = harmonic.kernel_min_modulus(p, probe)
        if jac_min > 0.0 and kern.min_modulus > 0.0 and kern.winding == 1:
            lo = mid
        else:
            hi = mid
            binding = "jacobian" if jac_min <= 0.0 else "kernel"
    at = dataclasses.replace(grid, radius=lo if lo > 0.0 else 1e-6)
    return EmpiricalScan(
        radius=lo,
        binding=binding,
        witness=harmonic.kernel_min_modulus(p, at),
        min_jacobian=harmonic._jacobian_min(p, at),
    )


def seeded_polynomial(seed):
    return random_polynomial(np.random.default_rng(seed), n=10, m=10)


EQUIVALENCE_CASES = {
    "identity-1-1": lambda: section(IDENTITY, 1, 1),
    "general-2": lambda: section(GENERAL, 2, 2),
    "general-10": lambda: section(GENERAL, 10, 10),
    "convex-5": lambda: section(CONVEX, 5, 5),
    "exponential-4": lambda: exponential_section(4.0),
    "random-10-seed-3": lambda: seeded_polynomial(3),
    "random-10-seed-11": lambda: seeded_polynomial(11),
}


class CallLog:
    """Counts the kernel and Jacobian passes an empirical scan makes."""

    def __init__(self, monkeypatch, kernel=harmonic.kernel_min_modulus):
        self.kernel_radii = []
        self.jacobian_mins = []
        jacobian_min = harmonic._jacobian_min

        def kernel_spy(p, grid):
            self.kernel_radii.append(grid.radius)
            return kernel(p, grid)

        def jacobian_spy(p, grid):
            value = jacobian_min(p, grid)
            self.jacobian_mins.append(value)
            return value

        monkeypatch.setattr(harmonic, "kernel_min_modulus", kernel_spy)
        monkeypatch.setattr(harmonic, "_jacobian_min", jacobian_spy)


BISECTION_STEPS = 10  # halving [0, 1] to width <= 1e-3


class TestEmpiricalScanEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_matches_kernel_pass_every_step(self, name):
        p = EQUIVALENCE_CASES[name]()
        grid = ProbeGrid()
        expected = reference_scan(p, grid)
        got = empirical_scan(p, grid)
        assert got.radius == expected.radius
        assert got.binding == expected.binding
        assert got.witness == expected.witness
        assert got.min_jacobian == expected.min_jacobian


class TestEmpiricalScanPasses:
    @pytest.mark.parametrize("name", ["identity-1-1", "general-2", "random-10-seed-3"])
    def test_kernel_runs_only_where_jacobian_passes(self, name, monkeypatch):
        log = CallLog(monkeypatch)
        scan = empirical_scan(EQUIVALENCE_CASES[name](), ProbeGrid())
        assert scan.radius > 0.0
        assert len(log.jacobian_mins) == BISECTION_STEPS
        assert len(log.kernel_radii) == sum(v > 0.0 for v in log.jacobian_mins)
        # no witness pass: the last kernel pass at the returned radius is reused
        assert max(log.kernel_radii) == scan.radius

    def test_witness_pass_when_no_step_passes(self, monkeypatch):
        # |g'| = 2000 r exceeds |h'| = 1 for r > 5e-4, below every bisection
        # midpoint, so the Jacobian fails at all ten steps
        p = HarmonicPolynomial(a=[1.0], b=[0.0, 1000.0])
        log = CallLog(monkeypatch)
        scan = empirical_scan(p, ProbeGrid())
        assert scan.radius == 0.0
        assert scan.binding == "jacobian"
        assert len(log.jacobian_mins) == BISECTION_STEPS + 1
        assert log.kernel_radii == [1e-6]
        assert scan.witness == harmonic.kernel_min_modulus(p, ProbeGrid(radius=1e-6))
        assert scan.min_jacobian == log.jacobian_mins[-1] > 0.0


class TestKernelBinding:
    CUTOFF = 0.3

    @classmethod
    def vanishing_kernel(cls, p, grid):
        if grid.radius > cls.CUTOFF:
            return KernelScan(min_modulus=0.0, argmin_z=grid.radius + 0j, argmin_t=0.0)
        return kernel_min_modulus(p, grid)

    @pytest.mark.parametrize("name", ["identity-1-1", "convex-5"])
    def test_kernel_binds_and_witness_is_last_passing_step(self, name, monkeypatch):
        p = EQUIVALENCE_CASES[name]()
        grid = ProbeGrid()
        log = CallLog(monkeypatch, kernel=self.vanishing_kernel)
        scan = empirical_scan(p, grid)
        assert scan.binding == "kernel"
        assert self.CUTOFF - 1e-3 < scan.radius <= self.CUTOFF
        assert len(log.kernel_radii) == sum(v > 0.0 for v in log.jacobian_mins)
        last_pass = max(r for r in log.kernel_radii if r <= self.CUTOFF)
        assert last_pass == scan.radius
        at = dataclasses.replace(grid, radius=scan.radius)
        assert scan.witness == kernel_min_modulus(p, at)
        assert scan.min_jacobian == harmonic._jacobian_min(p, at)
        assert scan == reference_scan(p, grid)


def trig_curves(rng, n_theta, rows=16):
    """Seeded closed curves e^(iw theta) (1 + c e^(i(k theta + phi))) + s at
    n_theta angles, with w from -3 to 3 and |c| + |s| < 1, so each winds w
    times around 0.  Samples near an axis are moved onto it, with a +0.0 or
    -0.0 part at random, and some rows get an exact zero sample."""
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    curves = []
    for _ in range(rows):
        w, k = int(rng.integers(-3, 4)), int(rng.integers(-4, 5))
        c = float(rng.uniform(0.0, 0.5)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * np.pi)))
        s = float(rng.uniform(0.0, 0.3)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * np.pi)))
        v = np.exp(1j * w * thetas) * (1.0 + c * np.exp(1j * k * thetas)) + s
        re, im = v.real.copy(), v.imag.copy()
        zeros = np.where(rng.random(n_theta) < 0.5, 0.0, -0.0)
        near_re, near_im = np.abs(re) < 0.05, np.abs(im) < 0.05
        re[near_re], im[near_im] = zeros[near_re], zeros[near_im]
        v = re + 1j * im
        if rng.random() < 0.15:
            v[int(rng.integers(n_theta))] = complex(*zeros[:2])
        curves.append(v)
    return np.array(curves)


CRITERION_8 = {
    f"{name}-{n}": (lambda p=p, n=n: section(p, n, n))
    for name, p in (("general", GENERAL), ("convex", CONVEX))
    for n in ((2, 5, 10) if p is GENERAL else (5, 10, 17))
}
RADII = [k / 10 for k in range(1, 10)]


class TestWindings:
    def test_sign_tests_match_the_arg_sum(self):
        # the guard flags agree exactly, and so do the counts of guarded rows
        rng = np.random.default_rng(22)
        counts, unguarded, on_negative_axis = set(), 0, {0.0: 0, -0.0: 0}
        for n_theta in (8, 16, 64, 256) * 6:
            vals = trig_curves(rng, n_theta)
            expected_guard, expected = atan2_windings(vals)
            guarded, turns = harmonic._windings(vals)
            assert np.array_equal(guarded, expected_guard)
            assert np.array_equal(turns[guarded], expected[guarded])
            # one row alone, as h' is counted
            for row, flag, count in zip(vals, expected_guard, expected):
                row_guarded, row_turns = harmonic._windings(row)
                assert row_guarded == flag
                assert not flag or row_turns == count
            counts.update(int(c) for c in expected[expected_guard])
            unguarded += int((~expected_guard).sum())
            for row in vals[expected_guard]:
                axis = row[(row.imag == 0.0) & (row.real < 0.0)].imag
                on_negative_axis[0.0] += int(np.signbit(axis).sum() < axis.size)
                on_negative_axis[-0.0] += int(np.signbit(axis).any())
        assert counts == set(range(-3, 4))
        assert unguarded >= 50
        assert min(on_negative_axis.values()) >= 10, on_negative_axis

    def test_exact_zero_sample_is_unguarded(self):
        vals = np.exp(2j * np.pi * np.arange(64) / 64)
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            vals[5] = zero
            assert not atan2_windings(vals)[0]
            assert not harmonic._windings(vals)[0]

    def test_crossings_in_both_directions(self):
        # once round anticlockwise and once clockwise, starting on the negative axis
        thetas = np.pi + 2.0 * np.pi * np.arange(32) / 32
        for sign, winding in ((1, 1), (-1, -1)):
            vals = np.exp(sign * 1j * thetas)
            vals[0] = complex(-1.0, 0.0)
            guarded, turns = harmonic._windings(np.stack([vals, vals**2, vals**3]))
            assert guarded.all()
            assert turns.tolist() == [winding, 2 * winding, 3 * winding]

    @staticmethod
    def assert_matches_the_arg_sum(vals):
        """_windings on vals, on each row alone and on each row as a one-row
        block, with and without a product buffer, against the arg sum."""
        expected_guard, expected = atan2_windings(vals)
        for prod in (None, np.full((*vals.shape[:-1], 2 * vals.shape[-1]), np.nan)):
            guarded, turns = harmonic._windings(vals, prod)
            assert np.array_equal(guarded, expected_guard)
            assert np.array_equal(turns[guarded], expected[guarded])
        for row, flag, count in zip(vals, expected_guard, expected):
            for shaped in (row, row[None, :]):
                row_guarded, row_turns = harmonic._windings(shaped)
                assert np.shape(row_guarded) == np.shape(row_turns) == shaped.shape[:-1]
                assert row_guarded == flag
                assert not flag or row_turns == count
        return expected_guard, expected

    @pytest.mark.parametrize("n_theta", [8, 16, 64, 256, 1024])
    def test_sign_codes_match_the_arg_sum(self, n_theta):
        rng = np.random.default_rng(3000 + n_theta)
        counts, signed_zeros = set(), set()
        for _ in range(6):
            vals = trig_curves(rng, n_theta, rows=24)
            # re + 1j * im gives every zero imaginary part as +0.0: sign them at random
            on_axis = vals.imag == 0.0
            vals.imag[on_axis] = np.where(rng.random(int(on_axis.sum())) < 0.5, 0.0, -0.0)
            guarded, expected = self.assert_matches_the_arg_sum(vals)
            counts.update(int(c) for c in expected[guarded])
            re, im = vals[guarded].real, vals[guarded].imag
            signed_zeros.update(("imaginary axis", bool(s)) for s in np.signbit(re[re == 0.0]))
            signed_zeros.update(("negative real axis", bool(s))
                                for s in np.signbit(im[(im == 0.0) & (re < 0.0)]))
        # a step below pi/2 allows |winding| < n_theta / 4
        assert counts == set(range(-min(3, n_theta // 4 - 1), min(3, n_theta // 4 - 1) + 1))
        if n_theta >= 16:
            assert len(signed_zeros) == 4  # +0.0 and -0.0 on both

    @pytest.mark.parametrize("n_theta", [8, 16, 64, 256, 1024])
    def test_crossing_on_the_wrap_step(self, n_theta):
        # the last sample sits just above the negative real axis and the
        # first just below it, so the one crossing is the step that wraps
        step = 2.0 * np.pi / n_theta
        thetas = np.pi + 0.25 * step + step * np.arange(n_theta)
        for sign in (1, -1):
            vals = np.exp(sign * 1j * thetas)
            assert vals[-1].real < 0.0 and vals[0].real < 0.0
            assert np.signbit(vals[-1].imag) != np.signbit(vals[0].imag)
            # every other step that changes the sign of im has re > 0
            im_changes = np.signbit(vals[1:].imag) != np.signbit(vals[:-1].imag)
            assert (vals[:-1].real[im_changes] > 0.0).all()
            guarded, turns = self.assert_matches_the_arg_sum(vals[None, :])
            assert guarded.all() and turns.tolist() == [sign]
            assert harmonic._windings(vals)[1] == sign


class TestWindingPasses:
    """Both circle passes give bit for bit what they gave with the arg-sum count."""

    CASES = {**EQUIVALENCE_CASES, **CRITERION_8, "refined-to-64x": zero_between_the_samples}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_passes_match_the_arg_sum_count(self, name, monkeypatch):
        p = self.CASES[name]()
        grids = [ProbeGrid(radius=r) for r in RADII]
        got = [(kernel_min_modulus(p, g), harmonic._jacobian_min(p, g)) for g in grids]
        monkeypatch.setattr(harmonic, "_windings", lambda vals, prod=None: atan2_windings(vals))
        expected = [(kernel_min_modulus(p, g), harmonic._jacobian_min(p, g)) for g in grids]
        assert got == expected
        if name == "refined-to-64x":
            # the count at r = 0.5 stays unguarded up to 64 x the angles
            assert got[RADII.index(0.5)][0].winding == 0


class TestPassWorkspace:
    """Each level of a kernel pass writes its t blocks into one workspace,
    and a block shorter than _T_BLOCK reads the first rows of it."""

    CASES = {
        # refined levels of 4, 3, 3 and 2 t values, each one block
        "refined-to-64x": (zero_between_the_samples, ProbeGrid(radius=0.5)),
        # a first level of 16 + 4 t values, then 1 t value up to 64 x
        "refined-to-64x-20-t": (zero_between_the_samples, ProbeGrid(t_points=20, radius=0.5)),
        # 16 + 4 t values at every level up to 16 x
        "general-10-20-t": (lambda: section(GENERAL, 10, 10),
                            ProbeGrid(angular_points=8, t_points=20, radius=0.9)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_short_blocks_read_the_level_workspace(self, name, monkeypatch):
        make, grid = self.CASES[name]
        p = make()
        expected = kernel_min_modulus(p, grid)
        calls = []
        original = harmonic._windings

        def spy(vals, prod=None):
            guarded, turns = original(vals, prod)
            # the block's flags and counts, checked before the next block
            # writes over the workspace
            expected_guard, expected_turns = atan2_windings(vals)
            assert np.array_equal(guarded, expected_guard)
            assert np.array_equal(turns[guarded], expected_turns[guarded])
            calls.append((vals.shape, vals.ctypes.data, prod.shape, prod.ctypes.data,
                          np.shares_memory(vals, prod)))
            return guarded, turns

        monkeypatch.setattr(harmonic, "_windings", spy)
        assert kernel_min_modulus(p, grid) == expected
        starts = {}
        short_refined = 0
        for (rows, n_theta), vals_at, prod_shape, prod_at, shared in calls:
            assert prod_shape == (rows, 2 * n_theta) and not shared
            # every block of a level starts at the level's workspace
            assert starts.setdefault(n_theta, (vals_at, prod_at)) == (vals_at, prod_at)
            short_refined += rows < harmonic._T_BLOCK and n_theta > harmonic._levels(grid)[0]
        assert len(starts) >= 3 and short_refined >= 1
        # with each level in one block, no block is a slice: the same scan
        monkeypatch.setattr(harmonic, "_windings", original)
        monkeypatch.setattr(harmonic, "_T_BLOCK", 128)
        single = kernel_min_modulus(p, grid)
        assert (single.winding, single.argmin_z, single.argmin_t) == (
            expected.winding, expected.argmin_z, expected.argmin_t
        )
        assert single.min_modulus == pytest.approx(expected.min_modulus, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("rows, n_theta", [(16, 1024), (4, 2048), (1, 36), (3, 100)])
    def test_level_workspace_starts_each_buffer_on_a_page(self, rows, n_theta):
        for _ in range(10):
            vals, mod, prod = harmonic._level_workspace(rows, n_theta)
            assert (vals.dtype, mod.dtype, prod.dtype) == (complex, float, float)
            assert vals.shape == mod.shape == (rows, n_theta) and prod.shape == (rows, 2 * n_theta)
            for buffer in (vals, mod, prod):
                assert buffer.ctypes.data % 4096 == 0
                assert buffer.flags.c_contiguous and buffer.flags.writeable
            assert not np.shares_memory(vals, mod)
            assert not np.shares_memory(mod, prod) and not np.shares_memory(vals, prod)


class TestPassTables:
    """The radius-independent tables of the kernel pass, built once per scan."""

    KEY = (10, ProbeGrid().t_points, 4 * ProbeGrid().angular_points)

    def test_cold_and_warm_passes_agree(self):
        p = section(GENERAL, 10, 10)
        grid = ProbeGrid(radius=0.4)
        harmonic._PASS_TABLES.clear()
        cold = kernel_min_modulus(p, grid)
        assert list(harmonic._PASS_TABLES) == [self.KEY]
        tables = harmonic._PASS_TABLES[self.KEY]
        assert kernel_min_modulus(p, grid) == cold
        # a pass at another radius reads the same tables
        warm = kernel_min_modulus(p, dataclasses.replace(grid, radius=0.3))
        assert harmonic._PASS_TABLES[self.KEY] is tables
        harmonic._PASS_TABLES.clear()
        assert kernel_min_modulus(p, dataclasses.replace(grid, radius=0.3)) == warm

    def test_tables_are_read_only(self):
        kernel_min_modulus(section(CONVEX, 5, 5), ProbeGrid(radius=0.3))
        (tables,) = harmonic._PASS_TABLES.values()
        assert len(tables) == 5
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1.0

    def test_only_the_first_level_is_kept(self):
        # the refined pass builds up to 64 x the angles, and keeps 4 x
        grid = ProbeGrid(radius=0.5)
        assert kernel_min_modulus(zero_between_the_samples(), grid).winding == 0
        (tables,) = harmonic._PASS_TABLES.values()
        thetas, e = tables[3:]
        assert thetas.shape == (4 * grid.angular_points,)
        assert e.shape == (2, 4 * grid.angular_points)

    @pytest.mark.parametrize(
        "p,grid",
        [
            (section(GENERAL, 5, 5), ProbeGrid(radius=0.3)),
            (section(GENERAL, 10, 10), ProbeGrid(angular_points=128, radius=0.3)),
            (section(GENERAL, 10, 10), ProbeGrid(t_points=64, radius=0.3)),
            (section(GENERAL, 10, 10), ProbeGrid(radius=0.3).scaled(2)),
        ],
        ids=["degree", "angles", "t-points", "scale-2"],
    )
    def test_pass_after_a_scan_equals_a_fresh_one(self, p, grid):
        empirical_scan(section(GENERAL, 10, 10), ProbeGrid())
        after = kernel_min_modulus(p, grid)
        assert len(harmonic._PASS_TABLES) == 1
        harmonic._PASS_TABLES.clear()
        assert kernel_min_modulus(p, grid) == after
