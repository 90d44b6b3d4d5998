"""Sections, kernel/divided-difference identities, and empirical radius scans."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from harmsect import harmonic
from harmsect.harmonic import (
    EmpiricalScan,
    ExtremalCoefficients,
    HarmonicPolynomial,
    KernelScan,
    ProbeGrid,
    divided_difference,
    empirical_scan,
    evaluate,
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
from oracles import disk_jacobian_min, disk_points, record_tail

GENERAL = ExtremalCoefficients(FamilyClass.GENERAL)
CONVEX = ExtremalCoefficients(FamilyClass.CONVEX)
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
        with pytest.raises(ValueError):
            HarmonicPolynomial(a=np.array([2.0 + 0j]), b=np.array([0j]))
        with pytest.raises(ValueError):
            HarmonicPolynomial(a=np.array([1.0 + 0j]), b=np.array([0.5 + 0j]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_analytic_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="part a .* a_2"):
            HarmonicPolynomial(a=[1.0, bad], b=[0.0, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 1.0)])
    def test_non_finite_co_analytic_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="part b .* b_3"):
            HarmonicPolynomial(a=[1.0, 0.2], b=[0.0, 0.1, bad])


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
        p = section(ExtremalCoefficients(family), n, n)
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
        p = section(ExtremalCoefficients(family), n, n)
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
