"""Margin functions, the certified root solver, and the asymptotic bounds."""

import math
import warnings

import numpy as np
import pytest

from harmsect.radius import (
    FamilyClass,
    RadiusResult,
    close_to_convex_radius,
    distortion_floor_convex,
    distortion_floor_general,
    log_offset_convex,
    log_offset_general,
    lower_bound_convex,
    lower_bound_general,
    margin_convex,
    margin_convex_diag,
    margin_convex_poly,
    margin_general,
    margin_general_diag,
    solve_radius,
    threshold_order,
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
        assert distortion_floor_general(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_general_at_half(self):
        # u = 1/3: (1/6) (1/27) (1 - 3^-6)
        exact = (1.0 / 6.0) * (1.0 / 27.0) * (1.0 - 1.0 / 729.0)
        assert distortion_floor_general(0.5) == pytest.approx(exact, rel=1e-14)
        assert exact == pytest.approx(0.00616437, abs=5e-9)

    def test_general_to_one(self):
        assert distortion_floor_general(1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_convex_values(self):
        assert distortion_floor_convex(1e-9) == pytest.approx(1.0, abs=1e-6)
        assert distortion_floor_convex(0.5) == pytest.approx(0.5 / 3.375, rel=1e-14)
        assert distortion_floor_convex(1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("fn", [distortion_floor_general, distortion_floor_convex])
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

    def test_convex_sign_scan_around_half(self):
        # dense sign scan of the convex margin: the equal-order root crosses
        # 1/2 between n = 11 and n = 12
        assert margin_convex(11, 11, 0.5) < 0 < margin_convex(12, 12, 0.5)

    def test_convex_diag_positive_at_lower_bound(self):
        n = 7
        r = 1.0 - log_offset_convex(n) / n
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

    def test_domain(self):
        with pytest.raises(ValueError):
            margin_convex_poly(5, 1.0)
        with pytest.raises(ValueError):
            margin_convex_poly(5, -0.1)


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
        assert res.lower_bound == pytest.approx(lower_bound_general(15), rel=1e-15)

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

    def test_single_sign_change_on_scan(self):
        # sampled uniqueness check: no multiple-sign-change warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in FamilyClass:
                for n, m in [(2, 2), (50, 50), (300, 300), (17, 260)]:
                    solve_radius(family, n, m)


class TestBounds:
    def test_general_value(self):
        expected = 1.0 - (7 * math.log(15) - 4 * math.log(math.log(15))) / 15
        assert lower_bound_general(15) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.0019, abs=5e-5)

    def test_general_domain(self):
        with pytest.raises(ValueError):
            lower_bound_general(14)

    def test_general_large_n(self):
        assert lower_bound_general(10**6) > 0.9999

    def test_general_monotone(self):
        ns = [15, 16, 20, 40, 100, 1_000, 10_000, 100_000]
        vals = [lower_bound_general(n) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_convex_values(self):
        assert lower_bound_convex(7) > 0
        assert lower_bound_convex(10**6) > 0.9999
        with pytest.raises(ValueError):
            lower_bound_convex(6)

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

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5, -0.25])
    def test_target_guard(self, target):
        with pytest.raises(ValueError):
            threshold_order(FamilyClass.GENERAL, target)


class TestTypes:
    def test_radius_result_is_frozen(self):
        res = RadiusResult(0.5, 0.4999, 0.5001, 0.0, 10, None)
        with pytest.raises(Exception):
            res.radius = 0.6
