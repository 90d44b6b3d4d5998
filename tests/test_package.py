"""The package's public surface: the names `harmsect` exports."""

import harmsect

PUBLIC_NAMES = [
    "CLAIMS",
    "ClaimReport",
    "EmpiricalScan",
    "ExtremalCoefficients",
    "FamilyClass",
    "HarmonicPolynomial",
    "KernelScan",
    "NoBracketError",
    "ProbeGrid",
    "RadiusResult",
    "RealPolynomial",
    "TailClass",
    "UnknownClaimError",
    "close_to_convex_radius",
    "distortion_floor_convex",
    "distortion_floor_general",
    "divided_difference",
    "empirical_scan",
    "evaluate",
    "isolate_real_roots",
    "jacobian",
    "kernel",
    "kernel_min_modulus",
    "log_offset_convex",
    "log_offset_general",
    "lower_bound_convex",
    "lower_bound_general",
    "margin_convex",
    "margin_general",
    "section",
    "slope_bracket_general",
    "slope_bracket_scaled",
    "slope_prefactor_general",
    "solve_radius",
    "tail_cube",
    "tail_linear",
    "tail_ratio_convex",
    "tail_ratio_general",
    "tail_square",
    "tail_weighted",
    "threshold_order",
    "verify_all",
    "verify_claim",
]


class TestPublicSurface:
    def test_exported_names_are_pinned(self):
        # one name per quantity; the cross-check forms live in tests/oracles.py
        assert len(PUBLIC_NAMES) == 43
        assert sorted(harmsect.__all__) == PUBLIC_NAMES

    def test_every_exported_name_resolves(self):
        for name in harmsect.__all__:
            assert getattr(harmsect, name) is not None, name
