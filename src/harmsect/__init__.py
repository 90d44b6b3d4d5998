"""Univalence radii of sections of planar harmonic mappings.

Certified root solving for the family margin functions, exact power-series
tail sums, finite-range verification of the asymptotic-bound claims, and
empirical kernel/Jacobian grid scans of extremal polynomial sections.
"""

from .claims import (
    CLAIMS,
    ClaimReport,
    UnknownClaimError,
    tail_ratio,
    verify_all,
    verify_claim,
)
from .harmonic import (
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
from .polyroots import isolate_real_roots
from .radius import (
    FamilyClass,
    RadiusResult,
    close_to_convex_radius,
    distortion_floor,
    log_offset,
    lower_bound,
    margin_convex,
    margin_general,
    solve_radius,
    threshold_order,
)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "ClaimReport",
    "EmpiricalScan",
    "FamilyClass",
    "HarmonicPolynomial",
    "KernelScan",
    "ProbeGrid",
    "RadiusResult",
    "UnknownClaimError",
    "close_to_convex_radius",
    "distortion_floor",
    "divided_difference",
    "empirical_scan",
    "evaluate",
    "extremal_map",
    "isolate_real_roots",
    "jacobian",
    "kernel",
    "kernel_min_modulus",
    "log_offset",
    "lower_bound",
    "margin_convex",
    "margin_general",
    "section",
    "solve_radius",
    "tail_ratio",
    "threshold_order",
    "verify_all",
    "verify_claim",
]
