"""Harmonic polynomial sections, the divided-difference kernel, and grid scans.

A planar harmonic polynomial f = h + conj(g) is stored as the two
coefficient lists of its analytic and co-analytic parts.  The univalence
criterion tested here is nonvanishing of the kernel

    K(z, t) = sum_k (a_k z^k - conj(b_k z^k)) sin(kt)/sin(t),

which equals z times the divided difference (f(z1) - f(z2))/(z1 - z2) at
z1 = r e^(i eta), z2 = r e^(i psi), t = (eta - psi)/2, z = r e^(i(eta+psi)/2).
The t = 0 value uses the exact continuous extension sin(kt)/sin(t) -> k,
never a 0/0 evaluation; at t = 0 nonvanishing is the local-univalence
(sense-preservation) boundary condition.

For each t, K(., t) is a harmonic polynomial with a simple,
sense-preserving zero at z = 0, so by the argument principle for harmonic
functions (Duren, Hengartner & Laugesen, Amer. Math. Monthly 103, 1996)
the winding number of theta -> K(r e^(i theta), t) around 0 counts its
zeros in |z| < r, sense-preserving ones +1 and sense-reversing ones -1.
A winding number other than 1 at any t is a concrete violation witness,
found without sampling the zero itself.  The evidence is one-sided: for
b = 0 every zero counts +1 and winding 1 proves the disk free of further
zeros at that t, but for b != 0 a sense-preserving and a sense-reversing
zero can cancel, and a count of 1 proves nothing.

The empirical radius conjoins the kernel's winding test with Jacobian
positivity, both on the circle, and records which predicate failed first.
J = |h'|^2 - |g'|^2 is positive on the closed disk |z| <= r exactly when
h' has no zero there and |g'| < |h'| on |z| = r: where h' has no zero,
g'/h' is analytic and the maximum principle carries |g'/h'| < 1 inside
(Duren, Harmonic Mappings in the Plane, 2004, section 2.2).  The zeros of
h' are counted by its winding number on the circle, guarded like the
kernel's, so no interior critical point can slip between samples.  The
Jacobian is checked first at each radius, and the kernel pass runs only
where it passes; the witness is the kernel pass at the last radius that
passed both.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .radius import _FAMILIES, FamilyClass

# t values per kernel block on the circle: small enough that the
# (block, N_theta) temporaries stay in cache, and bounded however many
# angles a refined count needs
_T_BLOCK = 16


@dataclass(frozen=True)
class HarmonicPolynomial:
    """Coefficients a_1..a_n of the analytic part and b_1..b_m of the co-analytic.

    Normalized so that a_1 = 1 and b_1 = 0; evaluation is
    f(z) = sum a_k z^k + conj(sum b_k z^k).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=complex))
        b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        if a.size < 1 or b.size < 1:
            raise ValueError("need at least one coefficient in each part")
        for name, part in (("a", a), ("b", b)):
            bad = np.flatnonzero(~np.isfinite(part))
            if bad.size:
                k = int(bad[0]) + 1
                raise ValueError(
                    f"part {name} needs finite coefficients, got {name}_{k} = {part[k - 1]}"
                )
        if a[0] != 1:
            raise ValueError(f"normalization requires a_1 = 1, got {a[0]}")
        if b[0] != 0:
            raise ValueError(f"normalization requires b_1 = 0, got {b[0]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return max(self.a.size, self.b.size)


@dataclass(frozen=True)
class ExtremalCoefficients:
    """Coefficient source taking the family's coefficient bounds with equality.

    For the general families a_k = (k+1)(2k+1)/6 and b_k = (k-1)(2k-1)/6,
    exactly the coefficients of the harmonic Koebe function h + conj(g) with
    h = (z - z^2/2 + z^3/6)/(1 - z)^3 and g = (z^2/2 + z^3/6)/(1 - z)^3.
    For the convex family a_k = (k+1)/2 and b_k = (k-1)/2: the half-plane
    map with h = (z - z^2/2)/(1 - z)^2 and g = -(z^2/2)/(1 - z)^2, except
    that every b_k has the opposite sign.  Each bound is read off the
    family record of `radius` as w(k)/k, the last entry of the margin's
    tail row at order k, so the scanned maps and the margins share one
    statement of the bounds.
    """

    family: FamilyClass

    def analytic(self, k: np.ndarray) -> np.ndarray:
        return _FAMILIES[self.family].analytic(k)[-1] / k

    def co_analytic(self, k: np.ndarray) -> np.ndarray:
        return _FAMILIES[self.family].co_analytic(k)[-1] / k


# the largest section order: a default-grid kernel pass at this degree
# builds a 16 MB table of e^(ik theta), and the table grows with the degree
_MAX_SECTION_ORDER = 1000


def section(source, n: int, m: int) -> HarmonicPolynomial:
    """Truncate a coefficient source to analytic order n, co-analytic order m.

    `source` is either another HarmonicPolynomial or an object with
    analytic(k)/co_analytic(k) methods.  b_1 is forced to 0.  The orders
    must be integers from 1 to 1000; others raise ValueError before any
    array is made.
    """
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        raise ValueError(f"section orders must be integers, got ({n!r}, {m!r})") from None
    if not (1 <= n <= _MAX_SECTION_ORDER and 1 <= m <= _MAX_SECTION_ORDER):
        raise ValueError(
            f"section orders must lie in 1..{_MAX_SECTION_ORDER}, got ({n}, {m})"
        )
    if isinstance(source, HarmonicPolynomial):
        a = np.zeros(n, dtype=complex)
        take = min(n, source.a.size)
        a[:take] = source.a[:take]
        a[0] = 1.0
        b = np.zeros(m, dtype=complex)
        take = min(m, source.b.size)
        b[:take] = source.b[:take]
    else:
        a = np.asarray(source.analytic(np.arange(1, n + 1, dtype=float)), dtype=complex)
        b = np.asarray(source.co_analytic(np.arange(1, m + 1, dtype=float)), dtype=complex)
    b[0] = 0.0
    return HarmonicPolynomial(a=a, b=b)


def _horner(coeffs, z) -> list:
    """[sum_k c_k z^(k-1) for c in coeffs] by Horner's rule, one value per part.

    A Python complex z runs on Python complex numbers, which is several
    times faster than numpy scalars; an array z runs elementwise on arrays.
    """
    scalar = isinstance(z, complex)
    values = []
    for part in coeffs:
        acc = 0.0
        for c in (part.tolist() if scalar else part)[::-1]:
            acc = acc * z + c
        values.append(acc)
    return values


def _as_points(z):
    return complex(z) if np.isscalar(z) else np.asarray(z, dtype=complex)


def evaluate(p: HarmonicPolynomial, z):
    """f(z) = h(z) + conj(g(z)) by Horner evaluation of both parts."""
    z = _as_points(z)
    h, g = _horner((p.a, p.b), z)
    return z * h + np.conj(z * g)


def _derivatives(p: HarmonicPolynomial) -> tuple:
    """The coefficients k a_k and k b_k of h'(z) and g'(z), in powers z^(k-1)."""
    return np.arange(1, p.a.size + 1) * p.a, np.arange(1, p.b.size + 1) * p.b


def jacobian(p: HarmonicPolynomial, z):
    """|h'(z)|^2 - |g'(z)|^2; positive where f is sense-preserving."""
    hp, gp = _horner(_derivatives(p), _as_points(z))
    return abs(hp) ** 2 - abs(gp) ** 2


def kernel(p: HarmonicPolynomial, z, t: float):
    """Divided-difference kernel sum_k (a_k z^k - conj(b_k z^k)) sin(kt)/sin(t).

    Defined for |z| < 1 and t in [0, pi/2]; the t = 0 ratio is k exactly.
    For fixed t this is the harmonic polynomial with coefficients
    a_k sin(kt)/sin(t) and -b_k sin(kt)/sin(t), evaluated like f.  Equals
    z times the divided difference of f over the matched chord (see
    divided_difference), so for z != 0 its nonvanishing is the univalence
    criterion.
    """
    if not 0.0 <= t <= math.pi / 2.0:
        raise ValueError(f"t must lie in [0, pi/2], got {t}")
    z = _as_points(z)
    if not (np.abs(z) < 1.0).all():
        raise ValueError("kernel is defined on |z| < 1")
    ratio = _ratio_table(np.arange(1, p.degree + 1, dtype=float), np.array([t]))[:, 0]
    h, g = _horner((p.a * ratio[: p.a.size], -p.b * ratio[: p.b.size]), z)
    return z * h + (z * g).conjugate()


def _finite(x) -> bool:
    # a real scalar takes math.isfinite, which skips numpy's per-call cost
    return math.isfinite(x) if isinstance(x, (int, float)) else bool(np.isfinite(x).all())


def divided_difference(p: HarmonicPolynomial, r: float, eta: float, psi: float):
    """(f(r e^(i eta)) - f(r e^(i psi))) / (r e^(i eta) - r e^(i psi))."""
    # finiteness is checked before the chord is formed: an infinite r, eta
    # or psi would form it through inf * 0 or e^(i inf), which numpy warns about
    if _finite(r) and _finite(eta) and _finite(psi):
        z1 = r * np.exp(1j * np.asarray(eta))
        z2 = r * np.exp(1j * np.asarray(psi))
        dz = z1 - z2
        if (np.abs(dz) > 0).all():
            return (evaluate(p, z1) - evaluate(p, z2)) / dz
    raise ValueError(
        f"chord endpoints must be distinct and finite, got r={r}, eta={eta}, psi={psi}"
    )


@dataclass(frozen=True)
class ProbeGrid:
    """Resolution of a kernel/Jacobian scan at one radius.

    Both passes run on the circle |z| = radius only, at 4 * angular_points
    angles or more: the Jacobian once, the kernel for each of the t_points
    values of t.  No scan reads radial_points any more; the field is
    still validated and scaled, because the benchmark's point counts
    read it, and it goes when those counts are brought in line with the
    circle passes.
    """

    radial_points: int = 64
    angular_points: int = 256
    t_points: int = 128
    radius: float = 0.9

    def __post_init__(self) -> None:
        for name in ("radial_points", "angular_points", "t_points"):
            count = getattr(self, name)
            try:
                count = operator.index(count)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {count!r}") from None
            if count < 8:
                raise ValueError(f"{name} must be >= 8, got {count}")
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must lie in (0, 1), got {self.radius}")

    def t_values(self) -> np.ndarray:
        return np.linspace(0.0, math.pi / 2.0, self.t_points)

    def scaled(self, factor: int) -> "ProbeGrid":
        try:
            factor = operator.index(factor)
        except TypeError:
            raise ValueError(f"grid scale must be an integer, got {factor!r}") from None
        if factor < 1:
            raise ValueError(f"grid scale must be >= 1, got {factor}")
        return dataclasses.replace(
            self,
            radial_points=self.radial_points * factor,
            angular_points=self.angular_points * factor,
            t_points=self.t_points * factor,
        )


@dataclass(frozen=True)
class KernelScan:
    """The kernel on the circle |z| = radius: minimum modulus and winding.

    `min_modulus` is the smallest |K| sampled on the circle and
    (`argmin_z`, `argmin_t`) where it occurred.  `winding` is the first
    winding number, in increasing t, of theta -> K(r e^(i theta), t) that is
    not 1, or 0 when a count could not be guarded (as when a guarded count
    is 0); 1 when every t winds once.  Winding 1 is necessary for
    univalence, and sufficient only for b = 0 (sense-reversing zeros
    count -1).
    """

    min_modulus: float
    argmin_z: complex
    argmin_t: float
    winding: int = 1


def _windings(vals: np.ndarray) -> tuple:
    """Winding numbers around 0 of the closed curves in the rows of vals.

    Each row samples a curve at equally spaced angles.  A row's count is
    the sum of its wrapped arg steps, the args of vals[j+1] conj(vals[j])
    (the last step wraps to the first sample), over 2 pi, and it is
    guarded when every step stays below pi/2 in modulus.  Returns the
    per-row guard flags and the rounded counts.
    """
    steps = np.roll(vals, -1, axis=-1)
    steps *= vals.conj()
    guarded = (steps.real > 0.0).all(axis=-1)  # every |step| < pi/2
    return guarded, np.rint(np.angle(steps).sum(axis=-1) / (2.0 * np.pi))


def _ratio_table(ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sin(k t)/sin(t) with k down the rows and t across; k exactly where sin t = 0."""
    sin_t = np.sin(ts)
    return np.divide(
        np.sin(np.outer(ks, ts)), sin_t,
        out=np.repeat(ks[:, None], ts.size, axis=1), where=sin_t != 0.0,
    )


def kernel_min_modulus(p: HarmonicPolynomial, grid: ProbeGrid) -> KernelScan:
    """Winding numbers and min |kernel| on the circle |z| = grid.radius.

    For every t in grid.t_values() the winding number of
    theta -> K(r e^(i theta), t) around 0 is the sum of the wrapped arg
    steps between 4 * grid.angular_points equally spaced angles.  A count
    is trusted only when every step stays below pi/2 in modulus; the t
    values where one does not are evaluated again at twice the angles, up
    to 64 * grid.angular_points, and a t still unguarded there counts as
    winding 0.  By the argument principle a winding other than 1 means a
    zero of K(., t) in the open disk besides z = 0; winding 1 rules such a
    zero out only for b = 0 (see KernelScan).  The reduction is over fixed
    grids, so the result does not depend on evaluation order.
    """
    # unlike kernel, no Horner pass per t: on the circle the terms
    # a_k r^k e^(ik theta) are shared by every t, and one matrix product
    # with the ratio table weights them for a whole block of t values
    padded = section(p, p.degree, p.degree)
    ks = np.arange(1, p.degree + 1, dtype=float)
    ts = grid.t_values()
    ratios = _ratio_table(ks, ts).T  # (T, K)
    rk = grid.radius**ks
    a_r, b_r = (padded.a * rk)[:, None], (padded.b * rk)[:, None]
    windings = np.zeros(ts.size, dtype=int)
    rows = np.arange(ts.size)  # the t values still to count
    best, best_z, best_t = math.inf, 0j, 0.0
    n_theta = 4 * grid.angular_points
    while rows.size and n_theta <= 64 * grid.angular_points:
        thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        e = np.exp(1j * np.outer(ks, thetas))  # (K, N_theta): e^(i k theta)
        # real view: the re and im parts of each term are adjacent columns,
        # so a real matmul gives the complex kernel values
        terms = (a_r * e - np.conj(b_r * e)).view(float)
        unguarded = []
        for start in range(0, rows.size, _T_BLOCK):
            block = rows[start : start + _T_BLOCK]
            vals = (ratios[block] @ terms).view(complex)  # (block, N_theta)
            mod = np.abs(vals)
            flat = int(np.argmin(mod))
            if mod.flat[flat] < best:
                best = float(mod.flat[flat])
                best_z = complex(grid.radius * np.exp(1j * thetas[flat % n_theta]))
                best_t = float(ts[block[flat // n_theta]])
            guarded, turns = _windings(vals)
            windings[block[guarded]] = turns[guarded]
            unguarded.append(block[~guarded])
        rows = np.concatenate(unguarded)
        n_theta *= 2
    off = np.flatnonzero(windings != 1)
    winding = int(windings[off[0]]) if off.size else 1
    return KernelScan(min_modulus=best, argmin_z=best_z, argmin_t=best_t, winding=winding)


def _jacobian_min(p: HarmonicPolynomial, grid: ProbeGrid) -> float:
    """min |h'|^2 - |g'|^2 on the circle |z| = grid.radius, or at most 0.

    The minimum is taken at 4 * grid.angular_points equally spaced angles,
    where the winding number of h' around 0 is counted as in
    kernel_min_modulus: a count whose arg steps are not all below pi/2 is
    made again at twice the angles, up to 64 * grid.angular_points.  A
    guarded count of 0 means h' has no zero in the disk, and the minimum
    on the circle then decides the sign on the closed disk (maximum
    principle, see the module docstring).  Any other count means h' has a
    zero z0 inside, where J = -|g'(z0)|^2 <= 0, and a count still
    unguarded fails alike: either way the result is min(minimum, 0.0).
    """
    n_theta = 4 * grid.angular_points
    while True:
        thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        hp, gp = _horner(_derivatives(p), grid.radius * np.exp(1j * thetas))
        least = float(np.min(abs(hp) ** 2 - abs(gp) ** 2))
        guarded, turns = _windings(hp)
        if guarded or n_theta >= 64 * grid.angular_points:
            return least if guarded and turns == 0 else min(least, 0.0)
        n_theta *= 2


@dataclass(frozen=True)
class EmpiricalScan:
    """Largest radius passing both predicates, with the failure context.

    The predicates at radius r are Jacobian positivity on the closed disk
    |z| <= r, decided on the circle |z| = r (see _jacobian_min), and, for
    the kernel, winding number 1 with |K| > 0 on that circle at every t
    (see kernel_min_modulus).  `binding` names the predicate that failed
    just above the returned radius ("jacobian" wins when both fail, since
    sense-preservation loss already implies a kernel zero at t = 0, and the
    kernel is then not evaluated); None when nothing failed below the unit
    disk.  `witness` is the kernel on the circle at the returned radius,
    taken from the last bisection step that passed (or from a pass at
    radius 1e-6 when none did), and `min_jacobian` is the Jacobian minimum
    on the circle of that same pass.  A kernel failure is a counted
    violation, so for b = 0 the radius estimates the univalence radius from
    above, to the bisection width; for b != 0 sense-reversing zeros can
    cancel in the count, and the evidence is one-sided.
    """

    radius: float
    binding: str | None
    witness: KernelScan
    min_jacobian: float


def empirical_scan(p: HarmonicPolynomial, grid: ProbeGrid) -> EmpiricalScan:
    """Binary search for the largest grid-clean radius, to 1e-3.

    The predicate at radius r is [J > 0 on the closed disk, which holds
    when h' winds 0 times and J > 0 on the circle |z| = r, and min |kernel|
    > 0 with winding number 1 on that circle], with the grid rescaled to
    r.  The Jacobian is evaluated first, and the kernel pass runs only at
    radii where it is positive, so a step whose Jacobian fails costs no
    kernel evaluation.  Semantics are "no violation found at
    this resolution": the result is an upper-style estimate that must
    dominate the certified radius, never a certificate.
    """
    lo, hi = 0.0, 1.0
    binding = None
    last_clean = None
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        probe = dataclasses.replace(grid, radius=mid)
        jac_min = _jacobian_min(p, probe)
        scan = kernel_min_modulus(p, probe) if jac_min > 0.0 else None
        if scan is not None and scan.min_modulus > 0.0 and scan.winding == 1:
            lo = mid
            last_clean = (scan, jac_min)
        else:
            hi = mid
            binding = "jacobian" if jac_min <= 0.0 else "kernel"
    if last_clean is None:
        at = dataclasses.replace(grid, radius=1e-6)
        last_clean = (kernel_min_modulus(p, at), _jacobian_min(p, at))
    witness, min_jacobian = last_clean
    return EmpiricalScan(radius=lo, binding=binding, witness=witness, min_jacobian=min_jacobian)
