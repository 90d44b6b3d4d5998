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
It is counted from samples on the circle as negative-axis crossings under
the pi/2 guard: where every step between consecutive samples turns by
less than pi/2, the signed crossings of the negative real axis are the
winding number, found by sign tests alone, in contiguous passes over the
products of consecutive samples and over their sign flags (see
_windings).  A winding number other than 1 at any t is a concrete
violation witness, found without sampling the zero itself.  The
evidence is one-sided: for b = 0 every zero counts +1 and winding 1
proves the disk free of further zeros at that t, but for b != 0 a
sense-preserving and a sense-reversing zero can cancel, and a count of
1 proves nothing.

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

The pointwise functions (evaluate, jacobian, kernel, divided_difference)
take one point or an array of points.  One point, a Python or numpy
number, runs on Python numbers and returns a scalar: a Python complex for
kernel, a float for jacobian, and a numpy.complex128 (a subclass of
complex) for evaluate, whose last step is numpy's conj, and so for
divided_difference.  An array runs on numpy arrays and returns an array.
The scalar form makes no numpy array: a handful of coefficients costs
more to put into arrays than to evaluate.  Every Horner evaluation, at a
point or on an array, reads each polynomial's coefficients as Python
lists (HarmonicPolynomial._lists), formed once per polynomial on its
first Horner evaluation rather than converted from the arrays on every
call; a polynomial that is only sectioned or given to the kernel pass,
which read the arrays, never forms them.  The two forms make the same
operations in the same order, but numpy's vectorized complex product and
modulus can round differently from Python's complex arithmetic (about
half of all calls differ in the last bit with numpy 2.4 on AVX-512
hardware), so one point and a one-element array agree to rounding, not
bit for bit.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .polyroots import _horner
from .radius import _FAMILIES, FamilyClass

# t values per kernel block on the circle: small enough that the
# (block, N_theta) temporaries stay in cache, and bounded however many
# angles a refined count needs
_T_BLOCK = 16


@dataclass(frozen=True, eq=False)
class HarmonicPolynomial:
    """Coefficients a_1..a_n of the analytic part and b_1..b_m of the co-analytic.

    Normalized so that a_1 = 1 and b_1 = 0; evaluation is
    f(z) = sum a_k z^k + conj(sum b_k z^k).  The polynomial owns its
    coefficient arrays, copies of what it was given, and they are
    read-only, so that nothing formed from them goes stale.
    A map equals and hashes as itself only, so it can key a cache.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        for name, first in (("a", 1), ("b", 0)):
            part = np.array(getattr(self, name), dtype=complex, ndmin=1)
            if part.ndim != 1:
                raise ValueError(
                    f"part {name} needs one-dimensional coefficients, got shape {part.shape}"
                )
            if part.size < 1:
                raise ValueError("need at least one coefficient in each part")
            bad = np.flatnonzero(~np.isfinite(part))
            if bad.size:
                k = int(bad[0]) + 1
                raise ValueError(
                    f"part {name} needs finite coefficients, got {name}_{k} = {part[k - 1]}"
                )
            if part[0] != first:
                raise ValueError(f"normalization requires {name}_1 = {first}, got {part[0]}")
            part.flags.writeable = False
            object.__setattr__(self, name, part)

    @property
    def degree(self) -> int:
        return max(self.a.size, self.b.size)

    @functools.cached_property
    def _lists(self) -> tuple:
        """The coefficients of h, g, h' and g' as Python lists, which every Horner call reads.

        h' and g' have the coefficients k a_k and k b_k, in powers
        z^(k-1).  Formed on the first Horner evaluation, at a point or on
        an array, so that a polynomial only sectioned or given to the
        kernel pass never builds them.
        """
        a, b = self.a, self.b
        return tuple(part.tolist() for part in (a, b, np.arange(1, a.size + 1) * a,
                                                 np.arange(1, b.size + 1) * b))


# the largest degree a kernel pass takes: at this degree a default-grid
# pass builds a 16 MB table of e^(ik theta), and the table grows with the
# degree.  The section orders and the extremal maps stop here too.
_MAX_DEGREE = 1000


def extremal_map(family: FamilyClass) -> HarmonicPolynomial:
    """The family's extremal map, truncated at degree 1000, the section bound.

    It takes the family's coefficient bounds with equality.  For the
    general families a_k = (k+1)(2k+1)/6 and b_k = (k-1)(2k-1)/6,
    exactly the coefficients of the harmonic Koebe function h + conj(g) with
    h = (z - z^2/2 + z^3/6)/(1 - z)^3 and g = (z^2/2 + z^3/6)/(1 - z)^3.
    For the convex family a_k = (k+1)/2 and b_k = (k-1)/2: the half-plane
    map with h = (z - z^2/2)/(1 - z)^2 and g = -(z^2/2)/(1 - z)^2, except
    that every b_k has the opposite sign.  Each bound is read off the
    family record of `radius` as w(k)/k, the last entry of the margin's
    tail row at order k, so the scanned maps and the margins share one
    statement of the bounds.
    """
    fam = _FAMILIES[family]
    ks = np.arange(1, _MAX_DEGREE + 1, dtype=float)
    return HarmonicPolynomial(a=fam.analytic(ks)[-1] / ks, b=fam.co_analytic(ks)[-1] / ks)


def _fitted(part: np.ndarray, size: int) -> np.ndarray:
    """A new array of the first `size` coefficients of part, zero-padded."""
    out = np.zeros(size, dtype=complex)
    out[: min(size, part.size)] = part[:size]
    return out


def section(p: HarmonicPolynomial, n: int, m: int) -> HarmonicPolynomial:
    """Truncate p to analytic order n and co-analytic order m, padding with zeros.

    The orders must be integers from 1 to 1000; others raise ValueError
    before any array is made.
    """
    try:
        n, m = operator.index(n), operator.index(m)
    except TypeError:
        raise ValueError(f"section orders must be integers, got ({n!r}, {m!r})") from None
    if not (1 <= n <= _MAX_DEGREE and 1 <= m <= _MAX_DEGREE):
        raise ValueError(f"section orders must lie in 1..{_MAX_DEGREE}, got ({n}, {m})")
    return HarmonicPolynomial(a=_fitted(p.a, n), b=_fitted(p.b, m))


# the scalar types taken as one point; numpy's float64 and complex128
# subclass float and complex, and np.generic holds the other numpy scalars
_SCALARS = (complex, float, int, np.generic)


def _as_points(z):
    return complex(z) if isinstance(z, _SCALARS) else np.asarray(z, dtype=complex)


def _all(mask) -> bool:
    # a comparison of Python numbers is already a bool; an array is reduced
    return mask if isinstance(mask, bool) else bool(mask.all())


def evaluate(p: HarmonicPolynomial, z):
    """f(z) = h(z) + conj(g(z)) by Horner evaluation of both parts."""
    z = _as_points(z)
    h, g = _horner(p._lists[:2], z)
    return z * h + np.conj(z * g)


def jacobian(p: HarmonicPolynomial, z):
    """|h'(z)|^2 - |g'(z)|^2; positive where f is sense-preserving."""
    z = _as_points(z)
    hp, gp = _horner(p._lists[2:], z)
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
    if not (isinstance(t, _SCALARS) or np.ndim(t) == 0):
        raise ValueError(f"t must be one number in [0, pi/2], got shape {np.shape(t)}")
    if not 0.0 <= t <= math.pi / 2.0:
        raise ValueError(f"t must lie in [0, pi/2], got {t}")
    z = _as_points(z)
    if not _all(abs(z) < 1.0):
        raise ValueError("kernel is defined on |z| < 1")
    # the ratios of one t as Python floats: the same operations as a row of
    # _ratio_table, with no array built for a handful of numbers
    sin_t = math.sin(t)
    ks = range(1, p.degree + 1)
    ratio = [math.sin(k * t) / sin_t for k in ks] if sin_t != 0.0 else [float(k) for k in ks]
    # the co-analytic weights are (-b_k) * ratio, negated before the
    # product: -(b_k * ratio) can differ in the sign of a zero part
    a, b = p._lists[:2]
    h, g = _horner((list(map(operator.mul, a, ratio)),
                    list(map(operator.mul, map(operator.neg, b), ratio))), z)
    return z * h + (z * g).conjugate()


def _finite(x) -> bool:
    # a real scalar takes math.isfinite, which skips numpy's per-call cost
    return math.isfinite(x) if isinstance(x, (int, float)) else bool(np.isfinite(x).all())


def _circle_point(r, angle):
    """r e^(i angle): a Python complex for real scalars, else an array."""
    if isinstance(r, (int, float)) and isinstance(angle, (int, float)):
        return float(r) * cmath.exp(1j * angle)
    return r * np.exp(1j * np.asarray(angle))


def divided_difference(p: HarmonicPolynomial, r: float, eta: float, psi: float):
    """(f(r e^(i eta)) - f(r e^(i psi))) / (r e^(i eta) - r e^(i psi))."""
    # finiteness is checked before the chord is formed: an infinite r, eta
    # or psi would form it through inf * 0 or e^(i inf), which numpy warns about
    if _finite(r) and _finite(eta) and _finite(psi):
        z1, z2 = _circle_point(r, eta), _circle_point(r, psi)
        dz = z1 - z2
        if _all(abs(dz) > 0.0):
            return (evaluate(p, z1) - evaluate(p, z2)) / dz
    raise ValueError(
        f"chord endpoints must be distinct and finite, got r={r}, eta={eta}, psi={psi}"
    )


@dataclass(frozen=True)
class ProbeGrid:
    """Resolution of a kernel/Jacobian scan at one radius.

    Both passes run on the circle |z| = radius only, at the angle counts
    of _levels: the Jacobian once, the kernel for each of the t_points
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


def _windings(vals: np.ndarray, prod: np.ndarray | None = None) -> tuple:
    """Winding numbers around 0 of the closed curves in the rows of vals.

    Each row samples a curve at equally spaced angles, the last sample
    followed by the first; vals must be contiguous, as the circle passes
    make it.  A row is guarded when every pair of consecutive samples
    has Re(vals[j+1] conj(vals[j])) > 0, so each arg step stays below
    pi/2 in modulus and the pair lies in the same or adjacent half-open
    quadrants.  A guarded row's count is then its negative-axis crossings
    under the pi/2 guard: +1 for each step from re < 0, im >= 0 to
    im < 0, and -1 for each step from re < 0, im < 0 to im >= 0.  Only
    sign tests are made, no arg.  Returns the per-row guard flags and the
    counts; an unguarded row's count means nothing.

    Every pass over the samples is contiguous.  The guard multiplies the
    float view by itself one sample on, into prod (a new array when prod
    is None, else a float array of the view's shape, such as the kernel
    pass's workspace); the last two columns of each row, which that pairs
    with the next row, are then overwritten with the wrap step's products,
    the last sample times the first.  The count reads each sample's two
    sign flags as one 16-bit integer, re < 0 in the low byte and im < 0 in
    the high byte.  The '<i2' view names that byte order, so every host
    reads the same integers (numpy swaps the bytes on a big-endian one).
    Shifted right by 8 they give the im < 0 flags, and bit 0 of their AND
    with the flag of the next sample (a slice plus the wrap column), less
    that of their AND with the sample's own, summed, is the count.
    """
    f = vals.view(float)  # re and im of each sample side by side
    if prod is None:
        prod = np.empty(f.shape)
    # re1 re + im1 im = Re(vals[j+1] conj(vals[j])) for each sample and the
    # next, then for the last sample and the first
    np.multiply(f.reshape(-1)[2:], f.reshape(-1)[:-2], out=prod.reshape(-1)[:-2])
    np.multiply(f[..., -2:], f[..., :2], out=prod[..., -2:])
    guarded = (prod[..., 0::2] + prod[..., 1::2] > 0.0).all(axis=-1)
    codes = (f < 0.0).view("<i2")  # left + 256 lower: re < 0, im < 0
    lower = codes >> 8
    # left_j lower_(j+1) - left_j lower_j: +1 leaving the upper half
    # im >= 0, -1 entering it, counted where re < 0
    step = np.empty_like(codes)
    np.bitwise_and(codes.reshape(-1)[:-1], lower.reshape(-1)[1:], out=step.reshape(-1)[:-1])
    np.bitwise_and(codes[..., -1:], lower[..., :1], out=step[..., -1:])
    step -= np.bitwise_and(codes, lower, out=lower)
    return guarded, step.sum(axis=-1, dtype=int)


def _ratio_table(ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sin(k t)/sin(t) with k down the rows and t across; k exactly where sin t = 0."""
    sin_t = np.sin(ts)
    return np.divide(
        np.sin(np.outer(ks, ts)), sin_t,
        out=np.repeat(ks[:, None], ts.size, axis=1), where=sin_t != 0.0,
    )


def _levels(grid: ProbeGrid) -> tuple:
    """The angle counts of a circle pass: 4 * grid.angular_points, doubled four times."""
    return tuple(4 * grid.angular_points * 2**k for k in range(5))


def _angles(n_theta: int) -> np.ndarray:
    """n_theta equally spaced angles on the circle, from 0."""
    return 2.0 * np.pi * np.arange(n_theta) / n_theta


def _angle_table(ks: np.ndarray, n_theta: int) -> tuple:
    """n_theta equally spaced angles and e^(ik theta), k down the rows."""
    thetas = _angles(n_theta)
    return thetas, np.exp(1j * np.outer(ks, thetas))


def _level_workspace(rows: int, n_theta: int) -> tuple:
    """Empty kernel values (complex), moduli and guard products for rows t values.

    One allocation holds the three, each from a 4096-byte boundary.  A
    pass that loads from one array and stores into another at the same
    pace, as the guard products do, runs up to twice as slow when the
    store address lies a few bytes past the load address modulo 4096 (the
    processor suspects an overlap); three separate allocations lie where
    malloc puts them, and on a 2-core AVX-512 x86_64 machine the products
    of a default-grid block took 8 or 16 microseconds by their placement.
    """
    shapes = ((rows, 2 * n_theta), (rows, n_theta), (rows, 2 * n_theta))
    slots = [-(-math.prod(shape) // 512) * 512 for shape in shapes]  # whole pages of floats
    raw = np.empty(sum(slots) + 511)
    start = -raw.ctypes.data % 4096 // 8
    vals, mod, prod = (
        raw[start + at : start + at + math.prod(shape)].reshape(shape)
        for shape, at in zip(shapes, (0, slots[0], slots[0] + slots[1]))
    )
    return vals.view(complex), mod, prod


# the radius-independent tables of the last kernel pass's first level,
# keyed on (degree, t_points, angles): one entry, dropped before another
# is built, so that the bisection steps of one scan share it
_PASS_TABLES: dict = {}


def _pass_tables(degree: int, grid: ProbeGrid) -> tuple:
    """ks, the t values, the (T, K) ratio table, and the first angles and e^(ik theta).

    They depend on the degree, grid.t_points and the first of _levels(grid)
    only, not on the radius, and are read-only.  Only the first level is
    kept: refined angle counts are built by the pass and go with it, so
    no table larger than one a pass builds outlives the call.
    """
    key = (degree, grid.t_points, _levels(grid)[0])
    tables = _PASS_TABLES.get(key)
    if tables is None:
        _PASS_TABLES.clear()
        ks = np.arange(1, degree + 1, dtype=float)
        ts = grid.t_values()
        tables = (ks, ts, _ratio_table(ks, ts).T, *_angle_table(ks, key[2]))
        for table in tables:
            table.flags.writeable = False
        _PASS_TABLES[key] = tables
    return tables


def kernel_min_modulus(p: HarmonicPolynomial, grid: ProbeGrid) -> KernelScan:
    """Winding numbers and min |kernel| on the circle |z| = grid.radius.

    For every t in grid.t_values() the winding number of
    theta -> K(r e^(i theta), t) around 0 is counted at the first of
    _levels(grid) equally spaced angles, as negative-axis crossings under
    the pi/2 guard (see _windings).  A count is trusted only when every
    arg step stays below pi/2 in modulus; the t values where one does not
    are evaluated again at each further level in turn, and a t still
    unguarded at the last counts as winding 0.  By the argument principle
    a winding other than 1 means a zero of K(., t) in the open disk
    besides z = 0; winding 1 rules such a zero out only for b = 0 (see
    KernelScan).  The reduction is over fixed grids, so the result does
    not depend on evaluation order.  The tables that do not depend on the
    radius come from _pass_tables, so the passes of one scan build them
    once.  Each level allocates one workspace for a block of _T_BLOCK t
    values, or of all those left when fewer, and every block writes its
    kernel values, moduli and guard products into its first rows.
    """
    if p.degree > _MAX_DEGREE:
        raise ValueError(f"the kernel pass takes degrees up to {_MAX_DEGREE}, got {p.degree}")
    # unlike kernel, no Horner pass per t: on the circle the terms
    # a_k r^k e^(ik theta) are shared by every t, and one matrix product
    # with the ratio table weights them for a whole block of t values
    ks, ts, ratios, thetas, e = _pass_tables(p.degree, grid)  # ratios: (T, K)
    rk = grid.radius**ks
    a_r = (_fitted(p.a, p.degree) * rk)[:, None]
    b_r = (_fitted(p.b, p.degree) * rk)[:, None]
    windings = np.zeros(ts.size, dtype=int)
    rows = np.arange(ts.size)  # the t values still to count
    best, best_z, best_t = math.inf, 0j, 0.0
    for level, n_theta in enumerate(_levels(grid)):
        if not rows.size:
            break
        if level:
            thetas, e = _angle_table(ks, n_theta)  # (K, N_theta): e^(i k theta)
        # real view: the re and im parts of each term are adjacent columns,
        # so a real matmul gives the complex kernel values
        terms = (a_r * e - np.conj(b_r * e)).view(float)
        vals_work, mod_work, prod_work = _level_workspace(min(_T_BLOCK, rows.size), n_theta)
        unguarded = []
        for start in range(0, rows.size, _T_BLOCK):
            block = rows[start : start + _T_BLOCK]
            vals = vals_work[: block.size]  # (block, N_theta)
            np.matmul(ratios[block], terms, out=vals.view(float))
            mod = np.abs(vals, out=mod_work[: block.size])
            flat = int(np.argmin(mod))
            if mod.flat[flat] < best:
                best = float(mod.flat[flat])
                best_z = complex(grid.radius * np.exp(1j * thetas[flat % n_theta]))
                best_t = float(ts[block[flat // n_theta]])
            guarded, turns = _windings(vals, prod_work[: block.size])
            windings[block[guarded]] = turns[guarded]
            unguarded.append(block[~guarded])
        rows = np.concatenate(unguarded)
    off = np.flatnonzero(windings != 1)
    winding = int(windings[off[0]]) if off.size else 1
    return KernelScan(min_modulus=best, argmin_z=best_z, argmin_t=best_t, winding=winding)


def _jacobian_min(p: HarmonicPolynomial, grid: ProbeGrid) -> float:
    """min |h'|^2 - |g'|^2 on the circle |z| = grid.radius, or at most 0.

    The minimum is taken at the first of _levels(grid) equally spaced
    angles, where the winding number of h' around 0 is counted as in
    kernel_min_modulus, by negative-axis crossings under the pi/2 guard: a
    count whose arg steps are not all below pi/2 is made again at each
    further level in turn.  A guarded count of 0 means h' has no zero in
    the disk, and the minimum on the circle then decides the sign on the
    closed disk (maximum principle, see the module docstring).  Any other
    count means h' has a zero z0 inside, where J = -|g'(z0)|^2 <= 0, and
    a count still unguarded at the last level fails alike: either way the
    result is min(minimum, 0.0).
    """
    for n_theta in _levels(grid):
        hp, gp = _horner(p._lists[2:], grid.radius * np.exp(1j * _angles(n_theta)))
        least = float(np.min(abs(hp) ** 2 - abs(gp) ** 2))
        guarded, turns = _windings(hp)
        if guarded:
            return least if turns == 0 else min(least, 0.0)
    return min(least, 0.0)


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
