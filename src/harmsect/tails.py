"""Closed-form tail sums of the weighted power series used by the radius margins.

Every radius computation in this package subtracts tails of the form

    sum_{k=n+1..inf} w(k) r^(k-1),   0 <= r < 1,

where the weight w(k) = k |a_k| (or k |b_k|) is k times a coefficient
bound of the geometric family, a cubic or quadratic polynomial in k.  Each
tail has one closed form

    r^n * sum_j e_j(n) s^(j-d),   s = 1 - r,

whose d integer coefficients e_j(n) form the tail's row; the last entry
e_{d-1}(n) is the weight w(n) itself.  The rows are written once, in the
family record of `radius`, and are nonnegative for n >= 2.  One core,
`tail_weighted`, evaluates a row once it is formed at one order: it is the
tail of every one-shot margin, at one r or on an array of r.  The solver's
evaluator (`radius._margin_at`) makes the same operations on the same rows
as floats, with this loop written out for each family's row length, so
that a bisection step is one call.

`tail_weighted` checks no argument: its callers, the margins in `radius`,
have already checked r and formed each row from the orders as Python
ints, whose products do not wrap, below 2**341, where the general rows'
n**3 would leave the double range.
"""

from __future__ import annotations


def tail_weighted(coefficients, n: int, r):
    """sum_{k=n+1..inf} w(k) r^(k-1) for the weight whose row at n is `coefficients`.

    `coefficients` is the formed row (e_0(n), ..., e_{d-1}(n)), as ints or
    as the floats nearest them; both give the same bits.  Unchecked: n
    must be a Python int from 1 below 2**341 and r a float or array in
    [0, 1).  At r = 0 the tail is exactly 0.
    """
    s = 1.0 - r
    num = 0.0
    for e in reversed(coefficients):
        num = num * s + e
    # r^n first: for the largest orders it is 0 and keeps num / s^d from overflowing
    return r**n * num / s ** len(coefficients)
