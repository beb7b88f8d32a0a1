"""Small dense-matrix helpers, exact over Fraction / Gaussian rational entries.

Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _floating(a: Matrix, b: Matrix) -> bool:
    """Float entries: every IEEE product is formed, so 0 * inf stays nan.
    Exact entries: products with a zero factor are skipped."""
    return isinstance(a[0][0], (float, complex)) or isinstance(b[0][0], (float, complex))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    if _floating(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                     for row in a)
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        out.append(tuple(sum((x * col[j] for j, x in nonzero if col[j]), zero)
                         for col in bt))
    return tuple(out)


def hs_pairing(a: Matrix, b: Matrix):
    """tr(a b^T), the sum of entrywise products."""
    if _floating(a, b):
        return sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return sum((x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x and y),
               a[0][0] - a[0][0])


def conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def mat_trace(a: Matrix):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t
