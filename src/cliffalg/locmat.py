"""Infinite tensor products of matrix algebras at finite support.

Elements are finite sums of elementary tensors (identity off a finite set
of factors) over an exact domain.  A factor is the row-major tuple of its
nonzero ((row, col), entry) pairs.  Trace, norm and equality read one
pairing tr(a b*), the trace as the pairing with the unit.  The limit
automorphism conjugates only the supported factors, the stabilization
property made literal, each by a diagonal, which scales its stored entries.
The witness sequence exhibits an automorphism that shrinks no norm while
its input sequence tends to zero.  Rational arithmetic runs on integer
parts: factor products and the pairing sum integers over one denominator,
the automorphism scales entries by integer ratios, each building one reduced
value per result, and terms merge by their entries' integer parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller, truediv
from typing import Callable, Mapping

from . import scalars
from .errors import InvalidAutomorphismError, ShapeMismatchError
from .scalars import Domain, reduced


@dataclass(frozen=True)
class FactorShape:
    """One even matrix size for every factor (default 2) and an exact domain."""

    domain: Domain = Domain.RATIONAL
    size: int = 2

    def __post_init__(self):
        self.domain.require_exact("tensor elements")
        size = self.size
        if isinstance(size, bool) or not isinstance(size, int) or size < 2 or size % 2:
            raise ValueError(f"factor sizes must be integers, even and >= 2, got {size!r}")


def _factor(shape: FactorShape, i: int, rows) -> tuple:
    """Dense rows as a factor, each entry coerced to the shape's domain and
    the nonzero ones stored."""
    m = shape.size
    rows = [[scalars.coerce(shape.domain, x) for x in row] for row in rows]
    if len(rows) != m or any(len(row) != m for row in rows):
        raise ShapeMismatchError(f"factor {i} expects {m}x{m} matrices")
    return tuple(((r, c), x) for r, row in enumerate(rows)
                 for c, x in enumerate(row) if x)


def _index(i) -> int:
    """The factor index i, an int >= 1: the tensor model counts from 1."""
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ValueError(f"factor indices must be integers >= 1, got {i!r}")
    return i


def _canonical(shape: FactorShape, terms) -> tuple:
    """Merge terms by factor tuple (_key); drop identity factors (m stored
    entries, each a diagonal 1), terms with a zero factor (nothing stored) and
    zero coefficients.  Merged terms keep first-seen order and factors."""
    merged = {}
    for coeff, factors in terms:
        kept = []
        for i, f in factors:
            if not f:
                break
            if len(f) != shape.size or any(r != c or x != 1 for (r, c), x in f):
                kept.append((i, f))
        else:
            entry = merged.setdefault(_key(shape, kept), [tuple(kept), None])
            entry[1] = coeff if entry[1] is None else entry[1] + coeff
    return tuple((c, f) for f, c in merged.values() if c)


def _key(shape: FactorShape, factors) -> tuple:
    """The factors as a dict key: rational entries by their integer parts,
    which equal Fractions share, so that no Fraction hash runs."""
    if shape.domain is not Domain.RATIONAL:
        return tuple(factors)
    return tuple([(i, tuple([(k, x._numerator, x._denominator) for k, x in f]))
                  for i, f in factors])


class _Canonicalizing(type):
    """TensorElement(shape, terms) stores _canonical(shape, terms)."""

    def __call__(cls, shape, terms=()):
        return super().__call__(shape, _canonical(shape, terms))


@dataclass(frozen=True)
class TensorElement(metaclass=_Canonicalizing):
    """Finite sum of (coefficient, ((factor index, factor), ...)) terms.

    Terms are kept canonical (see _canonical), so structurally equal elements
    compare equal without expanding them.  Terms that are canonical by
    construction skip that pass through _of_canonical.
    """

    shape: FactorShape
    terms: tuple = ()

    @staticmethod
    def _of_canonical(shape: FactorShape, terms: tuple) -> "TensorElement":
        """An element over canonical terms, stored as they are by __init__."""
        return type.__call__(TensorElement, shape, terms)

    @staticmethod
    def build(shape: FactorShape, terms) -> "TensorElement":
        return TensorElement(shape, tuple(
            (scalars.coerce(shape.domain, coeff),
             tuple(sorted((_index(i), _factor(shape, i, rows))
                          for i, rows in dict(factors).items())))
            for coeff, factors in terms))

    @staticmethod
    def identity(shape: FactorShape) -> "TensorElement":
        return TensorElement.build(shape, [(1, {})])

    @staticmethod
    def zero(shape: FactorShape) -> "TensorElement":
        return TensorElement(shape, ())

    @staticmethod
    def single(shape: FactorShape, coeff, factors: Mapping[int, object]) -> "TensorElement":
        return TensorElement.build(shape, [(coeff, factors)])

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({i for _, factors in self.terms for i, _ in factors}))

    def __eq__(self, other):
        """Equal canonical terms, else tr((a - b)(a - b)*) == 0 (the trace is
        faithful), with no expansion."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if ({_key(self.shape, f): c for c, f in self.terms}
                == {_key(self.shape, f): c for c, f in other.terms}):
            return True
        d = self + other.scale(-1)
        return _pairing(d, d) == 0

    def __hash__(self):
        # equal elements have equal normalized traces
        return hash((self.shape, tp_trace(self)))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        _check_shape(self, other)
        return TensorElement(self.shape, self.terms + other.terms)

    def scale(self, value) -> "TensorElement":
        """Factors are unchanged: only coefficients that become zero drop."""
        value = scalars.coerce(self.shape.domain, value)
        return TensorElement._of_canonical(self.shape, tuple(
            (p, f) for c, f in self.terms if (p := c * value)))

    def adjoint(self) -> "TensorElement":
        """Conjugate coefficients, conjugate-transpose every factor."""
        return TensorElement(self.shape, tuple(
            (c.conjugate(), tuple((i, tuple(sorted(((col, row), x.conjugate())
                                                   for (row, col), x in f)))
                                  for i, f in fs))
            for c, fs in self.terms))


def _check_shape(a, b):
    if a.shape is not b.shape and a.shape != b.shape:
        raise ShapeMismatchError("tensor elements built over different shapes")


def _mul(a: tuple, b: tuple, rational: bool) -> tuple:
    """Factor product over stored entries: entry (r, c) sums a[r, j] b[j, c],
    and a sum that cancels is not stored.  Rational entries are summed as
    integers over da * db, one value built per stored entry (_integers)."""
    if rational:
        (da, a), (db, b) = _integers(a), _integers(b)
    rows = {}
    for (j, c), y in b:
        rows.setdefault(j, []).append((c, y))
    out = {}
    for (r, j), x in a:
        for c, y in rows.get(j, ()):
            key = r, c
            out[key] = out[key] + x * y if key in out else x * y
    if rational:
        return tuple([(k, reduced(v, da * db)) for k, v in sorted(out.items()) if v])
    return tuple(e for e in sorted(out.items()) if e[1])


def _integers(f: tuple) -> tuple[int, list]:
    """(d, [(key, n)]): a rational factor's entries as integers n over d."""
    d = math.lcm(*[x._denominator for _, x in f])
    return d, [(k, x._numerator * (d // x._denominator)) for k, x in f]


def tp_product(a: TensorElement, b: TensorElement) -> TensorElement:
    """Termwise product: multiply factors present in both, keep the others."""
    _check_shape(a, b)
    rational, terms = a.shape.domain is Domain.RATIONAL, []
    for ca, fa in a.terms:
        for cb, fb in b.terms:
            merged = dict(fa)
            for i, mb in fb:
                ma = merged.get(i)
                merged[i] = mb if ma is None else _mul(ma, mb, rational)
            c = ca * cb if not rational else reduced(
                ca._numerator * cb._numerator, ca._denominator * cb._denominator)
            terms.append((c, tuple(sorted(merged.items()))))
    return TensorElement(a.shape, tuple(terms))


def tp_trace(a: TensorElement):
    """Normalized trace: the pairing with the unit, tr(a * 1*)."""
    return _pairing(a, TensorElement.identity(a.shape))


def _operand(a: TensorElement, conjugate: bool):
    """(d, terms): a's coefficients and stored entries as values over one
    denominator d, a term as (coeff, {i: {(row, col): entry}}).  A rational
    element's values are integers over their common denominator; a Gaussian
    element's are its own values over d = 1, conjugated if `conjugate`."""
    if a.shape.domain is Domain.RATIONAL:
        d = 1
        for c, fs in a.terms:  # d, the lcm of every denominator, in one pass
            d = math.lcm(d, c._denominator) if d % c._denominator else d
            for _, f in fs:
                for _, x in f:
                    d = math.lcm(d, x._denominator) if d % x._denominator else d
        return d, [(c._numerator * (d // c._denominator),
                    {i: {k: x._numerator * (d // x._denominator) for k, x in f}
                     for i, f in fs}) for c, fs in a.terms]
    value = methodcaller("conjugate") if conjugate else (lambda x: x)
    return 1, [(value(c), {i: {k: value(x) for k, x in f} for i, f in fs})
               for c, fs in a.terms]


def _pairing(a: TensorElement, b: TensorElement):
    """tr(a * adjoint(b)) = sum over term pairs (s, t) of c_s conj(c_t)
    prod_i <A_si, B_ti> / m, with <A, B> = tr(A B*) and an absent factor the
    identity: <A, I> = tr(A), <I, B> = conj(tr(B)).  <A, B> sums the products
    of the entries both factors store.  The operands enter as values over
    one denominator each, da and db (_operand; b conjugated once), and a
    factor on one side only gives its trace times the other's denominator,
    so a term pair with k factors is its value over da * db * (da * db * m)**k,
    summed over the largest k's denominator and divided once."""
    m, domain = a.shape.size, a.shape.domain
    rational = domain is Domain.RATIONAL
    da, left = _operand(a, False)
    db, right = (da, left) if rational and b is a else _operand(b, True)
    base = da * db * m
    total, top = 0 if rational else scalars.zero(domain), 0  # over da * db * base**top
    for cs, fs in left:
        for ct, ft in right:
            v, u = cs * ct, fs.keys() if fs is ft else fs.keys() | ft.keys()
            for i in u:
                f, g = fs.get(i), ft.get(i)
                if f is None:
                    v *= da * sum(x for (r, c), x in g.items() if r == c)
                elif g is None:
                    v *= db * sum(x for (r, c), x in f.items() if r == c)
                else:
                    p = 0
                    for key, x in g.items():
                        if key in f:
                            p += x * f[key]
                    v *= p
            if len(u) > top:
                total, top = total * base ** (len(u) - top), len(u)
            total += v if len(u) == top else v * base ** (top - len(u))
    return (reduced if rational else truediv)(total, da * db * base ** top)


def tp_norm(a: TensorElement):
    """tr(a * adjoint(a)) by _pairing, never forming it; real domains only."""
    a.shape.domain.require_real("tp_norm")
    return _pairing(a, a)


class LocalAutomorphism:
    """Per-factor conjugation by a diagonal x_i, identity outside an
    element's support.

    The rule gives the diagonal of x_i, m scalars, for any factor index.  It
    is checked when the automorphism is applied (_read): a wrong length raises
    ShapeMismatchError and a zero entry InvalidAutomorphismError.
    """

    def __init__(self, shape: FactorShape, rule: Callable[[int], tuple]):
        self.shape = shape
        self.rule = rule

    @staticmethod
    def identity(shape: FactorShape) -> "LocalAutomorphism":
        return LocalAutomorphism.from_factors(shape, {})

    @staticmethod
    def from_factors(shape: FactorShape, factors: Mapping[int, tuple]) -> "LocalAutomorphism":
        factors, ones = dict(factors), (1,) * shape.size
        return LocalAutomorphism(shape, lambda i: factors.get(i, ones))

    @staticmethod
    def index_scaling(shape: FactorShape) -> "LocalAutomorphism":
        """x_i = diag(I_k, i * I_k) with the literal factor index i."""
        k = shape.size // 2
        return LocalAutomorphism(shape, lambda i: (1,) * k + (i,) * k)

    def diagonal(self, i: int) -> tuple:
        """The rule's diagonal at factor i, coerced and checked."""
        return tuple(self._read(i, False))

    def _read(self, i: int, ratios: bool) -> list:
        """The rule's diagonal at factor i, coerced and checked; if `ratios`, as
        integer ratios (n, d), with an int or Fraction read as it is."""
        d = [x if ratios and isinstance(x, (int, Fraction))
             else scalars.coerce(self.shape.domain, x) for x in self.rule(i)]
        if len(d) != self.shape.size:
            raise ShapeMismatchError(
                f"factor {i} expects diagonals of length {self.shape.size}")
        if not all(d):
            raise InvalidAutomorphismError(
                f"conjugating matrix at factor {i} is singular")
        return [x.as_integer_ratio() for x in d] if ratios else d

    def inverted(self) -> "LocalAutomorphism":
        return LocalAutomorphism(
            self.shape, lambda i: tuple(1 / x for x in self.diagonal(i)))


def limit_automorphism_apply(phi: LocalAutomorphism,
                             a: TensorElement) -> TensorElement:
    """Conjugate each supported factor: m -> x_i^{-1} m x_i.

    For x_i = diag(d) this scales stored entry (r, c) by d[c] / d[r], and
    leaves it as it is where d[r] == d[c]: the diagonal, and every entry under
    the identity rule.  This orientation scales the upper block nilpotent at
    factor i by the index-scaling rule's lower diagonal entry.  Conjugation is
    injective and keeps entries nonzero, so terms stay canonical.  The rule
    is read once per factor index per call, in rational as integer ratios
    (_read), checked as diagonal() checks it.
    """
    _check_shape(phi, a)
    rational, diagonals, terms = a.shape.domain is Domain.RATIONAL, {}, []
    for coeff, factors in a.terms:
        new = []
        for i, f in factors:
            d = diagonals.get(i)
            if d is None:
                d = diagonals[i] = phi._read(i, rational)
            moved = []
            for (r, c), x in f:
                dr, dc = d[r], d[c]
                if dr != dc and rational:  # x * dc / dr in lowest terms
                    n, den = x._numerator * dc[0] * dr[1], x._denominator * dc[1] * dr[0]
                    x = reduced(-n, -den) if den < 0 else reduced(n, den)
                elif dr != dc:
                    x = x * (dc / dr)
                moved.append(((r, c), x))
            new.append((i, tuple(moved)))
        terms.append((coeff, tuple(new)))
    return TensorElement._of_canonical(a.shape, tuple(terms))


def block_nilpotent(shape: FactorShape, i: int, coeff=1) -> TensorElement:
    """coeff * [[0, I_k], [0, 0]] at factor i (k = m / 2), identity
    elsewhere; the zero element for coeff 0."""
    one, k, i = scalars.one(shape.domain), shape.size // 2, _index(i)
    coeff = scalars.coerce(shape.domain, coeff)
    f = tuple([((r, r + k), one) for r in range(k)])
    return TensorElement._of_canonical(shape, ((coeff, ((i, f),)),) if coeff else ())


def witness_sequence(n_max: int, shape: FactorShape | None = None):
    """Pairs (||b_n||, ||phi(b_n)||) for b_n = (1/n) * nilpotent at factor n.

    The first components tend to zero while the second stay constant, so the
    limit automorphism is not norm-continuous.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    shape = shape or FactorShape()
    phi = LocalAutomorphism.index_scaling(shape)
    out = []
    for n in range(1, n_max + 1):
        b = block_nilpotent(shape, n, reduced(1, n))
        out.append((tp_norm(b), tp_norm(limit_automorphism_apply(phi, b))))
    return out


def witness_discontinuous(pairs) -> bool:
    """The witness verdict: over at least two pairs, ||b_n|| strictly
    decreases and ||phi(b_n)|| is constant."""
    decreasing = all(a > b for (a, _), (b, _) in zip(pairs, pairs[1:]))
    return len(pairs) > 1 and decreasing and len({after for _, after in pairs}) == 1
