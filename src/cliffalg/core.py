"""Exact arithmetic in the Clifford algebra of a diagonal quadratic form.

Basis blades are ordered products of generators, stored as bitsets; a
multivector is a finitely supported blade -> scalar map tied to a context.
A context is the one object for the algebra's data: the scalar domain and
the diagonal form q_k = f(v_k), a default plus finitely many overrides, with
the tables the product kernels read derived from them.  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from . import scalars
from .errors import (DegenerateFormError, DomainMismatchError,
                     UnsupportedDomainError)
from .scalars import Domain, reduced


class Blade(int):
    """A strictly increasing set of generator indices, as the int bitmask.

    Bit k-1 set means generator index k is present; Blade(0) is the unit.
    Hash, equality and ordering are those of the int.
    """

    __slots__ = ()

    @staticmethod
    def of(*indices: int) -> "Blade":
        return Blade.from_indices(indices)

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "Blade":
        bits = 0
        for k in indices:
            if k < 1:
                raise ValueError(f"generator index must be >= 1, got {k}")
            if bits >> (k - 1) & 1:
                raise ValueError(f"duplicate generator index {k}")
            bits |= 1 << (k - 1)
        return Blade(bits)

    @property
    def indices(self) -> tuple[int, ...]:
        out = []
        bits = self
        while bits:
            low = bits & -bits
            out.append(low.bit_length())
            bits ^= low
        return tuple(out)

    @property
    def grade(self) -> int:
        return self.bit_count()

    @property
    def parity(self) -> int:
        return self.grade & 1

    @property
    def max_index(self) -> int:
        return self.bit_length()

    def __contains__(self, k: int) -> bool:
        return k >= 1 and (self >> (k - 1)) & 1 == 1

    def sort_key(self):
        return (self.grade, self.indices)

    def __repr__(self):
        return f"Blade({int(self)})"

    def __str__(self):
        if self == 0:
            return "1"
        return "*".join(f"e{k}" for k in self.indices)


UNIT_BLADE = Blade(0)


def _numerators(pairs, gaussian: bool, scale: int = 1) -> tuple[int, list]:
    """(den, [(key, n)]) for (key, exact value) pairs: den is the lcm of the
    values' denominators and n = scale * den * value, an int, or an (re, im)
    pair of ints for Gaussian values; each value's parts are read once."""
    if gaussian:
        rows = [(k, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
                for k, c in pairs]
        den = math.lcm(*[r[2] for r in rows], *[r[4] for r in rows])
        f = scale * den
        return den, [(k, (rn * (f // rd), im * (f // idn)))
                     for k, rn, rd, im, idn in rows]
    rows = [(k, c.numerator, c.denominator) for k, c in pairs]
    den = math.lcm(*[d for _, _, d in rows])
    f = scale * den
    return den, [(k, n * (f // d)) for k, n, d in rows]


@dataclass(frozen=True)
class Context:
    """Scalar domain + diagonal form q_i = f(v_i): a default plus finite
    overrides, coerced into the domain; fixed per computation."""

    domain: Domain = Domain.RATIONAL
    default: object = Fraction(1)
    overrides: tuple = ()
    _table: dict = field(init=False, repr=False, compare=False)
    # Exact domains: a common denominator of every q value, and each value
    # times it (an int, or an (re, im) pair of ints for Gaussian values).
    _qden: int = field(init=False, repr=False, compare=False)
    _qnum: dict = field(init=False, repr=False, compare=False)
    _qnum_default: object = field(init=False, repr=False, compare=False)
    # Generators whose q_k can change a weight: the override keys when the
    # default is one, else all (-1).  A c64 product by 1+0j can flip a zero's
    # sign or turn inf into nan, and it fixes only +-(1+0j), the weight before
    # the lowest override: there it is every generator from that one up.
    _mask: int = field(init=False, repr=False, compare=False)
    _one: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, _ in self.overrides:
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ValueError(f"signature override keys must be generator "
                                 f"indices >= 1, got {k!r}")
        default = scalars.coerce(self.domain, self.default)
        overrides = tuple(sorted(((k, scalars.coerce(self.domain, v))
                                  for k, v in self.overrides), key=lambda kv: kv[0]))
        if not default:
            raise DegenerateFormError("default signature value must be nonzero")
        for k, v in overrides:
            if not v:
                raise DegenerateFormError(f"signature value q_{k} is zero")
        # First override wins, as in a scan of the tuple (the sort is stable).
        table = dict(reversed(overrides))
        den, nums, num_default = 1, None, None
        if self.domain.is_exact:
            den, nums = _numerators([(0, default), *table.items()],
                                    self.domain is Domain.GAUSSIAN)
            (_, num_default), nums = nums[0], dict(nums[1:])
        keys, mask = [1 << (k - 1) for k in table], -1
        if default == 1 and self.domain is not Domain.C64:
            mask = sum(keys)
        elif default == 1 and math.copysign(1, default.imag) > 0:
            mask = -min(keys, default=0)
        for name, value in (("default", default), ("overrides", overrides),
                            ("_table", table), ("_qden", den), ("_qnum", nums),
                            ("_qnum_default", num_default), ("_mask", mask),
                            ("_one", scalars.one(self.domain))):
            object.__setattr__(self, name, value)

    @staticmethod
    def make(domain: Domain = Domain.RATIONAL, default=1, overrides=None) -> "Context":
        return Context(domain, default, tuple((overrides or {}).items()))

    def q(self, k: int):
        return self._table.get(k, self.default)

    def require_unit(self, indices, what: str) -> None:
        """Raise UnsupportedDomainError naming the smallest k in `indices` (a
        set or range) with q_k != 1; a unit default reads only the overrides."""
        pool = self._table if self.default == 1 else indices
        bad = [k for k in pool if k in indices and self.q(k) != 1]
        if bad:
            raise UnsupportedDomainError(
                f"{what} requires q == 1 on the support (q_{min(bad)} != 1)")


def check_context(a: Context, b: Context) -> None:
    """Operands of one operation must share a context."""
    if a is not b and a != b:
        raise DomainMismatchError("operands built over different contexts")


def parity_bit(parity: str) -> int:
    """0 for "even", 1 for "odd": a blade's grade parity."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 0 if parity == "even" else 1


def _prefix_parity(bits: int) -> int:
    """Mask with bit i set iff an odd number of `bits` lie strictly below i.

    The reordering sign of v_A * v_B is (-1)**popcount(A & _prefix_parity(B)):
    that popcount counts the pairs (i in A, j in B) with i > j.  Above the top
    bit of `bits` the mask is constant, hence negative when the grade is odd.
    """
    mask = 0
    while bits:
        low = bits & -bits
        mask ^= -(low << 1)
        bits ^= low
    return mask


def _xor_rank(masks) -> int:
    """GF(2) rank of bitmasks: each kept vector lacks the leading bits of those
    kept before it, so reducing in insertion order sends their span to 0."""
    basis = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        basis += [v] if v else []
    return len(basis)


def _weight(ctx: Context, common: int, odd: int):
    """(-1)**odd * prod of q_k over the bits of `common`, multiplied left to
    right from +-1 in increasing k (the order float results depend on); the
    bits outside ctx._mask are skipped, as their factors change no bit."""
    w = ctx._one
    if odd:
        w = -w
    common &= ctx._mask
    while common:
        low = common & -common
        w = w * ctx.q(low.bit_length())
        common ^= low
    return w


def _int_weight(ctx: Context, common: int, odd: int, width: int):
    """(-1)**odd * prod of q_k over the bits of `common` as a numerator over
    qden**width, for an exact context whose q values share the denominator
    qden and width >= popcount(common); an (re, im) pair of ints for
    Gaussian values."""
    nums, default = ctx._qnum, ctx._qnum_default
    gaussian = ctx.domain is Domain.GAUSSIAN
    wr, wi = ctx._qden ** (width - common.bit_count()), 0
    if odd:
        wr = -wr
    while common:
        low = common & -common
        q = nums.get(low.bit_length(), default)
        if gaussian:
            wr, wi = wr * q[0] - wi * q[1], wr * q[1] + wi * q[0]
        else:
            wr *= q
        common ^= low
    return (wr, wi) if gaussian else wr


def blade_product(a: Blade, b: Blade, ctx: Context) -> tuple[object, Blade]:
    """Multiply two basis blades: returns (coefficient, symmetric difference).

    The sign counts index inversions of the concatenation (a then b); each
    shared index contributes its signature value via v_k**2 = q_k.
    """
    odd = (a & _prefix_parity(b)).bit_count() & 1
    return _weight(ctx, a & b, odd), Blade(a ^ b)


class Multivector:
    """Finitely supported blade -> scalar map over a fixed context."""

    __slots__ = ("context", "terms")

    def __init__(self, context: Context, terms: Mapping[Blade, object] | None = None,
                 _canonical: bool = False):
        self.context = context
        if _canonical:
            self.terms = dict(terms or {})
        else:
            clean = {}
            for blade, coeff in (terms or {}).items():
                coeff = scalars.coerce(context.domain, coeff)
                if coeff:
                    clean[blade] = coeff
            self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(context: Context) -> "Multivector":
        return Multivector(context, {}, _canonical=True)

    @staticmethod
    def unit(context: Context) -> "Multivector":
        return Multivector(context, {UNIT_BLADE: scalars.one(context.domain)},
                           _canonical=True)

    @staticmethod
    def scalar(context: Context, value) -> "Multivector":
        return Multivector(context, {UNIT_BLADE: value})

    @staticmethod
    def generator(context: Context, k: int) -> "Multivector":
        if k < 1:
            raise ValueError(f"generator index must be >= 1, got {k}")
        return Multivector(context, {Blade(1 << (k - 1)): context._one},
                           _canonical=True)

    @staticmethod
    def blade(context: Context, blade: Blade, coeff=1) -> "Multivector":
        return Multivector(context, {blade: coeff})

    # -- structure ----------------------------------------------------

    def coeff(self, blade: Blade):
        return self.terms.get(blade, scalars.zero(self.context.domain))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[int]:
        out = 0
        for blade in self.terms:
            out |= blade
        return frozenset(Blade(out).indices)

    def max_index(self) -> int:
        return max((blade.max_index for blade in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Blade, object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        check_context(self.context, other.context)
        terms = dict(self.terms)
        _accumulate(terms, other.terms.items())
        return Multivector(self.context, terms, _canonical=True)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.context, {b: -c for b, c in self.terms.items()},
                           _canonical=True)

    def scale(self, value) -> "Multivector":
        value = scalars.coerce(self.context.domain, value)
        if not value:
            return Multivector.zero(self.context)
        return linear_combine([(value, self)], self.context)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __repr__(self):
        from .render import render

        return f"Multivector({render(self)})"


def _accumulate(terms: dict, items: Iterable[tuple[Blade, object]]) -> None:
    """Add (blade, value) pairs into `terms` in order; a sum that reaches zero
    is dropped (and re-enters at the end if a later value revives it)."""
    for blade, value in items:
        s = terms.get(blade)
        s = value if s is None else s + value
        if not s:
            terms.pop(blade, None)
        else:
            terms[blade] = s


def _from_numerators(items: Iterable, den: int, gaussian: bool) -> dict:
    """{blade: n / den} for (blade, n) pairs with int numerators n, (re, im)
    pairs for Gaussian, each value built reduced by scalars.reduced."""
    if gaussian:
        return {blade: reduced(re, den, im) for blade, (re, im) in items}
    return {blade: reduced(n, den) for blade, n in items}


def linear_combine(pairs: Iterable[tuple[object, Multivector]],
                   context: Context | None = None) -> Multivector:
    """Sum of scalar multiples; operands must share one context.

    Exact values are summed as integers over one common denominator.
    """
    pairs = list(pairs)
    if context is None:
        if not pairs:
            raise ValueError("empty combination needs an explicit context")
        context = pairs[0][1].context
    checked = []
    for value, mv in pairs:
        check_context(mv.context, context)
        checked.append((scalars.coerce(context.domain, value), mv))
    if not context.domain.is_exact:
        terms: dict[Blade, object] = {}
        for value, mv in checked:
            _accumulate(terms, ((blade, c * value) for blade, c in mv.terms.items()))
        return Multivector(context, terms, _canonical=True)
    gaussian = context.domain is Domain.GAUSSIAN
    reads = [(_numerators([(None, value)], gaussian),
              _numerators(mv.terms.items(), gaussian)) for value, mv in checked]
    den = math.lcm(*(dv * d for (dv, _), (d, _) in reads))
    acc = {}
    for (dv, [(_, f)]), (d, nums) in reads:
        k = den // (dv * d)  # f = value * den / d
        f = (f[0] * k, f[1] * k) if gaussian else f * k
        for blade, n in nums:
            s = acc.get(blade)
            if gaussian:
                t = n[0] * f[0] - n[1] * f[1], n[0] * f[1] + n[1] * f[0]
                if s is not None:
                    t = s[0] + t[0], s[1] + t[1]
                nonzero = t[0] or t[1]
            else:
                t = n * f if s is None else s + n * f
                nonzero = t
            if nonzero:
                acc[blade] = t
            else:
                acc.pop(blade, None)
    return Multivector(context, _from_numerators(acc.items(), den, gaussian), _canonical=True)


def mv_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product, by `_product`."""
    check_context(a.context, b.context)
    terms = _product(a.context, a.terms.items(), b.terms.items())
    return Multivector(a.context, terms, _canonical=True)


def _relabel(a: Multivector, blade: int, odd: int) -> Multivector:
    """a * (-1)**odd v_blade in a context other than c64, for a blade whose
    product with each term of a has weight +-1 (no masked generator in a &
    blade): A -> A ^ blade with the reordering sign of v_A v_blade, in a's
    term order.  Exact coefficients are negated; floats are multiplied by
    +-1.0 as in mv_product, so a NaN keeps its sign there too."""
    ctx = a.context
    P = _prefix_parity(blade)
    terms = {}
    if ctx.domain.is_exact:
        for A, c in a.terms.items():
            terms[Blade(A ^ blade)] = -c if ((A & P).bit_count() ^ odd) & 1 else c
    else:
        signs = ctx._one, -ctx._one
        for A, c in a.terms.items():
            terms[Blade(A ^ blade)] = c * signs[((A & P).bit_count() ^ odd) & 1]
    return Multivector(ctx, terms, _canonical=True)


def _anticommuting(A: int, tb) -> Iterator:
    """The entries of tb whose blade B anticommutes with A, lazily: v_B v_A =
    (-1)**(|A||B| - |A & B|) v_A v_B."""
    r = A.bit_count()
    return (t for t in tb if (r * t[0].bit_count() - (A & t[0]).bit_count()) & 1)


def _product(ctx: Context, a, b, ad: bool = False) -> dict:
    """The product of the (blade, nonzero coefficient) pairs a and b, or with
    `ad` the commutator ab - ba: twice the anticommuting pairs alone.

    Each pair adds ca * cb * w to its blade's sum, in pair order.  Exact
    values are first brought to integers over one denominator per operand
    (a's doubled under `ad`): ints, or (re, im) pairs in a loop of their own.
    The weight w, the reordering sign times the q_k over A & B & mask, sees A
    only through its class A & kb, kb the masked OR of b's blades.  When a
    falls into at most 8 classes (three masked generators) with at least four
    terms each, every class gets a row of b with its weights folded in
    (_rows): at most 8 * len(b) entries, each read four times or more, which
    repays building it.  Otherwise each pair looks w up by key = (A & B &
    mask) << 1 | sign.  Float sums are those of blade_product terms; under
    `ad` each is doubled once, which is the sum of the doubled pairs unless a
    partial sum passes half the largest float.  A sum that reaches zero is
    dropped (pop: a float pair can underflow to 0 before its blade has a sum).
    """
    exact = ctx.domain.is_exact
    gaussian = ctx.domain is Domain.GAUSSIAN
    if exact:
        da, a = _numerators(a, gaussian, 2 if ad else 1)
        db, b = _numerators(b, gaussian)
    tb = [(B, _prefix_parity(B), cb) for B, cb in b]
    ka = kb = 0
    for A, _ in a:
        ka |= A
    for B, _, _ in tb:
        kb |= B
    kb &= ctx._mask
    width = (ka & kb).bit_count()
    rows = len(a) >= 4 and _rows(ctx, a, tb, kb, width)
    if gaussian:
        acc = _gaussian_loop(ctx, a, tb, ad, width, rows, kb)
        return _from_numerators(zip(map(Blade, acc), acc.values()),
                                da * db * ctx._qden ** width, True)
    mask = ctx._mask
    weights = {}
    acc = {}
    get = acc.get
    for A, ca in a:
        if rows and exact:
            signed = ca, -ca
            row = rows[A & kb]
            for B, P, cb in _anticommuting(A, row) if ad else row:
                v = signed[(A & P).bit_count() & 1] * cb
                x = A ^ B
                s = get(x)
                s = v if s is None else s + v
                if s:
                    acc[x] = s
                else:
                    acc.pop(x, None)
            continue
        if rows:
            row = rows[A & kb]
            for B, P, cb, w in _anticommuting(A, row) if ad else row:
                v = ca * cb * w[(A & P).bit_count() & 1]
                x = A ^ B
                s = get(x)
                s = v if s is None else s + v
                if s:
                    acc[x] = s
                else:
                    acc.pop(x, None)
            continue
        Am = A & mask
        for B, P, cb in _anticommuting(A, tb) if ad else tb:
            key = (Am & B) << 1 | (A & P).bit_count() & 1
            w = weights.get(key)
            if w is None:
                w = weights[key] = (_int_weight(ctx, key >> 1, key & 1, width) if exact
                                    else _weight(ctx, key >> 1, key & 1))
            v = ca * cb * w
            x = A ^ B
            s = get(x)
            s = v if s is None else s + v
            if s:
                acc[x] = s
            else:
                acc.pop(x, None)
    if exact:
        return _from_numerators(zip(map(Blade, acc), acc.values()),
                                da * db * ctx._qden ** width, False)
    if ad:
        return {Blade(x): s + s for x, s in acc.items()}
    return {Blade(x): s for x, s in acc.items()}


def _rows(ctx: Context, a, tb, kb: int, width: int) -> dict | None:
    """{class c: tb with each cb folded with the weight w of c & B}, or None
    unless a falls into at most 8 classes A & kb, four terms or more each.  An
    exact entry holds cb * w, an int or (re, im) numerator over qden**width
    (the row is tb itself when width is 0); a float one holds cb and (w, -w),
    both built by _weight, so that a pair multiplies in blade_product's order."""
    classes = {A & kb for A, _ in a}
    if len(classes) > 8 or len(a) < 4 * len(classes):
        return None
    exact = ctx.domain.is_exact
    if exact and not width:
        return {0: tb}
    rows = {}
    for c in classes:
        ws = {k: _int_weight(ctx, k, 0, width) if exact
              else (_weight(ctx, k, 0), _weight(ctx, k, 1))
              for k in {c & B for B, _, _ in tb}}
        if ctx.domain is Domain.GAUSSIAN:
            rows[c] = [(B, P, (br * wr - bi * wi, br * wi + bi * wr))
                       for B, P, (br, bi) in tb for wr, wi in (ws[c & B],)]
        else:
            rows[c] = [(B, P, cb * ws[c & B]) if exact else (B, P, cb, ws[c & B])
                       for B, P, cb in tb]
    return rows


def _gaussian_loop(ctx: Context, a, tb, ad: bool, width: int, rows, kb: int) -> dict:
    """_product's loop on (re, im) integer numerators."""
    mask = ctx._mask
    weights = {}
    acc = {}
    get = acc.get
    for A, (ar, ai) in a:
        if rows:
            signed = (ar, ai), (-ar, -ai)
            row = rows[A & kb]
            for B, P, (br, bi) in _anticommuting(A, row) if ad else row:
                xr, xi = signed[(A & P).bit_count() & 1]
                re = xr * br - xi * bi
                im = xr * bi + xi * br
                x = A ^ B
                s = get(x)
                if s is not None:
                    re += s[0]
                    im += s[1]
                if re or im:
                    acc[x] = re, im
                else:
                    acc.pop(x, None)
            continue
        Am = A & mask
        for B, P, (br, bi) in _anticommuting(A, tb) if ad else tb:
            key = (Am & B) << 1 | (A & P).bit_count() & 1
            w = weights.get(key)
            if w is None:
                w = weights[key] = _int_weight(ctx, key >> 1, key & 1, width)
            wr, wi = w
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            if wi:
                re, im = re * wr - im * wi, re * wi + im * wr
            else:
                re *= wr
                im *= wr
            x = A ^ B
            s = get(x)
            if s is not None:
                re += s[0]
                im += s[1]
            if re or im:
                acc[x] = re, im
            else:
                acc.pop(x, None)
    return acc


def reverse(a: Multivector) -> Multivector:
    """The involution fixing V: blade of grade r picks up (-1)**(r(r-1)/2)."""
    terms = {}
    for blade, coeff in a.terms.items():
        r = blade.grade
        if (r * (r - 1) // 2) & 1:
            coeff = -coeff
        terms[blade] = coeff
    return Multivector(a.context, terms, _canonical=True)


def parity_project(a: Multivector, parity: str) -> Multivector:
    """Even or odd part by blade-grade parity."""
    want = parity_bit(parity)
    return Multivector(a.context,
                       {b: c for b, c in a.terms.items() if b.parity == want},
                       _canonical=True)
