"""Exact arithmetic in the Clifford algebra of a diagonal quadratic form.

Basis blades are ordered products of generators, stored as bitsets; a
multivector is a finitely supported blade -> scalar map tied to a context.
A context is the one object for the algebra's data: the scalar domain and
the diagonal form q_k = f(v_k), a default plus finitely many overrides, with
the tables the product kernels read derived from them.  All values are
immutable and all operations are pure.

An exact multivector has one form: integer numerators over one denominator,
reduced so that no prime divides them all.  Products, sums, traces and
norms read and write that form; `Multivector.terms` builds a value only
when it is read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

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
    """(den, [(key, n)]) for (key, exact value) pairs, read twice, the zero
    values left out: den is the lcm of the values' denominators and n =
    scale * den * value, an int, or an (re, im) pair of ints for Gaussian
    values."""
    if gaussian:
        ratios = [(c.re.as_integer_ratio(), c.im.as_integer_ratio()) for _, c in pairs]
        den = math.lcm(*{d for parts in ratios for _, d in parts})
        f = scale * den
        return den, [(k, (rn * (f // rd), im * (f // idn)))
                     for (k, _), ((rn, rd), (im, idn)) in zip(pairs, ratios) if rn or im]
    ratios = [c.as_integer_ratio() for _, c in pairs]
    den = math.lcm(*{d for _, d in ratios})
    f = scale * den
    return den, [(k, n * (f // d)) for (k, _), (n, d) in zip(pairs, ratios) if n]


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
    # 1 as a Multivector stores it: the numerator 1 or (1, 0) over 1, or _one
    _unit: object = field(init=False, repr=False, compare=False)

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
                            ("_one", one := scalars.one(self.domain)),
                            ("_unit", {Domain.RATIONAL: 1, Domain.GAUSSIAN: (1, 0)}
                             .get(self.domain, one))):
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
    """Finitely supported blade -> scalar map over a fixed context.

    Exact values are stored as `_num`, each blade's nonzero int or (re, im)
    numerator, over one `_den` > 0 with gcd(_den, every part) == 1, so equal
    values have equal forms; floats as their nonzero values, with `_den` 0.
    `_den` given to the constructor marks `terms` as this stored form.  Only
    this module reads it: a result's keys are plain ints in every domain,
    and the readers that hand keys out (`terms`, `_ratios`) give Blades.
    """

    __slots__ = ("context", "_den", "_num")

    def __init__(self, context: Context, terms: Mapping[Blade, object] | None = None,
                 _den: int | None = None):
        self.context = context
        if _den is None:
            domain, kind = context.domain, type(context._one)  # what coerce keeps
            values = [(b, c if type(c) is kind else scalars.coerce(domain, c))
                      for b, c in (terms or {}).items()]
            if domain.is_exact:  # over the lcm of the reduced denominators
                _den, terms = _numerators(values, domain is Domain.GAUSSIAN)
                terms = dict(terms)
            else:
                _den, terms = 0, {b: c for b, c in values if c}
        self._den, self._num = _den, terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(context: Context) -> "Multivector":
        return Multivector(context, {}, _den=int(context.domain.is_exact))

    @staticmethod
    def unit(context: Context) -> "Multivector":
        return Multivector(context, {UNIT_BLADE: context._unit},
                           _den=int(context.domain.is_exact))

    @staticmethod
    def scalar(context: Context, value) -> "Multivector":
        if type(value) is int and context.domain.is_exact:  # value / 1 as it is
            n = (value, 0) if context.domain is Domain.GAUSSIAN else value
            return Multivector(context, {UNIT_BLADE: n} if value else {}, _den=1)
        return Multivector(context, {UNIT_BLADE: value})

    @staticmethod
    def generator(context: Context, k: int) -> "Multivector":
        return Multivector(context, {Blade.from_indices((k,)): context._unit},
                           _den=int(context.domain.is_exact))

    @staticmethod
    def blade(context: Context, blade: Blade, coeff=1) -> "Multivector":
        return Multivector(context, {blade: coeff})

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Blade, object]:
        """The blade -> value map, read-only; exact values are built as read."""
        return _Terms(self._den, self._num, self.context.domain is Domain.GAUSSIAN)

    def coeff(self, blade: Blade):
        return self.terms.get(blade, scalars.zero(self.context.domain))

    @property
    def is_zero(self) -> bool:
        return not self._num

    def support(self) -> frozenset[int]:
        out = 0
        for blade in self._num:
            out |= blade
        return frozenset(Blade(out).indices)

    def max_index(self) -> int:
        return max((blade.bit_length() for blade in self._num), default=0)

    def sorted_terms(self) -> list[tuple[Blade, object]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        check_context(self.context, other.context)
        return _sum(self.context, (self, other))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.context, {b: _neg(c) for b, c in self._num.items()},
                           _den=self._den)

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
        return (self.context == other.context and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.context, self._den, frozenset(self._num.items())))

    def __repr__(self):
        from .render import render

        return f"Multivector({render(self)})"


def _neg(c):
    """-c for a float value or an exact numerator."""
    return (-c[0], -c[1]) if type(c) is tuple else -c


class _Terms(Mapping):
    """A multivector's terms, {Blade: value}, read-only; an exact value is
    built when it is read, a float one is the stored value."""

    def __init__(self, den: int, num: dict, gaussian: bool):
        self._den, self._num, self._gaussian = den, num, gaussian

    def __getitem__(self, blade):  # n / den in lowest terms
        n = self._num[blade]
        if not self._den:
            return n
        return reduced(n[0], self._den, n[1]) if self._gaussian else reduced(n, self._den)

    def __iter__(self):
        return map(Blade, self._num)

    def __len__(self):
        return len(self._num)

    def items(self):  # one pass, not a lookup per key
        den, num = self._den, self._num
        if not den:
            return dict(zip(map(Blade, num), num.values())).items()
        if self._gaussian:
            return {Blade(b): reduced(re, den, im) for b, (re, im) in num.items()}.items()
        return {Blade(b): reduced(n, den) for b, n in num.items()}.items()


def _lowest(context: Context, den: int, num: dict) -> Multivector:
    """num / den with den and every part divided by their gcd; a float map
    (den 0) as it is."""
    if den > 1:
        gaussian = context.domain is Domain.GAUSSIAN
        g = math.gcd(den, *(chain.from_iterable(num.values()) if gaussian else num.values()))
        if g != 1:
            den //= g
            num = {b: (n[0] // g, n[1] // g) if gaussian else n // g for b, n in num.items()}
    return Multivector(context, num, _den=den)


def _split(a: Multivector, keep) -> tuple[Multivector, Multivector]:
    """(the terms of a whose blade satisfies `keep`, the others)."""
    parts = {}, {}
    for b, c in a._num.items():
        parts[not keep(b)][b] = c
    return _lowest(a.context, a._den, parts[0]), _lowest(a.context, a._den, parts[1])


def _ratios(a: Multivector):
    """(blade, parts) per term of a: its value n / d in lowest terms as
    (n, d), or (rn, rd, in, id) if Gaussian; a float value as it is."""
    den, gcd = a._den, math.gcd
    if not den:
        return zip(map(Blade, a._num), a._num.values())
    if a.context.domain is Domain.GAUSSIAN:
        return [(Blade(b), (re // g, den // g, im // h, den // h))
                for b, (re, im) in a._num.items() for g, h in ((gcd(re, den), gcd(im, den)),)]
    return [(Blade(b), (n // g, den // g)) for b, n in a._num.items() for g in (gcd(n, den),)]


def _form(a: Multivector) -> tuple[int, int, int]:
    """(terms, denominator, union of the blades) of a; the denominator is 0
    for floats."""
    blades = 0
    for b in a._num:
        blades |= b
    return len(a._num), a._den, blades


def _size(a: Multivector) -> int:
    """The largest numerator-plus-denominator bits of a's values in lowest
    terms, over both parts of a Gaussian value; 0 for floats."""
    den = a._den
    return max((_bits(n, den) for n in a._num.values()), default=0) if den else 0


def _bits(n, den: int) -> int:
    if type(n) is tuple:
        return _bits(n[0], den) + _bits(n[1], den)
    g = math.gcd(n, den)
    return (n // g).bit_length() + (den // g).bit_length()


def _sum(context: Context, mvs) -> Multivector:
    """The sum of the multivectors, added term by term in order."""
    return _combined(context, [(None, mv._den, mv._num) for mv in mvs])


def linear_combine(pairs: Iterable[tuple[object, Multivector]],
                   context: Context | None = None) -> Multivector:
    """Sum of scalar multiples; operands must share one context.

    The terms are added in order by `_combined`.  In the exact domains a
    zero scalar adds nothing; in f64 and c64 every scalar multiplies, so
    0 * inf adds nan.  (`Multivector.scale(0)` is zero.)
    """
    pairs = list(pairs)
    if context is None:
        if not pairs:
            raise ValueError("empty combination needs an explicit context")
        context = pairs[0][1].context
    parts = []
    for value, mv in pairs:
        check_context(mv.context, context)
        value = scalars.coerce(context.domain, value)
        dv, f = (_numerators(((None, value),), context.domain is Domain.GAUSSIAN)
                 if mv._den else (0, [(None, value)]))
        if f:  # a zero exact scalar adds nothing
            parts.append((f[0][1], dv * mv._den, mv._num))
    return _combined(context, parts)


def _linear_image(a: Multivector, images: list) -> Multivector:
    """The sum of c_S * images[j] over a's j-th term (S, c_S), c_S as stored."""
    return _combined(a.context, [(n, a._den * img._den, img._num)
                                 for n, img in zip(a._num.values(), images)])


def _combined(context: Context, parts) -> Multivector:
    """The sum of f * num / d over the (f, d, num) parts: f an int or (re, im)
    numerator over d, a float value with d = 0, or None to add num as it is
    stored.  The terms are added in order, exact ones as ints over the lcm of
    the d (floats keep den 0: an empty lcm is 1), float ones as n * f; a sum
    that reaches zero is dropped, and re-enters at the end if revived."""
    gaussian = context.domain is Domain.GAUSSIAN
    den = math.lcm(*(d for _, d, _ in parts)) if context.domain.is_exact else 0
    acc = {}
    for f, d, num in parts:
        if d:  # f * n / d == f * k * n / den
            k, f = den // d, context._unit if f is None else f
            f = (f[0] * k, f[1] * k) if gaussian else f * k
        for blade, n in num.items():
            s = acc.get(blade)
            if gaussian:
                t = n[0] * f[0] - n[1] * f[1], n[0] * f[1] + n[1] * f[0]
                if s is not None:
                    t = s[0] + t[0], s[1] + t[1]
                nonzero = t[0] or t[1]
            else:
                t = n if f is None else n * f
                if s is not None:
                    t = s + t
                nonzero = t
            if nonzero:
                acc[blade] = t
            else:
                acc.pop(blade, None)
    return _lowest(context, den, acc)


def mv_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product, by `_product`."""
    check_context(a.context, b.context)
    return _product(a.context, a._den, a._num.items(), b._den, b._num.items())


def _commutators(pairs, x: Multivector) -> Multivector:
    """The sum of c * (v_S x - x v_S) over the (blade S, nonzero value c)
    pairs, by _product under `ad`; exact c are read as numerators, doubled."""
    da, pairs = (_numerators(pairs, x.context.domain is Domain.GAUSSIAN, 2)
                 if x._den else (0, pairs))
    return _product(x.context, da, pairs, x._den, x._num.items(), ad=True)


def _relabel(a: Multivector, blade: int, odd: int) -> Multivector:
    """a * (-1)**odd v_blade in a context other than c64, for a blade whose
    product with each term of a has weight +-1 (no masked generator in a &
    blade): A -> A ^ blade with the reordering sign of v_A v_blade, in a's
    term order.  Exact numerators are negated; floats are multiplied by
    +-1.0 as in mv_product, so a NaN keeps its sign there too."""
    ctx = a.context
    P = _prefix_parity(blade)
    terms = {}
    if a._den:
        for A, c in a._num.items():
            terms[A ^ blade] = _neg(c) if ((A & P).bit_count() ^ odd) & 1 else c
    else:
        signs = ctx._one, -ctx._one
        for A, c in a._num.items():
            terms[A ^ blade] = c * signs[((A & P).bit_count() ^ odd) & 1]
    return Multivector(ctx, terms, _den=a._den)


def _anticommuting(A: int, tb) -> Iterator:
    """The entries of tb whose blade B anticommutes with A, lazily: v_B v_A =
    (-1)**(|A||B| - |A & B|) v_A v_B."""
    r = A.bit_count()
    return (t for t in tb if (r * t[0].bit_count() - (A & t[0]).bit_count()) & 1)


def _product(ctx: Context, da: int, a, db: int, b, ad: bool = False) -> Multivector:
    """The product of the (blade, nonzero coefficient) pairs a and b, or with
    `ad` the commutator ab - ba: twice the anticommuting pairs alone.

    Exact coefficients are numerators over da and db (a's doubled under
    `ad`): ints, or (re, im) pairs in a loop of their own; floats are
    values, with da = db = 0.  Each pair adds ca * cb * w to its blade's
    sum, in pair order.  The weight w, the reordering sign times the q_k
    over A & B & mask, sees A only through its class A & kb, kb the masked
    OR of b's blades.  When a falls into at most 8 classes (three masked
    generators) with at least four terms each, every class gets a row of b
    with its weights folded in (_rows): at most 8 * len(b) entries, each
    read four times or more, which repays building it.  Otherwise each pair
    looks w up by key = (A & B & mask) << 1 | sign.  Float sums are those of
    blade_product terms; under `ad` each is doubled once, which is the sum
    of the doubled pairs unless a partial sum passes half the largest float.
    A sum that reaches zero is dropped (pop: a float pair can underflow to
    0 before its blade has a sum).
    """
    exact = ctx.domain.is_exact
    tb = [(B, _prefix_parity(B), cb) for B, cb in b]
    ka = kb = 0
    for A, _ in a if exact else ():  # width is read by _int_weight alone
        ka |= A
    for B, _, _ in tb if exact or len(a) >= 4 else ():  # and kb by rows
        kb |= B
    kb &= ctx._mask
    width = (ka & kb).bit_count()
    rows = len(a) >= 4 and _rows(ctx, a, tb, kb, width)
    if ctx.domain is Domain.GAUSSIAN:
        acc = _gaussian_loop(ctx, a, tb, ad, width, rows, kb)
        return _lowest(ctx, da * db * ctx._qden ** width, acc)
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
        return _lowest(ctx, da * db * ctx._qden ** width, acc)
    return Multivector(ctx, {x: s + s for x, s in acc.items()} if ad else acc, _den=0)


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
            re, im = re * wr - im * wi, re * wi + im * wr
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
    for blade, c in a._num.items():
        r = blade.bit_count()
        terms[blade] = _neg(c) if (r * (r - 1) // 2) & 1 else c
    return Multivector(a.context, terms, _den=a._den)


def parity_project(a: Multivector, parity: str) -> Multivector:
    """Even or odd part by blade-grade parity."""
    want = parity_bit(parity)
    return _split(a, lambda b: b.bit_count() & 1 == want)[0]


def _rev_pairing(a: Multivector, b: Multivector):
    """tr(a * reverse(b)) over one context, bilinear with no conjugation: the
    sum of m_S * n_S * q_S over the blades S both store (each numerator with
    itself when b is a), q_S read from a table by S & mask.  Exact values are
    summed as integers over a._den * b._den, each q_S a numerator over
    qden**width; float terms are added in a's order, each q_S by _weight, as
    the full product's trace terms."""
    ctx, mask, num, exact = a.context, a.context._mask, a._num, a._den
    pairs = (zip(num, num.values(), num.values()) if a is b else
             [(S, m, n) for S, m in num.items() if (n := b._num.get(S)) is not None])
    classes = {S & mask for S in num}
    width = max((c.bit_count() for c in classes), default=0)
    q = {c: _int_weight(ctx, c, 0, width) if exact else _weight(ctx, c, 0)
         for c in classes}
    if not exact:  # a sum that reaches zero restarts
        total = None
        for S, m, n in pairs:
            v = m * n * q[S & mask]
            total = (v if total is None else total + v) or None
        return total or scalars.zero(ctx.domain)
    den = a._den * b._den * ctx._qden ** width
    if ctx.domain is not Domain.GAUSSIAN:
        return reduced(sum(m * n * q[S & mask] for S, m, n in pairs), den)
    re = im = 0
    for S, (x, y), (u, v) in pairs:  # (x + y i)(u + v i)(w + z i)
        w, z = q[S & mask]
        pr, pi = x * u - y * v, x * v + y * u
        re, im = re + pr * w - pi * z, im + pr * z + pi * w
    return reduced(re, den, im)
