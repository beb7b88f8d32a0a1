"""Derivations of the Clifford algebra.

Inner ad-sums, lazy sparse families with a locality (cutoff) contract,
canonical-form extraction for even and odd finite ad-sums, and the
correspondence between skew-symmetric maps on V and even two-blade
families (with its inner witness).

Commutator convention throughout: ad(g)(x) = g*x - x*g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from . import scalars
from .core import (Blade, Context, Multivector, _anticommuting, _commutators,
                   _rev_pairing, check_context, linear_combine, mv_product,
                   parity_bit)
from .errors import (ContractViolationError, NotAdSumError, NotBogolyubovError,
                     NotSkewError, ParityError)


def ad_apply(g: Multivector, x: Multivector) -> Multivector:
    """ad(g)(x) = g*x - x*g; a derivation in x by the Leibniz rule.

    Under a non-finite q_k this differs from family_apply: a commuting pair
    whose products are infinite gives inf - inf, nan (nan+nan*i in c64),
    where family_apply's parity rule gives 0."""
    return mv_product(g, x) - mv_product(x, g)


def _check_parity(blade: Blade, want: int, kind: str) -> None:
    if blade.parity != want:
        raise ParityError(f"{blade} has the wrong parity for an {kind}")


def _check_terms(context: Context, parity: str, terms) -> tuple:
    want = parity_bit(parity)
    out = []
    for blade, coeff in terms:
        coeff = scalars.coerce(context.domain, coeff)
        if not coeff:
            continue
        _check_parity(blade, want, f"{parity} family")
        if blade == 0:
            raise ParityError("the unit blade generates the zero derivation")
        out.append((blade, coeff))
    out.sort(key=lambda term: term[0].sort_key())
    return tuple(out)


@dataclass(frozen=True)
class AdFamily:
    """Finite family sum(alpha_S * ad(v_S)) of a fixed parity."""

    context: Context
    parity: str
    terms: tuple

    @staticmethod
    def finite(context: Context, parity: str,
               terms: Iterable[tuple[Blade, object]]) -> "AdFamily":
        return AdFamily(context, parity, _check_terms(context, parity, terms))


class AdStream:
    """Lazy family of (blade, coeff) pairs with a declared locality bound.

    cutoff(M) returns a prefix length n such that every term past position n
    annihilates any element supported in {1..M}: for even parity all later
    blades have min index > M; for odd parity all later blades contain
    {1..M}.  Consumed terms are memoized; a single stream is not safe for
    concurrent evaluation.
    """

    def __init__(self, context: Context, parity: str,
                 generator: Iterator[tuple[Blade, object]],
                 cutoff: Callable[[int], int]):
        self._want = parity_bit(parity)
        self.context = context
        self.parity = parity
        self.cutoff = cutoff
        self._source = iter(generator)
        self._memo: list[tuple[Blade, object]] = []

    def prefix(self, n: int) -> list[tuple[Blade, object]]:
        while len(self._memo) < n:
            try:
                blade, coeff = next(self._source)
            except StopIteration:
                break
            coeff = scalars.coerce(self.context.domain, coeff)
            _check_parity(blade, self._want, f"{self.parity} stream")
            self._memo.append((blade, coeff))
        return self._memo[:n]

    def memoized_tail(self, n: int) -> list[tuple[Blade, object]]:
        return self._memo[n:]


def family_apply(family, x: Multivector) -> Multivector:
    """Evaluate sum(alpha_S * ad(v_S)) on x, exactly and finitely.

    For a stream, only the declared cutoff prefix is consumed; any already
    materialized term past the cutoff must have a zero coefficient or commute
    with every term of x.  Commuting pairs and zero coefficients contribute
    nothing, also under a non-finite q_k, where ad_apply's two products give
    nan (see ad_apply).
    """
    if isinstance(family, AdFamily):
        terms = family.terms
        tail = ()
    else:
        n = family.cutoff(x.max_index())
        terms = family.prefix(n)
        tail = family.memoized_tail(n)
    check_context(x.context, family.context)
    for blade, coeff in tail:
        if coeff and next(_anticommuting(blade, zip(x.terms)), None):
            raise ContractViolationError(
                f"term {blade} past the declared cutoff acts nontrivially")
    return _commutators([(S, c) for S, c in terms if c], x)


# ---------------------------------------------------------------------------
# Canonical-form extraction for finite ad-sums (generator-action tables).
# ---------------------------------------------------------------------------

def _read_coefficients(table: Mapping[int, Multivector], context: Context,
                       ks: Iterable[int], keep) -> dict:
    """Per generator k, (1/(2 q_k)) * D(v_k) * v_k exposes blade coefficients.

    `keep(blade, k)` says whether the coefficient of `blade` is visible at k.
    """
    coeffs: dict[Blade, object] = {}
    for k in ks:
        dvk = table.get(k)
        if dvk is None:
            raise NotAdSumError(f"generator-action table is missing k = {k}")
        vk = Multivector.generator(context, k)
        probe = mv_product(dvk, vk).scale(
            scalars.one(context.domain) / (2 * context.q(k)))
        for blade, coeff in probe.terms.items():
            if not keep(blade, k):
                raise NotAdSumError(
                    f"unexpected blade {blade} probing generator {k}")
            prev = coeffs.get(blade)
            if prev is None:
                coeffs[blade] = coeff
            elif prev != coeff:
                raise NotAdSumError(
                    f"inconsistent coefficient for {blade} across generators")
    return coeffs


def _extract(table: Mapping[int, Multivector], context: Context, parity: str,
             ks: range, keep) -> list[tuple[Blade, object]]:
    """Read the family off the probes at ks, then check that it reproduces
    the table there."""
    family = AdFamily.finite(context, parity,
                             _read_coefficients(table, context, ks, keep).items())
    for k in ks:
        if family_apply(family, Multivector.generator(context, k)) != table[k]:
            raise NotAdSumError(
                f"table is not the action of a finite ad-sum (mismatch at v_{k})")
    return list(family.terms)


def extract_even(table: Mapping[int, Multivector], bound: int,
                 context: Context) -> list[tuple[Blade, object]]:
    """Recover the unique even ad-sum from its action on v_1..v_bound.

    At each k the probe reveals exactly the even blades containing k; merged
    over k this covers every even blade on indices <= bound.
    """
    return _extract(table, context, "even", range(1, bound + 1),
                    keep=lambda blade, k: blade.parity == 0 and k in blade)


def extract_odd(table: Mapping[int, Multivector], bound: int,
                context: Context) -> list[tuple[Blade, object]]:
    """Recover the unique odd ad-sum; probes k = 1..bound+1 since each odd
    blade on indices <= bound misses at least one such k."""
    return _extract(table, context, "odd", range(1, bound + 2),
                    keep=lambda blade, k: blade.parity == 1 and k not in blade)


# ---------------------------------------------------------------------------
# Skew maps on V, their derivations, and orthogonal maps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewMap:
    """Finitely supported skew map psi(v_k) = sum_m psi[m,k] v_m.

    Entries are stored for i < j only; psi[j,i] = -psi[i,j], psi[i,i] = 0.
    """

    context: Context
    entries: Mapping[tuple[int, int], object]

    @staticmethod
    def from_pairs(context: Context, pairs) -> "SkewMap":
        """From {(i, j): value} or ((i, j), value) items; repeats must agree."""
        entries: dict[tuple[int, int], object] = {}
        for (i, j), value in pairs.items() if isinstance(pairs, Mapping) else pairs:
            value = scalars.coerce(context.domain, value)
            if i == j:
                if value:
                    raise NotSkewError(f"diagonal entry psi[{i},{i}] must be zero")
                continue
            key, stored = ((i, j), value) if i < j else ((j, i), -value)
            if key in entries and entries[key] != stored:
                raise NotSkewError(f"entries at {key} contradict skew-symmetry")
            entries[key] = stored
        return SkewMap(context, {k: v for k, v in entries.items()
                                 if v})

    def value(self, i: int, j: int):
        if i == j:
            return scalars.zero(self.context.domain)
        if i < j:
            return self.entries.get((i, j), scalars.zero(self.context.domain))
        return -self.value(j, i)

    def apply(self, k: int) -> Multivector:
        """psi(v_k) as a multivector."""
        terms = {}
        for (i, j), v in self.entries.items():
            if j == k:
                terms[Blade.of(i)] = v
            elif i == k:
                terms[Blade.of(j)] = -v
        return Multivector(self.context, terms)

    def support(self) -> set[int]:
        out = set()
        for i, j in self.entries:
            out.update((i, j))
        return out

    @property
    def is_zero(self) -> bool:
        return not self.entries


def bogolyubov_derivation(psi: SkewMap) -> AdFamily:
    """The even two-blade family with alpha_ij = psi_ij / 2.

    Its action restricted to V is exactly psi (orthonormal case only).
    """
    psi.context.require_unit(psi.support(), "bogolyubov_derivation")
    terms = [(Blade.of(i, j), v / 2) for (i, j), v in sorted(psi.entries.items())]
    return AdFamily.finite(psi.context, "even", terms)


def derivation_restricts_to_V(family: AdFamily) -> SkewMap:
    """Inverse of bogolyubov_derivation; fails unless every blade is a 2-blade."""
    if family.parity != "even":
        raise NotBogolyubovError("only even families can restrict to V")
    pairs = {}
    for blade, coeff in family.terms:
        if blade.grade != 2:
            raise NotBogolyubovError(
                f"blade {blade} of grade {blade.grade} maps V outside itself")
        i, j = blade.indices
        pairs[(i, j)] = 2 * coeff
    return SkewMap.from_pairs(family.context, pairs)


def inner_witness(psi: SkewMap) -> Multivector:
    """Bivector u with ad(u) equal to the Bogolyubov derivation of psi; every
    finitely supported skew map yields an inner derivation this way."""
    psi.context.require_unit(psi.support(), "inner_witness")
    return Multivector(psi.context,
                       {Blade.of(i, j): v / 2
                        for (i, j), v in psi.entries.items()})


# Absolute tolerance on each entry of M^T Q M - Q in the float domains.
GRAM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OrthogonalMap:
    """Form-preserving map, identity off a finite active index set.

    Column convention: column j of `matrix` holds the coefficients of
    phi(v_active[j]) in the basis (v_active[0], ..., v_active[-1]).
    """

    context: Context
    active: tuple[int, ...]
    matrix: tuple

    @staticmethod
    def build(context: Context, active, matrix) -> "OrthogonalMap":
        active = tuple(active)
        matrix = tuple(tuple(scalars.coerce(context.domain, v) for v in row)
                       for row in matrix)
        if len(set(active)) != len(active) or any(k < 1 for k in active):
            raise ValueError("active set must be distinct positive indices")
        if len(matrix) != len(active) or any(len(r) != len(active) for r in matrix):
            raise ValueError("matrix shape must match the active set")
        return OrthogonalMap(context, active, matrix)

    @staticmethod
    def identity(context: Context) -> "OrthogonalMap":
        return OrthogonalMap(context, (), ())

    def image(self, k: int) -> Multivector:
        if k not in self.active:
            return Multivector.generator(self.context, k)
        col = self.active.index(k)
        return Multivector(self.context,
                           {Blade.of(self.active[row]): self.matrix[row][col]
                            for row in range(len(self.active))})

    def gram_preserving(self, images: Mapping[int, Multivector] | None = None) -> bool:
        """Checks M^T Q M == Q on the active set.  Entry (a, b) is
        tr(phi(v_a) rev(phi(v_b))), read on `images` (phi(v_k) by k, built
        here if not given); exact entries must equal Q's, float ones lie
        within the absolute GRAM_TOLERANCE, which a NaN entry does not."""
        ctx, active, zero = self.context, self.active, scalars.zero(self.context.domain)
        images = images or {k: self.image(k) for k in active}
        return all(got == want if ctx.domain.is_exact else abs(got - want) <= GRAM_TOLERANCE
                   for i, ka in enumerate(active) for kb in active[i:]
                   for got, want in ((_rev_pairing(images[ka], images[kb]),
                                      ctx.q(ka) if ka == kb else zero),))

    def compose(self, other: "OrthogonalMap") -> "OrthogonalMap":
        """self after other, on the union of active sets."""
        active = tuple(sorted(set(self.active) | set(other.active)))
        cols = []
        for k in active:
            img = bogolyubov_on_v(self, other.image(k))
            cols.append([img.coeff(Blade.of(m)) for m in active])
        matrix = tuple(tuple(cols[j][i] for j in range(len(active)))
                       for i in range(len(active)))
        return OrthogonalMap.build(self.context, active, matrix)


def bogolyubov_on_v(phi: OrthogonalMap, v: Multivector) -> Multivector:
    """Apply phi to an element of V (grade-1 multivector)."""
    return linear_combine(
        [(coeff, phi.image(blade.indices[0])) for blade, coeff in v.terms.items()],
        context=v.context)
