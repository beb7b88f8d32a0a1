"""Faithful matrix representations of Cl(V_2k, q == 1), used as trace oracles.

The ladder construction sends generator 2j-1 to Z..Z X I..I and generator 2j
to Z..Z Y I..I (Kronecker factors), giving 2k anticommuting square roots of
the identity in dimension 2**k.

Blade images are Pauli words i^p X^x Z^z stored as (p mod 4, x, z), bit k-j
of a mask being factor j (the stabilizer tableau encoding of Aaronson and
Gottesman, PRA 70, 052328, 2004): basis vector c goes to i^p (-1)^|z & c| e_{c^x}.
The certificates read words only, `rep_verify` walking blades depth first: the
normalized trace of a word is i^p when x == z == 0 and 0 otherwise, and
faithfulness is GF(2) independence.  `represent` and `MatrixRep.identity`
write dense 2**k x 2**k matrices, the oracle the tests check the words
against, through `_dense` alone, which sums each entry as an (re, im) integer
numerator over one denominator and builds values for nonzero entries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import scalars
from .core import Multivector, _ratios, _xor_rank
from .errors import SupportRangeError
from .scalars import Domain, GaussianRational, reduced
from .trace_norm import trace

_ZERO = GaussianRational.of(0)
_ONE = GaussianRational.of(1)
_I = GaussianRational.of(0, 1)
_PHASES = (_ONE, _I, -_ONE, -_I)

PAULI_X = ((_ZERO, _ONE), (_ONE, _ZERO))
PAULI_Y = ((_ZERO, -_I), (_I, _ZERO))
PAULI_Z = ((_ONE, _ZERO), (_ZERO, -_ONE))


def word_product(a: tuple, b: tuple) -> tuple:
    """(i^p X^x Z^z)(i^p' X^x' Z^z'): moving Z^z past X^x' costs (-1)^|z & x'|."""
    pa, xa, za = a
    pb, xb, zb = b
    return ((pa + pb + 2 * (za & xb).bit_count()) % 4, xa ^ xb, za ^ zb)


@dataclass
class MatrixRep:
    """2k generator words acting in dimension 2**k over the Gaussian rationals."""

    k: int
    words: tuple
    dim: int
    _blade_cache: dict = field(default_factory=dict, repr=False,
                               compare=False)

    def identity(self):
        return _dense(self.dim, [((0, 0, 0), (1, 1, 0, 1))])

    def blade_word(self, bits: int) -> tuple:
        """Word of the ordered product of the generators in blade `bits`."""
        word = self._blade_cache.get(bits)
        if word is None:
            low = bits & -bits
            word = word_product(self.words[low.bit_length() - 1],
                                self.blade_word(bits ^ low)) if bits else (0, 0, 0)
            self._blade_cache[bits] = word
        return word


def build_rep(k: int) -> MatrixRep:
    """Ladder representation for k generator pairs; dim = 2**k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    words = []
    for j in range(1, k + 1):
        x = 1 << (k - j)
        z_above = (1 << k) - (x << 1)
        words.append((0, x, z_above))          # Z..Z X I..I
        words.append((1, x, z_above | x))      # Z..Z Y I..I, Y = i X Z
    return MatrixRep(k=k, words=tuple(words), dim=2 ** k)


def _dense(dim: int, terms):
    """Sum of (rn / rd + i jn / jd) * word over (word, (rn, rd, jn, jd)) pairs,
    one entry per column, as (re, im) integers over the lcm of the rd and jd."""
    den = math.lcm(*[t[1] for _, t in terms], *[t[3] for _, t in terms])
    rows = [[(0, 0)] * dim for _ in range(dim)]
    for (p, x, z), (rn, rd, jn, jd) in terms:
        re, im = rn * (den // rd), jn * (den // jd)
        units = (re, im), (-im, re), (-re, -im), (im, -re)  # times i^0..i^3
        for c in range(dim):
            row, (ur, ui) = rows[c ^ x], units[(p + 2 * (z & c).bit_count()) % 4]
            row[c] = row[c][0] + ur, row[c][1] + ui
    return tuple(tuple(reduced(re, den, im) if re or im else _ZERO for re, im in row)
                 for row in rows)


def _check_representable(a: Multivector) -> None:
    """`a` is exact and has q == 1 on its support."""
    a.context.require_unit(a.support(), "a matrix representation")
    a.context.domain.require_exact("matrix representations")


def represent(rep: MatrixRep, a: Multivector):
    """Evaluation homomorphism on multivectors supported in {1..2k}, q == 1."""
    if a.max_index() > 2 * rep.k:
        raise SupportRangeError(
            f"support reaches index {a.max_index()}, representation covers {2 * rep.k}")
    _check_representable(a)
    return _dense(rep.dim, [(rep.blade_word(b), p if len(p) == 4 else (*p, 0, 1))
                            for b, p in _ratios(a)])


def normalized_trace(m):
    return sum((row[r] for r, row in enumerate(m)), _ZERO) / len(m)


def _trace_phase(word: tuple) -> int | None:
    """p if the word i^p X^x Z^z has normalized trace i^p, None if 0: an X
    factor empties the diagonal, a Z factor balances its signs."""
    p, x, z = word
    return None if x or z else p


def _word_trace(rep: MatrixRep, a: Multivector):
    """normalized_trace(represent(rep, a)) from the words; the caller checks a."""
    phases = ((_trace_phase(rep.blade_word(b)), c) for b, c in a.terms.items())
    return sum((scalars.coerce(Domain.GAUSSIAN, c) * _PHASES[p]
                for p, c in phases if p is not None), _ZERO)


def verify_trace_coherence(a: Multivector, k_small: int, k_large: int) -> bool:
    """Normalized matrix traces agree across representation sizes and equal
    trace(a); each is read from the blade words, with no matrix written."""
    if not (a.max_index() <= 2 * k_small <= 2 * k_large):
        raise SupportRangeError(
            f"need support <= 2*k_small <= 2*k_large, got "
            f"{a.max_index()}, {2 * k_small}, {2 * k_large}")
    _check_representable(a)
    return _word_trace(build_rep(k_small), a) == _word_trace(build_rep(k_large), a) \
        == scalars.coerce(Domain.GAUSSIAN, trace(a))


def blade_images_independent(rep: MatrixRep) -> bool:
    """Faithfulness: the 2**(2k) ordered generator products are independent.

    Up to phase, a blade's word is the GF(2) sum of its generators' (x|z)
    vectors, and the 4**k distinct Pauli words are Hilbert-Schmidt orthogonal,
    so this is GF(2) independence of the 2k generator vectors.
    """
    return _xor_rank(x << rep.k | z for _, x, z in rep.words) == len(rep.words)


def _coherent(small: MatrixRep, large: MatrixRep) -> bool:
    """Both words of every non-unit blade on 2 * small.k generators are traceless;
    a depth-first walk by word(S + {g}) = w_g word(S), g < min S, in both reps."""
    stack = [(2 * small.k, (0, 0, 0), (0, 0, 0))]
    while stack:
        below, ws, wl = stack.pop()
        for g in range(below):
            s, t = word_product(small.words[g], ws), word_product(large.words[g], wl)
            if _trace_phase(s) is not None or _trace_phase(t) is not None:
                return False
            stack.append((g, s, t))
    return True


def rep_verify(max_k: int) -> list[tuple[str, bool]]:
    """The `rep check` certificate as (name, ok) pairs.

    Trace coherence of every blade on 2k generators between k and max_k, for
    each k < max_k, then faithfulness of every representation up to max_k.
    Both word readings of v_S must be its trace: 1 if S is empty, else 0.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    *smaller, large = reps = [build_rep(k) for k in range(1, max_k + 1)]
    return [(f"trace coherence k={small.k} vs k={max_k}", _coherent(small, large))
            for small in smaller] + \
        [(f"faithfulness k={rep.k}", blade_images_independent(rep))
         for rep in reps]
