"""Independent reference answers for the benchmark's output checks.

Nothing here calls `cliffalg.core.blade_product` or any other library
arithmetic on multivectors: blade products are computed by rewriting the
concatenated index word (adjacent swaps flip the sign, equal neighbours
contract to q_k), and coefficients are plain Python numbers.  Gaussian
rationals become `G` pairs of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

FLOAT_RTOL = 1e-9


class G:
    """Exact a + b*i over Fractions, only as much arithmetic as the checks need."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _g(other)
        return G(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = _g(other)
        return G(self.re * other.re - self.im * other.im,
                 self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return G(-self.re, -self.im)

    def __eq__(self, other):
        other = _g(other)
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)


def _g(x):
    return x if isinstance(x, G) else G(x)


def plain(value):
    """A library scalar as a plain Python number (GaussianRational -> G)."""
    if hasattr(value, "re") and hasattr(value, "im"):
        return G(value.re, value.im)
    return value


def rewrite_blade_product(s, t, q):
    """(coeff, indices) of v_s * v_t by rewriting the word s + t."""
    seq = list(s) + list(t)
    coeff = 1
    i = 0
    while i + 1 < len(seq):
        if seq[i] == seq[i + 1]:
            coeff = coeff * q(seq[i])
            del seq[i:i + 2]
            i = max(i - 1, 0)
        elif seq[i] > seq[i + 1]:
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            coeff = -coeff
            i = max(i - 1, 0)
        else:
            i += 1
    return coeff, tuple(seq)


def product(a: dict, b: dict, q) -> dict:
    """Product of {indices: coeff} maps with the rewriting blade product."""
    memo = {}
    out = {}
    for s, cs in a.items():
        for t, ct in b.items():
            key = (s, t)
            if key not in memo:
                memo[key] = rewrite_blade_product(s, t, q)
            sign, blade = memo[key]
            out[blade] = out.get(blade, 0) + cs * ct * sign
    return {blade: c for blade, c in out.items() if c}


def metric_weight(indices, q):
    """prod_{k in S} q_k, which is v_S * rev(v_S)."""
    w = 1
    for k in indices:
        w = w * q(k)
    return w


def pairing(a: dict, b: dict, q):
    """trace(a * rev(b)) = sum_S a_S * b_S * prod_{k in S} q_k."""
    total = 0
    for s, c in a.items():
        if s in b:
            total = total + c * b[s] * metric_weight(s, q)
    return total


def combine(pairs) -> dict:
    """sum_i value_i * m_i over {indices: coeff} maps."""
    out = {}
    for value, m in pairs:
        for s, c in m.items():
            out[s] = out.get(s, 0) + value * c
    return {s: c for s, c in out.items() if c}


def as_map(mv) -> dict:
    """A library multivector as {indices: plain coeff}."""
    return {blade.indices: plain(c) for blade, c in mv.terms.items()}


def _close(x, y, scale) -> bool:
    return abs(x - y) <= FLOAT_RTOL * (scale + 1.0)


def scalar_equal(got, want, exact: bool, scale: float = 1.0) -> bool:
    if exact:
        return plain(got) == want
    return _close(got, want, scale)


def map_equal(got: dict, want: dict, exact: bool) -> bool:
    """Exact equality, or agreement within FLOAT_RTOL of the largest entry."""
    if exact:
        return got == want
    scale = max((abs(c) for c in want.values()), default=0.0)
    return all(_close(got.get(s, 0), want.get(s, 0), scale)
               for s in set(got) | set(want))


def tp_norm(terms, size) -> Fraction:
    """tr(a * a^T) for a real tensor element given as [(coeff, {i: matrix})].

    Expands the sum over term pairs; each factor contributes the normalized
    trace of A_i * B_i^T, with the identity where a term has no factor i.
    """
    def ntr_mul_t(x, y, m):
        return sum((x[r][c] * y[r][c] for r in range(m) for c in range(m)),
                   Fraction(0)) / m

    total = Fraction(0)
    for ca, fa in terms:
        for cb, fb in terms:
            value = Fraction(ca) * cb
            for i in set(fa) | set(fb):
                m = size
                ident = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
                value *= ntr_mul_t(fa.get(i, ident), fb.get(i, ident), m)
            total += value
    return total


_REF_A = {tuple(k for k in range(1, 9) if bits >> (k - 1) & 1): Fraction(bits % 7 - 3 or 1, bits % 5 + 1)
          for bits in range(5, 256, 21)}
_REF_B = {tuple(k for k in range(1, 9) if bits >> (k - 1) & 1): Fraction(bits % 5 - 2 or 2, bits % 3 + 1)
          for bits in range(3, 256, 23)}


def reference():
    """A fixed computation the benchmark times next to the workload.

    It belongs to the benchmark, so no change to the library moves it; its
    time tracks only how fast the machine runs Python at that moment.
    """
    return product(_REF_A, _REF_B, lambda k: Fraction(-1) if k % 3 == 0 else Fraction(1))
