"""Each precondition has one library guard; these tests reach it through
every caller, so a caller that skips it or checks on its own shows."""

import pytest

from cliffalg.core import (Blade, Context, Multivector, linear_combine,
                           mv_product)
from cliffalg.cli import run
from cliffalg.derivations import (AdFamily, AdStream, SkewMap,
                                  bogolyubov_derivation, family_apply,
                                  inner_witness)
from cliffalg.errors import DomainMismatchError, UnsupportedDomainError
from cliffalg.expr import parse
from cliffalg.matrix_rep import build_rep, represent, verify_trace_coherence
from cliffalg.scalars import Domain
from cliffalg.tensor_decomp import FactorChain, chain_build, chain_verify


def _skew(ctx):
    return SkewMap.from_pairs(ctx, {(1, 2): 1, (3, 4): -2})


def _volume(ctx):
    return Multivector.blade(ctx, Blade.of(1, 2, 3, 4))


def _hand_built_chain(ctx):
    # one cut at 2, its volume element reaching generators 3 and 4
    return FactorChain(ctx, (2,), (_volume(ctx),), (False,))


# each caller needs q == 1 on generators 1..4 and on no other
Q_ONE_CALLERS = {
    "chain_build": lambda ctx: chain_build((2, 4), ctx),
    "chain_verify": lambda ctx: chain_verify(_hand_built_chain(ctx)),
    "bogolyubov_derivation": lambda ctx: bogolyubov_derivation(_skew(ctx)),
    "inner_witness": lambda ctx: inner_witness(_skew(ctx)),
    "represent": lambda ctx: represent(build_rep(2), _volume(ctx)),
    "verify_trace_coherence":
        lambda ctx: verify_trace_coherence(_volume(ctx), 2, 3),
}


@pytest.mark.parametrize("caller", Q_ONE_CALLERS)
@pytest.mark.parametrize("default, overrides, smallest", [
    (3, {1: 1}, 2),
    (1, {4: -1, 3: 2, 1: 1}, 3),
    (1, {5: -1, 7: 2}, None),
], ids=["default", "override-inside", "override-outside"])
def test_q_one_guard(caller, default, overrides, smallest):
    ctx = Context.make(Domain.GAUSSIAN, default, overrides)
    if smallest is None:
        Q_ONE_CALLERS[caller](ctx)
        return
    with pytest.raises(UnsupportedDomainError,
                       match=rf" requires q == 1 on the support "
                             rf"\(q_{smallest} != 1\)$"):
        Q_ONE_CALLERS[caller](ctx)


_A = Multivector.generator(Context.make(), 1)
_B = Multivector.generator(Context.make(Domain.GAUSSIAN), 1)
_TERMS = [(Blade.of(1, 2), 1)]
MIXED_CONTEXT_OPS = {
    "add": lambda: _A + _B,
    "mv_product": lambda: mv_product(_A, _B),
    "linear_combine": lambda: linear_combine([(1, _A), (2, _B)]),
    "family_apply-family":
        lambda: family_apply(AdFamily.finite(_A.context, "even", _TERMS), _B),
    "family_apply-stream": lambda: family_apply(
        AdStream(_A.context, "even", iter(_TERMS), cutoff=lambda m: 1), _B),
}


@pytest.mark.parametrize("op", MIXED_CONTEXT_OPS)
def test_mixed_contexts_raise_one_message(op):
    with pytest.raises(DomainMismatchError,
                       match="^operands built over different contexts$"):
        MIXED_CONTEXT_OPS[op]()



# each caller needs the imaginary unit of its domain
I_CALLERS = {
    "chain_build": (lambda ctx: chain_build((2, 4), ctx),
                    ["decomp", "check", "--cuts", "2,4"]),
    "parse": (lambda ctx: parse("e1 + i", ctx), ["eval", "e1 + i"]),
}


@pytest.mark.parametrize("caller", I_CALLERS)
@pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.F64])
def test_imaginary_unit_guard(caller, domain, capsys):
    call, argv = I_CALLERS[caller]
    message = f"domain {domain.value} has no imaginary unit; use gaussian or c64"
    with pytest.raises(UnsupportedDomainError, match=f"^{message}$"):
        call(Context.make(domain))
    assert run(["--domain", domain.value] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
