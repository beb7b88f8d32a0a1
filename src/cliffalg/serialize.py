"""JSON wire formats: multivectors, derivation families, maps and tables.

The readers validate their input in one place: `integer` reads each integer
from outside, and a wrongly shaped document is a ValueError.
"""

from __future__ import annotations

from functools import wraps
from typing import Any

from . import scalars
from .core import Blade, Context, Multivector
from .derivations import AdFamily, OrthogonalMap, SkewMap
from .expr import MAX_GENERATOR, parse_all
from .scalars import Domain


def integer(what: str, value, low: int, high: int) -> int:
    """An int, or its ASCII digits after an optional "-", in low..high."""
    if isinstance(value, str):
        digits = value.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{what} must be decimal digits, got {value!r}")
        if len(digits.lstrip("0")) <= len(str(high)):  # else out of range, unread
            value = int(value)
    if isinstance(value, str) or not low <= value <= high:
        raise ValueError(f"{what} must be between {low} and {high}, got {value}")
    return value


def _indices(obj: dict) -> list[int]:
    """obj's keys as generator indices, refusing two read as one ("7", "007")."""
    keys, seen = [integer("generator index", k, 1, MAX_GENERATOR) for k in obj.keys()], set()
    for k in keys:
        if k in seen:
            raise ValueError(f"generator index {k} appears twice")
        seen.add(k)
    return keys


def _index(k) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"generator index must be an integer, got {k!r}")
    return integer("generator index", k, 1, MAX_GENERATOR)


def _reader(fn):
    """Turn the errors of a wrongly shaped document into ValueError."""
    what = fn.__name__.removesuffix("_from_json")

    @wraps(fn)
    def read(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed {what} JSON: "
                             f"{type(exc).__name__}: {exc}") from exc
    return read


def _scalar_out(domain: Domain, value) -> Any:
    """Finite f64 values stay JSON numbers; every other value writes a string,
    since JSON has no infinity or NaN."""
    if domain is Domain.F64 and abs(value) < float("inf"):
        return value
    return scalars.format_scalar(domain, value)


def context_to_json(ctx: Context) -> dict:
    return {
        "domain": ctx.domain.value,
        "signature": {
            "default": _scalar_out(ctx.domain, ctx.default),
            "overrides": {str(k): _scalar_out(ctx.domain, v)
                          for k, v in ctx.overrides},
        },
    }


@_reader
def context_from_json(obj: dict) -> Context:
    domain = Domain(obj.get("domain", "rational"))
    sig = obj.get("signature", {})
    default = scalars.parse_scalar(domain, sig.get("default", 1))
    overrides = sig.get("overrides", {})
    return Context.make(domain, default, dict(zip(_indices(overrides), [
        scalars.parse_scalar(domain, v) for v in overrides.values()])))


def _terms_to_json(domain: Domain, terms) -> list:
    return [{"blade": list(blade.indices), "coeff": _scalar_out(domain, coeff)}
            for blade, coeff in terms]


def _terms_from_json(obj: dict, domain: Domain) -> list:
    return [(Blade.from_indices(map(_index, item["blade"])),
             scalars.parse_scalar(domain, item["coeff"]))
            for item in obj.get("terms", [])]


def multivector_to_json(mv: Multivector) -> dict:
    out = context_to_json(mv.context)
    out["terms"] = _terms_to_json(mv.context.domain, mv.sorted_terms())
    return out


@_reader
def multivector_from_json(obj: dict, context: Context | None = None) -> Multivector:
    ctx = context if context is not None else context_from_json(obj)
    return Multivector(ctx, dict(_terms_from_json(obj, ctx.domain)))


def family_to_json(family) -> dict:
    return {"parity": family.parity,
            "terms": _terms_to_json(family.context.domain, family.terms)}


@_reader
def family_from_json(obj: dict, context: Context):
    return AdFamily.finite(context, obj["parity"],
                           _terms_from_json(obj, context.domain))


@_reader
def skew_from_json(obj: dict, context: Context):
    return SkewMap.from_pairs(context, [((_index(e["i"]), _index(e["j"])),
                                         scalars.parse_scalar(context.domain, e["value"]))
                                        for e in obj.get("entries", [])])


@_reader
def orthogonal_from_json(obj: dict, context: Context):
    active = tuple(map(_index, obj["active"]))
    matrix = tuple(tuple(scalars.parse_scalar(context.domain, v) for v in row)
                   for row in obj["matrix"])
    return OrthogonalMap.build(context, active, matrix)


@_reader
def table_from_json(obj: dict, context: Context) -> dict:
    """The `deriv extract` table {"actions": {"k": "expr"}}: k -> D(v_k), the
    keys read first and the actions parsed against one budget."""
    actions = obj["actions"]
    return dict(zip(_indices(actions), parse_all(actions.values(), context)))


def chain_to_json(chain) -> dict:
    return {"cuts": list(chain.cuts)}
