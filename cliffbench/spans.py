"""Library call namespaces, in-memory spans and the per-layer summary.

Workload code calls the library only through a namespace such as
`L.core.mv_product(a, b)`.  The plain namespace hands out the library's own
functions, so untimed and timed runs pay nothing extra.  The traced namespace
wraps each function so that every call records a span
(name, start_ns, end_ns, parent, request) and, for the calls listed in HOOKS,
adds to the work counters.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from time import perf_counter_ns
from types import SimpleNamespace

# Layers are the package's modules; linalg is only reached through matrix_rep.
LAYERS = ("scalars", "core", "trace_norm", "derivations", "automorphisms",
          "matrix_rep", "tensor_decomp", "locmat", "expr", "render",
          "serialize", "cli")


def _extras(mod):
    if mod.__name__.endswith(".locmat"):
        # TensorElement equality flattens to dense Kronecker products; it is a
        # certificate step of its own, so it gets a name and a span.
        return {"tp_eq": mod.TensorElement.__eq__}
    return {}


def _functions(module_name: str) -> dict:
    mod = importlib.import_module(f"cliffalg.{module_name}")
    funcs = {name: fn for name, fn in vars(mod).items()
             if inspect.isfunction(fn) and fn.__module__ == mod.__name__
             and not name.startswith("_")}
    funcs.update(_extras(mod))
    return funcs


def plain_lib() -> SimpleNamespace:
    return SimpleNamespace(**{m: SimpleNamespace(**_functions(m)) for m in LAYERS})


# ---------------------------------------------------------------------------
# work counters, updated after a traced call returns (outside its span)
# ---------------------------------------------------------------------------

def _coeff_bits(value) -> int | None:
    if hasattr(value, "re") and hasattr(value, "im"):
        return _coeff_bits(value.re) + _coeff_bits(value.im)
    if hasattr(value, "denominator") and not isinstance(value, (float, complex)):
        return abs(value.numerator).bit_length() + value.denominator.bit_length()
    return None


def _count_product(counts, args, out, state):
    a, b = args[0], args[1]
    counts["core.blade_pairs"] += len(a.terms) * len(b.terms)
    counts["core.out_terms"] += len(out.terms)
    for c in out.terms.values():
        bits = _coeff_bits(c)
        if bits is not None:
            counts["scalars.coeffs"] += 1
            counts["scalars.coeff_bits_sum"] += bits
            counts["scalars.coeff_bits_max"] = max(counts["scalars.coeff_bits_max"], bits)


def _count_family_apply(counts, args, out, state):
    family, x = args
    if hasattr(family, "cutoff"):
        applied = family.cutoff(x.max_index())
    else:
        applied = len(family.terms)
    counts["derivations.ad_pairs"] += applied * len(x.terms)


def _count_span(counts, args, out, state):
    counts["tensor_decomp.span_products"] += 2 ** args[0].cuts[-1]


def _count_tp_product(counts, args, out, state):
    counts["locmat.tp_product.out_terms"] += len(out.terms)


def _cache_size(args):
    return len(args[0]._blade_cache)


def _count_blade_matrices(counts, args, out, state):
    counts["matrix_rep.blade_matrices"] += len(args[0]._blade_cache) - state


def _count_represent(counts, args, out, state):
    _count_blade_matrices(counts, args, out, state)
    counts["matrix_rep.represent_calls"] += 1
    counts["matrix_rep.represent_warm"] += state > 0


HOOKS = {
    "core.mv_product": (None, _count_product),
    "derivations.family_apply": (None, _count_family_apply),
    "tensor_decomp.spanning_rank": (None, _count_span),
    "locmat.tp_product": (None, _count_tp_product),
    "matrix_rep.represent": (_cache_size, _count_represent),
    "matrix_rep.blade_images_independent": (_cache_size, _count_blade_matrices),
}

COUNTERS = ("core.blade_pairs", "core.out_terms", "scalars.coeffs",
            "scalars.coeff_bits_sum", "scalars.coeff_bits_max",
            "derivations.ad_pairs", "tensor_decomp.span_products",
            "locmat.tp_product.out_terms", "matrix_rep.blade_matrices",
            "matrix_rep.represent_warm", "matrix_rep.represent_calls")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.parent = None
        self.request = None
        self.replay_parents: set = set()

    def lib(self) -> SimpleNamespace:
        return SimpleNamespace(**{
            m: SimpleNamespace(**{name: self._wrap(f"{m}.{name}", fn)
                                  for name, fn in _functions(m).items()})
            for m in LAYERS})

    def _wrap(self, name, fn):
        pre, post = HOOKS.get(name, (None, None))
        spans = self.spans

        def traced(*args, **kwargs):
            state = pre(args) if pre else None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans.append((name, t0, perf_counter_ns(), self.parent, self.request))
            if post:
                post(self.counts, args, out, state)
            return out

        return traced

    def open(self, request) -> int:
        """Reserve the root span of one operation; returns its id."""
        self.request = request
        self.parent = len(self.spans)
        self.spans.append(None)
        return self.parent

    def close(self, span_id, name, t0, t1):
        self.spans[span_id] = (name, t0, t1, None, self.request)
        self.parent = None

    def replay_under_last(self):
        """Make the next spans children of the span just recorded (cli.run)."""
        self.parent = len(self.spans) - 1
        self.replay_parents.add(self.parent)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "request": request}) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """Per-name and per-layer statistics from the recorded spans.

    A span's self time is its duration minus its children's durations.
    Replay spans (children of cli.run) ran after the request, not inside it,
    so they are taken out of the work total that busy shares divide by.
    """
    durations: dict[str, list] = {}
    child_ns: dict[int, int] = {}
    work_ns = 0
    replay_ns = 0
    for name, t0, t1, parent, _ in tracer.spans:
        dur = t1 - t0
        if parent is None:
            work_ns += dur
            continue
        durations.setdefault(name, []).append(dur)
        if parent in tracer.replay_parents:
            replay_ns += dur
            child_ns[parent] = child_ns.get(parent, 0) + dur
    self_ns: dict[str, int] = {}
    for sid, (name, t0, t1, parent, _) in enumerate(tracer.spans):
        if parent is None:
            continue
        layer = layer_of(name)
        self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0) - child_ns.get(sid, 0)
    layers = {}
    for layer in LAYERS:
        durs = [d for name, ds in durations.items() if layer_of(name) == layer
                for d in ds]
        layers[layer] = {
            "calls": len(durs),
            "busy_s": sum(durs) / 1e9,
            "self_s": self_ns.get(layer, 0) / 1e9,
            "p50_us": statistics.median(durs) / 1e3 if durs else 0.0,
        }
    work_s = (work_ns - replay_ns) / 1e9
    for stats in layers.values():
        stats["busy_share"] = stats["self_s"] / work_s if work_s else 0.0
    return {"names": durations, "layers": layers, "replay_s": replay_ns / 1e9}


def group(summary: dict, names) -> list:
    """All call durations (ns) of the given span names."""
    return [d for n in names for d in summary["names"].get(n, [])]


def by_root_kind(tracer: Tracer, name: str) -> dict:
    """Durations (ns) of the spans called `name`, keyed by their operation's kind."""
    out: dict[str, list] = {}
    for span_name, t0, t1, parent, _ in tracer.spans:
        if span_name == name and parent is not None:
            out.setdefault(tracer.spans[parent][0], []).append(t1 - t0)
    return out
