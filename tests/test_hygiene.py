"""Source hygiene: no module of the package imports a name it never uses,
the package imports nothing outside the standard library, every module
but `__init__` and `__main__` is imported by another package module, so no
module lives on for the tests alone (test oracles live in tests/), each
precondition's error is raised by one function, the product kernel and
its integer-numerator helpers are defined once, in `core`, each module
imports only the private `core` names pinned for it, and only `scalars`
builds a value past its constructor."""

import ast
import re
import sys
from pathlib import Path

import cliffalg

SRC = Path(cliffalg.__file__).resolve().parent


def _imported(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set:
    """Names read anywhere, in string annotations and in `__all__`."""
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = set()
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(x, ast.Name) and x.id == "__all__"
                    for x in node.targets):
                used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_annotations_and_all():
    source = '''
from __future__ import annotations
import json
from typing import Mapping, Sequence
from fractions import Fraction as F
from .core import Blade, Context

__all__ = ["Context"]


def f(x: Mapping[int, "Blade"]) -> None:
    pass
'''
    assert unused_imports(source) == [("json", 3), ("Sequence", 4), ("F", 5)]


def third_party_imports(source: str) -> list:
    """(module, line) for every absolute import of a module outside the
    standard library; relative imports and `__future__` are the package's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(m, node.lineno) for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_the_package_imports_only_the_standard_library():
    found = {path.name: third_party_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_third_party_imports():
    source = '''
from __future__ import annotations
import json, numpy.linalg
from fractions import Fraction
from . import core
from .scalars import Domain
from sympy import Rational


def f():
    import hypothesis
'''
    assert third_party_imports(source) == [("numpy.linalg", 3), ("sympy", 7),
                                           ("hypothesis", 11)]


def package_imports(source: str) -> set:
    """Package modules a source imports: `from .a import x` and
    `from .a.b import x` name `a`, and `from . import a, b as c` names `a`
    and `b`.  The package imports its own modules only relatively."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
    return found


def test_every_module_is_imported_by_another_package_module():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    imported = set()
    for name, source in sources.items():
        imported |= package_imports(source) - {name}
    assert set(sources) - {"__init__", "__main__"} - imported == set()


def test_the_scan_sees_package_imports():
    source = '''
from __future__ import annotations
import json
from . import scalars, serialize as ser
from .core import Blade
from .tables.big import ROWS
from fractions import Fraction


def f():
    from .render import render
'''
    assert package_imports(source) == {"scalars", "serialize", "core",
                                       "tables", "render"}


def _text(node):
    """A string constant, or an f-string with `{}` for each field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return None


def raise_sites(source: str, pattern: str) -> list:
    """The innermost function around each `raise` whose strings match
    `pattern`, once per `raise`, in source order."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Raise) and any(
                re.search(pattern, text) for sub in ast.walk(node)
                if (text := _text(sub)) is not None):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


# a fragment of each guard's message, and the one function that raises it
GUARDS = {
    r"q == 1.*\(q_": ("core", "require_unit"),
    "parity must be": ("core", "parity_bit"),
    "defined over real domains": ("scalars", "require_real"),
    "operands built over different contexts": ("core", "check_context"),
    "has no imaginary unit": ("scalars", "imaginary_unit"),
    "are exact; use rational or gaussian": ("scalars", "require_exact"),
    # the form's nondegeneracy: q_k != 0 for the default and each override
    "default signature value must be nonzero": ("core", "__post_init__"),
    r"signature value q_\{\} is zero": ("core", "__post_init__"),
    # every integer from outside: flags, --cuts pieces, JSON keys and indices
    "must be between": ("serialize", "integer"),
    "must be decimal digits": ("serialize", "integer"),
    # JSON object keys that read as one generator index
    r"generator index \{\} appears twice": ("serialize", "_indices"),
}


def test_each_guard_is_raised_in_one_function():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    found = {pattern: [(module, function) for module, source in sources.items()
                       for function in raise_sites(source, pattern)]
             for pattern in GUARDS}
    assert found == {pattern: [site] for pattern, site in GUARDS.items()}


def test_the_scan_sees_raise_sites():
    source = '''
def a(x):
    if x:
        raise ValueError(f"parity must be {x!r}")
    return "parity must be"


class C:
    def b(self, k):
        def inner():
            raise KeyError("parity must be " + str(k))
        raise ValueError(f"q == 1 fails (q_{k} != 1)")


raise SystemExit("parity must be")
'''
    assert raise_sites(source, "parity must be") == ["a", "inner", None]
    assert raise_sites(source, r"q == 1.*\(q_") == ["b"]
    assert raise_sites(source, "q == 1 fails") == ["b"]


def definitions(source: str, names) -> list:
    """The names in `names` that `source` defines, by `def`, `class` or
    assignment at any depth, once per definition, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in defined if name in names]
    return [name for _, name in sorted(found)]


# the integer-numerator helpers (reading values into the stored form,
# reducing, splitting, summing and sizing it, and reading it back) and the
# multiply-accumulate kernel with its weight rows: other modules import them
# from core, so a second copy fails the scan
CORE_ONLY = ("_numerators", "_int_weight", "_lowest", "_split", "_ratios",
             "_form", "_size", "_sum", "_combined", "_rev_pairing", "_product",
             "_commutators", "_rows", "_gaussian_loop", "_anticommuting",
             "_linear_image")


def test_numerator_helpers_are_defined_in_core_alone():
    found = {path.stem: sorted(definitions(path.read_text(encoding="utf-8"),
                                           CORE_ONLY))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == \
        {"core": sorted(CORE_ONLY)}


def test_the_scan_sees_definitions():
    source = '''
from .core import _numerators, _product as _p


class C:
    def _numerators(self, x):
        def _int_weight(y):
            return y
        return x


_lowest = dict
_p, (_anticommuting, z) = 1, (2, 3)
'''
    assert definitions(source, CORE_ONLY) == [
        "_numerators", "_int_weight", "_lowest", "_anticommuting"]
    assert definitions("x = _numerators(1, 2)\n", CORE_ONLY) == []


def core_privates(source: str) -> list:
    """The private names `source` imports from the package's `core`, sorted;
    `core` itself for `from . import core`, which reaches all of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [alias.name for alias in node.names
                      if node.module == "core" and alias.name.startswith("_")
                      or node.module is None and alias.name == "core"]
    return sorted(found)


# each module's private imports from core, the helpers' surface outside it:
# a module may drop names from its list, and adds none
CORE_PRIVATES = {
    "automorphisms": ["_linear_image"],
    "derivations": ["_anticommuting", "_commutators", "_rev_pairing"],
    "expr": ["_form", "_relabel", "_size", "_sum"],
    "matrix_rep": ["_ratios", "_xor_rank"],
    "render": ["_ratios"],
    "tensor_decomp": ["_prefix_parity", "_split", "_xor_rank"],
    "trace_norm": ["_rev_pairing"],
}


def test_each_module_imports_its_pinned_core_privates():
    found = {path.stem: core_privates(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == CORE_PRIVATES
    assert core_privates("from .core import Blade, _size as s, _form\n"
                         "from .scalars import _private\n"
                         "from . import core, render\n") == ["_form", "_size", "core"]


def stored_form_reads(source: str) -> list:
    """The `_num` and `_den` attributes in `source`, each once: a
    multivector's stored form, which only core reads."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in ("_num", "_den")})


def test_the_stored_form_is_read_in_core_alone():
    found = {path.stem: stored_form_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == \
        {"core": ["_den", "_num"]}
    assert stored_form_reads("n = len(a._num)\nb._den += 1\n") == ["_den", "_num"]


def layout_writes(source: str) -> list:
    """(name, line) for each store to a `_numerator` or `_denominator`
    attribute and each `object.__new__`, in source order: a value built past
    its constructor, which relies on how its type is laid out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if (node.attr in ("_numerator", "_denominator")
                and isinstance(node.ctx, ast.Store)
                or node.attr == "__new__" and isinstance(node.value, ast.Name)
                and node.value.id == "object"):
            found.append((node.lineno, node.col_offset, node.attr))
    return [(name, line) for line, _, name in sorted(found)]


def test_values_are_built_past_their_constructors_in_scalars_alone():
    found = {path.stem: sorted({name for name, _ in layout_writes(
                 path.read_text(encoding="utf-8"))})
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == \
        {"scalars": ["__new__", "_denominator", "_numerator"]}


def test_the_scan_sees_layout_writes():
    source = '''
new = object.__new__
x = new(Fraction)
x._numerator, x._denominator = 1, 2
x._denominator += 0
n = x._numerator + y.__new__(Fraction)._denominator


class F:
    def f(self):
        return object.__new__(F)
'''
    assert layout_writes(source) == [
        ("__new__", 2), ("_numerator", 4), ("_denominator", 4),
        ("_denominator", 5), ("__new__", 11)]
