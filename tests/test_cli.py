import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cliffalg
from cliffalg import cli, serialize
from cliffalg.cli import (BROKEN_PIPE, DECOMP_MAX_BLOCK, DECOMP_MAX_CUT,
                          JSON_MAX_BYTES, REP_CHECK_MAX_K, WITNESS_MAX_N,
                          WITNESS_MAX_NM, _commands, _context, _read,
                          build_parser, run)
from cliffalg.core import Blade, Context, Multivector, mv_product
from cliffalg.errors import DigitLimitError, ParseError
from cliffalg.expr import (MAX_EXPONENT, MAX_GENERATOR, MAX_PRODUCT_PAIRS,
                           parse)
from cliffalg.render import render
from cliffalg.scalars import Domain, GaussianRational, format_scalar

from test_scalars import VALUES

GOLDEN = Path(__file__).parent / "golden"
CTX = Context.make()

GOLDEN_CASES = {
    "eval.txt": ["--domain", "gaussian", "eval",
                 "rev(e1*e2*e3) + (1/2+3/4*i)*e1"],
    "trace.txt": ["trace", "3 + 5*e1"],
    "norm.txt": ["norm", "(1+e1)^2"],
    "deriv_apply.txt": [
        "deriv", "apply",
        "--family", '{"parity":"even","terms":[{"blade":[1,2],"coeff":"1"}]}',
        "e2"],
    "deriv_extract.txt": [
        "deriv", "extract", "--parity", "even", "--bound", "2",
        "--table", '{"actions":{"1":"-2*e2","2":"2*e1"}}'],
    "deriv_bogolyubov.txt": [
        "deriv", "bogolyubov",
        "--skew", '{"entries":[{"i":1,"j":2,"value":"-2"}]}'],
    "deriv_inner_witness.txt": [
        "deriv", "inner-witness",
        "--skew",
        '{"entries":[{"i":1,"j":2,"value":"-2"},{"i":3,"j":4,"value":"6"}]}'],
    "auto_bogolyubov.txt": [
        "auto", "bogolyubov",
        "--map", '{"active":[1,2],"matrix":[["0","-1"],["1","0"]]}',
        "e1*e2 + e1"],
    "auto_conjugate.txt": ["auto", "conjugate", "--u", "e1", "--u-inv", "e1",
                           "e2"],
    "decomp_build.txt": ["--domain", "gaussian", "decomp", "build",
                         "--cuts", "2,4"],
    "decomp_check.txt": ["decomp", "check", "--cuts", "2,6"],
    "decomp_rewrite.txt": ["decomp", "rewrite", "--cuts", "2,6", "--k", "3"],
    "rep_check.txt": ["rep", "check", "--max-k", "2"],
    "witness.txt": ["witness", "--n", "3", "--m", "2"],
}


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
def test_golden_output(golden_name, capsys):
    assert run(GOLDEN_CASES[golden_name]) == 0
    expected = (GOLDEN / golden_name).read_text()
    assert capsys.readouterr().out == expected


def _command_path(argv):
    """The subcommand path of a golden argv, past its global flags."""
    groups = {path.split()[0] for path, *_ in _commands() if " " in path}
    while argv[0].startswith("--"):
        argv = argv[1 if argv[0] == "--json" else 2:]
    return " ".join(argv[:2 if argv[0] in groups else 1])


def test_every_command_has_a_golden():
    assert sorted(_command_path(argv) for argv in GOLDEN_CASES.values()) == \
        sorted(path for path, *_ in _commands())


def _strict_json(text: str):
    """json.loads refusing Infinity, -Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestParsing:
    def test_literal_construction(self):
        ctx = Context.make()
        mv = parse("1 + e1*e2", ctx)
        assert render(mv) == "1 + e1*e2"

    def test_anticommutation(self):
        ctx = Context.make()
        assert render(parse("e2*e1", ctx)) == "-e1*e2"

    def test_reversal(self):
        ctx = Context.make()
        assert render(parse("rev(e1*e2*e3)", ctx)) == "-e1*e2*e3"

    def test_precedence(self):
        ctx = Context.make()
        assert render(parse("1 + 2*e1^2", ctx)) == "3"
        # unary minus binds at the atom level, so -e1^2 squares -e1
        assert render(parse("-e1^2", ctx)) == "1"
        assert render(parse("-(e1^2)", ctx)) == "-1"

    @pytest.mark.parametrize("text", [
        "0", "1", "-1", "3/4", "1 + e1*e2", "-e1*e2*e3", "2 - 3/4*e3 + e1*e2",
        "e1 + e2 + e1*e2*e3*e4",
    ])
    def test_print_parse_round_trip(self, text):
        ctx = Context.make()
        canonical = render(parse(text, ctx))
        assert render(parse(canonical, ctx)) == canonical

    @pytest.mark.parametrize("text", [
        "i", "(1/2+3/4*i)*e1", "1 - i + 2*i*e2", "-i*e1*e2",
    ])
    def test_gaussian_round_trip(self, text):
        ctx = Context.make(Domain.GAUSSIAN)
        canonical = render(parse(text, ctx))
        assert render(parse(canonical, ctx)) == canonical

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    @given(data=st.data())
    def test_parse_inverts_render(self, domain, data):
        fractions = st.fractions(max_denominator=1000)
        coeffs = {Domain.RATIONAL: fractions,
                  Domain.GAUSSIAN: st.builds(GaussianRational, fractions, fractions)}
        blades = st.lists(st.integers(min_value=1, max_value=12), unique=True,
                          max_size=5).map(Blade.from_indices)
        ctx = Context.make(domain)
        a = Multivector(ctx, data.draw(st.dictionaries(blades, coeffs[domain],
                                                       max_size=6)))
        assert parse(render(a), ctx) == a

    def test_i_rejected_in_rational_domain(self, capsys):
        assert run(["eval", "i"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPowers:
    def test_large_exponents_are_fast(self, capsys):
        start = time.perf_counter()
        assert run(["eval", f"e1^{MAX_EXPONENT}"]) == 0
        assert run(["eval", f"e1^{MAX_EXPONENT - 1}"]) == 0
        assert run(["eval", "(1+e1)^64"]) == 0
        assert run(["--signature", '{"overrides":{"1":"-2"}}', "eval", "e1^7"]) == 0
        # by repeated multiplication the first line alone is 10**6 products
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out.split("\n")[:4] == [
            "1", "e1", f"{2 ** 63} + {2 ** 63}*e1", "-8*e1"]

    def test_exponent_cap(self, capsys):
        assert run(["eval", f"e1^{MAX_EXPONENT + 1}"]) == 2
        assert run(["eval", "e1^" + "9" * 5000]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error: exponent exceeds the limit")
                   for line in err)

    def test_small_float_powers_multiply_in_order(self):
        ctx = Context.make(Domain.F64, overrides={2: 0.3})
        x = parse("1/3 + e1 + 7/5*e2 + e1*e2", ctx)
        assert parse("(1/3 + e1 + 7/5*e2 + e1*e2)^3", ctx) == \
            mv_product(mv_product(x, x), x)


# blocks of DECOMP_MAX_BLOCK generators up to the last cut
_WIDEST_LAST = ",".join(map(str, range(DECOMP_MAX_CUT % DECOMP_MAX_BLOCK or
                                       DECOMP_MAX_BLOCK, DECOMP_MAX_CUT + 1,
                                       DECOMP_MAX_BLOCK)))


class TestLimits:
    def test_documented_values(self):
        # README's "Size limits" gives these values
        assert (MAX_GENERATOR, REP_CHECK_MAX_K, WITNESS_MAX_N) == (10 ** 4, 10, 5000)
        assert MAX_PRODUCT_PAIRS == 2 ** 18

    def test_generator_index_cap(self, capsys):
        assert run(["eval", f"e{MAX_GENERATOR}"]) == 0
        assert capsys.readouterr().out.strip() == f"e{MAX_GENERATOR}"
        start = time.perf_counter()
        assert run(["eval", f"e{MAX_GENERATOR + 1}"]) == 2
        assert run(["eval", "e1000000000"]) == 2
        assert run(["eval", "e" + "9" * 5000]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert all(line.startswith("error: generator index exceeds the limit")
                   for line in err)

    @pytest.mark.parametrize("atom", ["i^9999", "e1^9999"])
    def test_one_parse_budget_per_table(self, atom, tmp_path, capsys):
        # 20 actions of 13 kB, each within the budget on its own: with a
        # budget per action the table (0.26 MB) took 6-7 s to parse; one
        # budget for the table refuses it in about 2 s on a 2-vCPU VM
        terms = "+".join([atom] * (13_000 // (len(atom) + 1)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"actions": {str(k): terms
                                                for k in range(1, 21)}}))
        start = time.perf_counter()
        assert run(["--domain", "gaussian", "deriv", "extract", "--parity",
                    "even", "--bound", "20", "--table", f"@{path}"]) == 2
        assert time.perf_counter() - start < 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: expression needs more than "
                              f"{MAX_PRODUCT_PAIRS} blade products")

    # odd extraction probes k = 1..bound+1, so its bound stops one short
    EXTRACT_LIMITS = {"even": MAX_GENERATOR, "odd": MAX_GENERATOR - 1}

    def test_extract_bound_limit(self, capsys):
        table = json.dumps({"actions": {str(k): "0"
                                        for k in range(1, MAX_GENERATOR + 1)}})
        for parity, high in self.EXTRACT_LIMITS.items():
            for bound in (0, high):
                assert run(["deriv", "extract", "--parity", parity, "--table",
                            table, "--bound", str(bound)]) == 0
                assert json.loads(capsys.readouterr().out) == {
                    "parity": parity, "terms": []}

    @pytest.mark.parametrize("above", [True, False],
                             ids=["limit-plus-one", "negative"])
    def test_extract_bound_out_of_range(self, above, tmp_path, capsys):
        # the bound is refused before the table is read, even one that is
        # not JSON or names no file
        tables = ['{"actions":{}}', "{oops", f"@{tmp_path / 'missing.json'}"]
        for parity, high in self.EXTRACT_LIMITS.items():
            bound = high + 1 if above else -1
            for table in tables:
                assert run(["deriv", "extract", "--parity", parity, "--bound",
                            str(bound), "--table", table]) == 2
                assert capsys.readouterr() == (
                    "", f"error: --bound must be between 0 and {high}, "
                        f"got {bound}\n")

    @pytest.mark.parametrize("text, column", [("1" * 5000, 0),
                                              ("1/" + "1" * 5000, 2)],
                             ids=["numerator", "denominator"])
    def test_long_integer_literal(self, text, column, capsys):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert run(["eval", text]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err == (
            f"error: integer literal of 5000 digits is too long "
            f"(line 1, column {column})\n")

    @pytest.mark.parametrize("argv", [
        ["--signature", f'{{"default":{"1" * 5000}}}', "eval", "e1"],
        ["deriv", "apply", "--family", '{"parity":"even","terms":[{"blade":'
         f'[1,{"1" * 5000}],"coeff":"1"}}]}}', "e2"],
    ], ids=["signature-default", "family-blade"])
    def test_json_integer_past_the_digit_limit(self, argv, capsys):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert run(argv) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr() == (
            "", "error: a JSON integer has more than 4300 digits\n")

    def test_deep_nesting_still_evaluates(self, capsys):
        assert run(["eval", "(" * 100 + "e1" + ")" * 100]) == 0
        assert capsys.readouterr().out == "e1\n"

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_coefficient_past_the_digit_limit(self, as_json, capsys):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            # the coefficients are 2**19999, 6021 decimal digits
            assert run(["--json"] * as_json + ["eval", "(1+e1)^20000"]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert sys.get_int_max_str_digits() == limit
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: cannot print a value of more than 4300 decimal "
                       "digits (the interpreter's integer conversion limit)\n")

    def test_digit_limit_is_a_library_error(self):
        ctx = Context.make(Domain.GAUSSIAN)
        big = parse("(1+i)^40000", ctx)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            with pytest.raises(DigitLimitError):
                render(big)
            with pytest.raises(DigitLimitError):
                format_scalar(Domain.GAUSSIAN, big.terms[next(iter(big.terms))])
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [
        ["rep", "check", "--max-k", "0"],
        ["rep", "check", "--max-k", "-1"],
        ["rep", "check", "--max-k", str(REP_CHECK_MAX_K + 1)],
        ["witness", "--n", "0"],
        ["witness", "--n", str(WITNESS_MAX_N + 1)],
    ], ids=["max-k-0", "max-k-negative", "max-k-above", "n-0", "n-above"])
    def test_size_flags_out_of_range(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {argv[-2]} must be between 1 and ")

    def test_documented_witness_limits(self):
        # README's "Size limits" gives these values
        assert (WITNESS_MAX_N, WITNESS_MAX_NM) == (5000, 80_000)

    @pytest.mark.parametrize("n, m", [(2, 40000), (13, 6152)])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_witness_at_the_m_limit(self, n, m, as_json, capsys):
        assert n * m <= WITNESS_MAX_NM < n * (m + 2)
        argv = ["--json"] * as_json + ["witness", "--n", str(n), "--m", str(m)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_one_witness_pair_is_inconclusive(self, capsys):
        assert run(["witness", "--n", "1"]) == 1
        assert capsys.readouterr() == ("n=1: (1/2, 1/2)\nverdict: INCONCLUSIVE\n", "")

    @pytest.mark.parametrize("n, m", [(1, 80002), (13, 6154), (WITNESS_MAX_N, 18),
                                      (1, 100000)])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_witness_past_the_m_limit(self, n, m, as_json, capsys):
        start = time.perf_counter()
        argv = ["--json"] * as_json + ["witness", "--n", str(n), "--m", str(m)]
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        high = max(h for h in range(2, m, 2) if n * h <= WITNESS_MAX_NM)
        assert capsys.readouterr() == (
            "", f"error: --m must be between 2 and {high}, got {m}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--m", "3"], "--m must be even, got 3"),
        (["--m", "0"], "--m must be between 2 and 8000, got 0"),
        (["--n", "0", "--m", "3"], "--n must be between 1 and 5000, got 0"),
    ], ids=["m-odd", "m-0", "n-before-m"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_witness_errors_name_the_flag(self, argv, message, as_json, capsys):
        assert run(["--json"] * as_json + ["witness"] + argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_documented_cuts_limits(self):
        # README's "Size limits" gives these values
        assert (DECOMP_MAX_BLOCK, DECOMP_MAX_CUT) == (10, 30)

    @pytest.mark.parametrize("argv", [
        ["decomp", "check", "--cuts", str(DECOMP_MAX_BLOCK)],
        ["--domain", "gaussian", "decomp", "build", "--cuts", _WIDEST_LAST],
        ["--domain", "gaussian", "decomp", "rewrite", "--cuts", _WIDEST_LAST,
         "--k", str(DECOMP_MAX_CUT)],
        ["--domain", "gaussian", "decomp", "check", "--cuts",
         ",".join(map(str, range(2, DECOMP_MAX_CUT + 1, 2)))],
    ], ids=["widest-block", "last-cut", "rewrite-last-cut", "check-last-cut"])
    def test_cuts_at_the_limits(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("cuts", [
        str(DECOMP_MAX_BLOCK + 1),
        str(DECOMP_MAX_BLOCK + 2),
        ",".join(map(str, range(2, DECOMP_MAX_CUT, 2))) + f",{DECOMP_MAX_CUT + 1}",
        ",".join(map(str, range(2, DECOMP_MAX_CUT + 3, 2))),
    ], ids=["block-plus-one", "block-plus-two", "cut-plus-one", "cut-plus-two"])
    @pytest.mark.parametrize("command", ["build", "check", "rewrite"])
    def test_cuts_past_the_limits(self, command, cuts, capsys):
        argv = ["--domain", "gaussian", "decomp", command, "--cuts", cuts]
        start = time.perf_counter()
        assert run(argv + ["--k", "1"] * (command == "rewrite")) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --cuts allows blocks of at most ")

    def test_invalid_cuts_inside_the_limits_still_fail_verification(self, capsys):
        assert run(["decomp", "check", "--cuts", "6,2"]) == 1
        assert capsys.readouterr().err.startswith("error: cuts must be even")

    @pytest.mark.parametrize("k, code", [(0, 2), (1, 0), (6, 0), (7, 2)])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_rewrite_k_range(self, k, code, as_json, capsys):
        argv = ["--json"] * as_json + ["decomp", "rewrite", "--cuts", "2,6",
                                       "--k", str(k)]
        assert run(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err == f"error: --k must be between 1 and 6, got {k}\n"
        else:
            assert err == ""
            assert out.endswith(f"product = e{k}: OK\n")

    @pytest.mark.parametrize("command", ["build", "check", "rewrite"])
    def test_cuts_that_are_not_integers(self, command, capsys):
        argv = ["decomp", command, "--cuts", "2,,4"]
        assert run(argv + ["--k", "1"] * (command == "rewrite")) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --cuts must be integers separated by commas, "
                       "got '2,,4'\n")


# Every reader of integer text from outside, as (argv for a text, low, high):
# the integer flags, a `--cuts` piece and the generator-index object keys.
_TEN_ACTIONS = json.dumps({"actions": {str(k): "0" for k in range(1, 11)}})
INTEGER_INPUTS = {
    "--n": (lambda t: ["witness", "--n", t], 1, WITNESS_MAX_N),
    "--m": (lambda t: ["witness", "--n", "2", "--m", t], 2, WITNESS_MAX_NM // 2),
    "--bound": (lambda t: ["deriv", "extract", "--parity", "even", "--bound", t,
                           "--table", _TEN_ACTIONS], 0, MAX_GENERATOR),
    "--max-k": (lambda t: ["rep", "check", "--max-k", t], 1, REP_CHECK_MAX_K),
    "--k": (lambda t: ["decomp", "rewrite", "--cuts", "2,6", "--k", t], 1, 6),
    "--cuts": (lambda t: ["decomp", "check", "--cuts", "2," + t],
               1, MAX_GENERATOR),
    "signature-key": (lambda t: ["--signature",
                                 json.dumps({"overrides": {t: "2"}}),
                                 "eval", "e7*e7"], 1, MAX_GENERATOR),
    "table-key": (lambda t: ["deriv", "extract", "--parity", "even", "--bound",
                             "0", "--table", json.dumps({"actions": {t: "0"}})],
                  1, MAX_GENERATOR),
}
# A mark is the int a text reads as, whose outcome is that of its ASCII
# digits, or the refusal the input prints.
DIGITS, RANGE, COMMAS = "digits", "range", "commas"
_NOT_DIGITS = (DIGITS,) * 5 + (COMMAS, DIGITS, DIGITS)
# id: (text, marks in the order of INTEGER_INPUTS)
INTEGER_TABLE = {
    "arabic-indic-three": ("٣", _NOT_DIGITS),
    "underscore": ("1_0", _NOT_DIGITS),
    "plus": ("+3", _NOT_DIGITS),
    "leading-space": (" 3", _NOT_DIGITS),
    "trailing-space": ("3 ", _NOT_DIGITS),
    "hex": ("0x3", _NOT_DIGITS),
    "empty": ("", _NOT_DIGITS),
    "negative": ("-1", (RANGE,) * 8),
    "leading-zeros": ("007", (7,) * 8),
    "4000-digits": ("1" * 4000, (RANGE,) * 8),
    "5000-digits": ("1" * 5000, (RANGE,) * 8),
}


def _refusal(column, text, mark, low, high):
    what = column if column.startswith("--") else "generator index"
    return "error: " + {
        DIGITS: f"{what} must be decimal digits, got {text!r}",
        RANGE: f"{what} must be between {low} and {high}, got {text}",
        COMMAS: f"--cuts must be integers separated by commas, got {'2,' + text!r}",
    }[mark] + "\n"


@pytest.mark.parametrize("column, text, mark", [
    pytest.param(column, text, mark, id=f"{column}-{name}")
    for name, (text, marks) in INTEGER_TABLE.items()
    for column, mark in zip(INTEGER_INPUTS, marks)
])
def test_integer_table(column, text, mark, capsys):
    argv, low, high = INTEGER_INPUTS[column]

    def outcome(text):
        code = run(argv(text))
        return (code, *capsys.readouterr())

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = outcome(text)
        expected = outcome(str(mark)) if isinstance(mark, int) else \
            (2, "", _refusal(column, text, mark, low, high))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


# One malformed document per reader and defect: an index past the limit, an
# index that is not an integer, and a document of the wrong shape.
_READERS = {
    "multivector": (serialize.multivector_from_json,
                    lambda k: {"terms": [{"blade": [1, k], "coeff": "1"}]}),
    "family": (serialize.family_from_json,
               lambda k: {"parity": "even",
                          "terms": [{"blade": [1, k], "coeff": "1"}]}),
    "skew": (serialize.skew_from_json,
             lambda k: {"entries": [{"i": 1, "j": k, "value": "-2"}]}),
    "orthogonal": (serialize.orthogonal_from_json,
                   lambda k: {"active": [1, k],
                              "matrix": [["0", "-1"], ["1", "0"]]}),
}
_WRONG_SHAPE = {"multivector": {"terms": [{"blade": 1, "coeff": "1"}]},
                "family": [1],
                "skew": {"entries": [{"i": 1, "value": "-2"}]},
                "orthogonal": {"active": [1], "matrix": 3}}


class TestJsonInputs:
    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_index_past_the_limit(self, reader):
        read, doc = _READERS[reader]
        assert read(doc(2), CTX) is not None
        start = time.perf_counter()
        for k in (MAX_GENERATOR + 1, 300000, 10 ** 100):
            with pytest.raises(ValueError, match=f"between 1 and {MAX_GENERATOR},"):
                read(doc(k), CTX)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_index_not_an_integer(self, reader):
        read, doc = _READERS[reader]
        for k in ("2", 2.0, True, None, [2]):
            with pytest.raises(ValueError, match="must be an integer"):
                read(doc(k), CTX)

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_wrong_shape(self, reader):
        read, _ = _READERS[reader]
        with pytest.raises(ValueError, match=f"malformed {reader} JSON"):
            read(_WRONG_SHAPE[reader], CTX)

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @given(data=st.data())
    def test_multivector_round_trip(self, domain, data):
        values = VALUES[domain]
        nonzero = values.filter(bool)
        indices = st.integers(min_value=1, max_value=MAX_GENERATOR)
        ctx = Context.make(domain, data.draw(nonzero), data.draw(
            st.dictionaries(indices, nonzero, max_size=3)))
        blades = st.lists(indices, unique=True, max_size=4).map(Blade.from_indices)
        a = Multivector(ctx, data.draw(st.dictionaries(blades, values,
                                                       max_size=5)))
        back = serialize.multivector_from_json(
            _strict_json(json.dumps(serialize.multivector_to_json(a))))
        assert back.context == a.context
        assert back == a

    @pytest.mark.parametrize("argv, path, text", [
        (["eval", "(2*e1*e1)^1100 + e2"], ("terms", 0, "coeff"), "inf"),
        (["eval", "0 - (2*e1*e1)^1100"], ("terms", 0, "coeff"), "-inf"),
        (["--signature", '{"default":"nan"}', "eval", "e1"],
         ("signature", "default"), "nan"),
    ], ids=["inf", "minus-inf", "nan"])
    def test_non_finite_f64_values_are_strings(self, argv, path, text, capsys):
        assert run(["--domain", "f64", "--json", *argv]) == 0
        doc = _strict_json(capsys.readouterr().out)
        value = doc
        for key in path:
            value = value[key]
        assert value == text
        back = serialize.multivector_to_json(
            serialize.multivector_from_json(doc))
        assert back == doc

    @pytest.mark.parametrize("key, message", [
        ("0", "between 1 and"),
        ("-3", "between 1 and"),
        ("99999999999", "between 1 and"),
        ("1_0", "decimal digits"),
        (" 2 ", "decimal digits"),
        ("+2", "decimal digits"),
        ("2.0", "decimal digits"),
        ("", "decimal digits"),
        ("\u0663", "decimal digits"),
    ], ids=["zero", "negative", "far", "underscore", "spaces", "plus", "float",
            "empty", "arabic-indic-three"])
    @pytest.mark.parametrize("reader", ["signature", "table"])
    def test_object_keys_are_generator_indices(self, reader, key, message,
                                               capsys):
        # the library reader, then the CLI, with the key beside valid ones
        if reader == "signature":
            doc = {"overrides": {"1": "-1", key: "2"}}
            read = lambda: serialize.context_from_json({"signature": doc})
            argv = ["--signature", json.dumps(doc), "eval", "e1*e1"]
        else:
            doc = {"actions": {"1": "-2*e2", "2": "2*e1", key: "0"}}
            read = lambda: serialize.table_from_json(doc, CTX)
            argv = ["deriv", "extract", "--parity", "even", "--bound", "2",
                    "--table", json.dumps(doc)]
        with pytest.raises(ValueError, match=f"generator index .*{message}"):
            read()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: generator index ")

    def test_object_keys_at_the_limit(self):
        ctx = serialize.context_from_json(
            {"signature": {"overrides": {"007": "2", str(MAX_GENERATOR): "3"}}})
        assert (ctx.q(7), ctx.q(MAX_GENERATOR)) == (2, 3)
        table = serialize.table_from_json(
            {"actions": {str(MAX_GENERATOR): "e1"}}, CTX)
        assert list(table) == [MAX_GENERATOR]

    @pytest.mark.parametrize("reader", ["signature", "table"])
    def test_two_keys_that_read_as_one_index_are_refused(self, reader, capsys):
        # a JSON object keeps both "7" and "007"; neither may silently win
        if reader == "signature":
            doc = {"overrides": {"7": "2", "1": "-1", "007": "3"}}
            read = lambda: serialize.context_from_json({"signature": doc})
            argv = ["--signature", json.dumps(doc), "eval", "e7*e7"]
        else:
            doc = {"actions": {"7": "e1", "1": "-2*e2", "007": "0"}}
            read = lambda: serialize.table_from_json(doc, CTX)
            argv = ["deriv", "extract", "--parity", "even", "--bound", "2",
                    "--table", json.dumps(doc)]
        with pytest.raises(ValueError, match="^generator index 7 appears twice$"):
            read()
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: generator index 7 appears twice\n")

    @pytest.mark.parametrize("reader", ["context", "table"])
    def test_a_list_of_keys_is_a_wrong_shape(self, reader):
        # the shape is checked before any key is read as an index
        read = {"context": lambda doc: serialize.context_from_json(
                    {"signature": {"overrides": doc}}),
                "table": lambda doc: serialize.table_from_json({"actions": doc}, CTX)}
        with pytest.raises(ValueError, match=f"^malformed {reader} JSON"):
            read[reader](["0"])

    @pytest.mark.parametrize("second, code", [
        ({"i": 1, "j": 2, "value": "5"}, 1), ({"i": 2, "j": 1, "value": "1"}, 1),
        ({"i": 1, "j": 2, "value": "1"}, 0), ({"i": 2, "j": 1, "value": "-1"}, 0),
    ], ids=["repeat", "transposed", "equal-repeat", "equal-transposed"])
    def test_a_repeated_skew_entry_must_agree(self, second, code, capsys):
        # every entry reaches the skew-symmetry check, a repeat as its transpose
        doc = {"entries": [{"i": 1, "j": 2, "value": "1"}, second]}
        assert run(["deriv", "inner-witness", "--skew", json.dumps(doc)]) == code
        assert capsys.readouterr() == (
            ("", "error: entries at (1, 2) contradict skew-symmetry\n") if code
            else ("1/2*e1*e2\n", ""))

    @pytest.mark.parametrize("argv", [
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,"2"],"coeff":"1"}]}', "e2"],
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,2.0],"coeff":"1"}]}', "e2"],
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,300000],"coeff":"1"}]}', "e2"],
        ["deriv", "apply", "--family", "[1]", "e2"],
        ["deriv", "bogolyubov", "--skew",
         '{"entries":[{"i":1,"j":"x","value":"-2"}]}'],
        ["deriv", "inner-witness", "--skew", '{"entries":[{"i":1}]}'],
        ["auto", "bogolyubov", "--map",
         '{"active":[1,20000],"matrix":[["0","-1"],["1","0"]]}', "e1"],
        ["--config", "/dev/null", "eval", "e1"],
        ["--signature", "[1]", "eval", "e1"],
        ["deriv", "extract", "--parity", "even", "--bound", "2",
         "--table", '["-2*e2"]'],
        ["deriv", "extract", "--parity", "even", "--bound", "2",
         "--table", '{"actions":["-2*e2"]}'],
        ["deriv", "extract", "--parity", "even", "--bound", "2",
         "--table", '{"actions":{"1":5}}'],
        ["deriv", "extract", "--parity", "even", "--bound", "2",
         "--table", '{"action":{"1":"-2*e2"}}'],
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,2],"coeff":null}]}', "e2"],
        ["--signature", '{"overrides":{"1":true}}', "eval", "e1"],
        ["--domain", "f64", "--signature", '{"default":false}', "eval", "e1"],
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,2],"coeff":true}]}', "e2"],
        ["deriv", "apply", "--family",
         '{"parity":"even","terms":[{"blade":[1,2],"coeff":1.5}]}', "e2"],
        ["--domain", "gaussian", "--signature", '{"default":-1.5}',
         "eval", "e1"],
        # values beyond the float range
        ["--domain", "f64", "eval", f"{10 ** 400}*e1"],
        ["--domain", "f64", "--signature", f'{{"default":{10 ** 400}}}',
         "eval", "e1*e1"],
        ["--domain", "f64", "deriv", "bogolyubov", "--skew",
         f'{{"entries":[{{"i":1,"j":2,"value":{10 ** 400}}}]}}'],
        ["--domain", "c64", "--signature", f'{{"default":"{10 ** 400}/3+1 i"}}',
         "eval", "e1"],
        # nesting deeper than the interpreter's recursion limit
        ["eval", "(" * 247 + "e1" + ")" * 247],
        ["eval", "rev(" * 256 + "e1" + ")" * 256],
        ["eval", "--", "-" * 2000 + "e1"],
        ["deriv", "extract", "--parity", "even", "--bound", "2", "--table",
         json.dumps({"actions": {"1": "(" * 247 + "-2*e2" + ")" * 247}})],
        ["deriv", "apply", "--family", "[" * 1000 + "]" * 1000, "e2"],
        # the global flags are read for every subcommand
        ["--signature", "{bad", "witness", "--n", "2"],
        ["--config", "/nonexistent/config.json", "rep", "check",
         "--max-k", "1"],
    ], ids=["string-index", "float-index", "far-index", "list-family",
            "string-skew-index", "skew-without-j", "far-active",
            "empty-config", "list-signature", "list-table", "list-actions",
            "number-action", "no-actions", "null-coeff", "bool-override",
            "f64-bool-default", "bool-coeff", "float-coeff",
            "gaussian-float-default", "f64-huge-literal", "f64-huge-default",
            "f64-huge-skew", "c64-huge-default", "nested-parentheses",
            "nested-rev", "minus-signs", "nested-table-action", "nested-json",
            "witness-bad-signature", "rep-check-missing-config"])
    def test_cli_reports_a_usage_error(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, literal", [
        (["--signature", '{"default":"1/0"}', "eval", "e1"], "rational"),
        (["deriv", "apply", "--family",
          '{"parity":"even","terms":[{"blade":[1,2],"coeff":"1/0"}]}', "e1"],
         "rational"),
        (["--domain", "gaussian", "--signature", '{"default":"1/0+1 i"}',
          "eval", "e1"], "gaussian"),
        (["--domain", "c64", "--signature", '{"default":"1/0+1 i"}',
          "eval", "e1"], "c64"),
    ], ids=["signature", "family-coeff", "gaussian-signature", "c64-signature"])
    def test_zero_denominator_is_a_usage_error(self, argv, literal, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bad {literal} literal: '1/0")
        assert len(err.splitlines()) == 1

    # JSON scalars take ASCII digits only, as expressions do
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_unicode_digits_are_refused(self, as_json, capsys):
        argv = ["--json"] * as_json + ["--signature", '{"default":"٣"}',
                                       "eval", "e1*e1"]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: bad rational literal: '٣'\n")

    def test_unicode_digits_in_a_gaussian_coefficient(self, capsys):
        family = '{"parity":"even","terms":[{"blade":[1,2],"coeff":"١/٢"}]}'
        assert run(["--domain", "gaussian", "deriv", "apply", "--family",
                    family, "e1"]) == 2
        assert capsys.readouterr() == (
            "", "error: bad gaussian literal: '١/٢'\n")

    def test_f64_reads_a_fraction(self, capsys):
        assert run(["--domain", "f64", "--signature", '{"default":"1/3"}',
                    "eval", "e1*e1"]) == 0
        assert capsys.readouterr() == ("0.3333333333333333\n", "")

    def test_exact_exponent_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert run(["--signature", '{"default":"1e1000000"}', "eval", "e1"]) == 2
        assert time.perf_counter() - start < 0.2
        assert capsys.readouterr().err == \
            "error: bad rational literal: '1e1000000'\n"

    @pytest.mark.parametrize("flags", [[], ["--domain", "gaussian"],
                                       ["--signature", "{}"]])
    def test_config_that_is_not_an_object(self, flags, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1]")
        assert run(["--config", str(cfg), *flags, "eval", "e1"]) == 2
        assert capsys.readouterr().err == \
            "error: expected a JSON object, got list\n"

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)],
                             ids=["at-limit", "one-byte-over"])
    def test_json_file_size_limit(self, extra, code, tmp_path, capsys):
        doc = '{"parity":"even","terms":[{"blade":[1,2],"coeff":"1"}]}'
        path = tmp_path / "family.json"
        path.write_text(doc.ljust(JSON_MAX_BYTES + extra))
        assert path.stat().st_size == JSON_MAX_BYTES + extra
        assert run(["deriv", "apply", "--family", f"@{path}", "e2"]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == (
                "", f"error: {path} is larger than {JSON_MAX_BYTES} bytes\n")
        else:
            assert (out, err) == ("2*e1\n", "")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    @pytest.mark.parametrize("flags", [
        ["deriv", "apply", "--family", "@/dev/zero", "e1"],
        ["--signature", "@/dev/zero", "eval", "e1"],
        ["--config", "/dev/zero", "eval", "e1"],
    ], ids=["family", "signature", "config"])
    def test_endless_json_file_is_refused(self, flags, capsys):
        assert run(flags) == 2
        assert capsys.readouterr().err == \
            f"error: /dev/zero is larger than {JSON_MAX_BYTES} bytes\n"


def _cli_env():
    return dict(os.environ,
                PYTHONPATH=str(Path(cliffalg.__file__).resolve().parents[1]))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "cliffalg", "eval", "e2*e1"],
                          capture_output=True, text=True, env=_cli_env(),
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-e1*e2\n", "")


def _run_into_closed_pipe(argv):
    """Run the CLI with stdout on a pipe whose reader has already gone."""
    env = _cli_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "cliffalg.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["trace", "3 + 5*e1"],
                                  ["witness", "--n", "400"]],
                         ids=["at-exit", "mid-output"])
def test_closed_stdout_exits_quietly(argv):
    proc = _run_into_closed_pipe(argv)
    assert proc.stderr == b""
    assert proc.returncode == BROKEN_PIPE


class TestFloatPolicy:
    """README's "Float domains" section."""

    def test_noise_term_is_kept(self, capsys):
        assert run(["--domain", "f64", "eval", "1/10*e1 + 2/10*e1 - 3/10*e1"]) == 0
        assert capsys.readouterr().out == "5.551115123125783e-17*e1\n"

    @pytest.mark.parametrize("text", ["0-i", "(0-1)*i"])
    def test_c64_zero_real_part_prints_unsigned(self, text, capsys):
        # 0 - i has real part -0.0; it equals (0-1)*i and prints alike
        assert run(["--domain", "c64", "eval", "--", text]) == 0
        assert capsys.readouterr().out == "(0.0-1.0*i)\n"
        assert run(["--domain", "c64", "--json", "eval", "--", text]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terms"] == [{"blade": [], "coeff": "0.0-1.0 i"}]

    def test_equality_is_exact(self):
        ctx = Context.make(Domain.F64)
        a = parse("1/10*e1 + 2/10*e1", ctx)
        assert a.terms == {Blade.of(1): 0.1 + 0.2}
        assert a != parse("3/10*e1", ctx)

    def test_float_render_is_not_in_the_grammar(self):
        ctx = Context.make(Domain.F64)
        text = render(parse("1/2*e1", ctx))
        assert text == "0.5*e1"
        with pytest.raises(ParseError):
            parse(text, ctx)


class TestExitCodes:
    def test_syntax_error_is_usage_error(self, capsys):
        assert run(["eval", "e1*"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_atom(self, capsys):
        assert run(["eval", "foo"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_verification_failure_is_exit_one(self, capsys):
        bad = ["auto", "bogolyubov",
               "--map", '{"active":[1],"matrix":[["2"]]}', "e1"]
        assert run(bad) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("domain", ["f64", "c64"])
    @pytest.mark.parametrize("entry, code", [("nan", 1), ("2", 1), ("1", 0)])
    def test_a_nan_map_fails_the_orthogonality_check(self, domain, entry, code,
                                                    capsys):
        omap = f'{{"active":[1,2],"matrix":[["{entry}","0"],["0","1"]]}}'
        assert run(["--domain", domain, "auto", "bogolyubov", "--map", omap,
                    "e1 + e2"]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", "error: map does not preserve the quadratic form\n")
        else:
            assert (out, err) == ("e1 + e2\n", "")

    @pytest.mark.parametrize("signature, q", [
        ('{"default":"-1"}', 1), ('{"overrides":{"4":"2"}}', 4)])
    def test_rep_check_refuses_a_nonunit_form(self, signature, q, capsys):
        # the representations are of q == 1 on generators 1..2 * max_k, as
        # for the factor chains of `decomp check`
        assert run(["--domain", "gaussian", "--signature", signature,
                    "rep", "check", "--max-k", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: rep check requires q == 1 on the support " \
                      f"(q_{q} != 1)\n"

    @pytest.mark.parametrize("max_k, code, err", [
        ("x", 2, "error: --max-k must be decimal digits, got 'x'\n"),
        ("2", 1, "error: rep check requires q == 1 on the support (q_1 != 1)\n"),
    ], ids=["not-an-integer", "nonunit"])
    def test_rep_check_reads_max_k_before_the_form(self, max_k, code, err, capsys):
        assert run(["--signature", '{"overrides":{"1":"-1"}}', "rep", "check",
                    "--max-k", max_k]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("signature", [
        '{"default":"1"}', '{"overrides":{"5":"2"}}'], ids=["unit", "beyond"])
    def test_rep_check_accepts_a_form_unit_on_its_generators(self, signature,
                                                            capsys):
        assert run(["--signature", signature, "rep", "check",
                    "--max-k", "2"]) == 0
        assert capsys.readouterr().out == (
            "trace coherence k=1 vs k=2: OK\nfaithfulness k=1: OK\n"
            "faithfulness k=2: OK\n")

    def test_auto_bogolyubov_maps_a_blade_of_grade_1000(self, capsys):
        # v1 -> v2 and v2 -> -v1 fix v1 v2, so the blade maps to itself
        omap = '{"active":[1,2],"matrix":[["0","-1"],["1","0"]]}'
        expr = "*".join(f"e{k}" for k in range(1, 1001))
        assert run(["auto", "bogolyubov", "--map", omap, expr]) == 0
        assert capsys.readouterr().out == expr + "\n"

    def test_malformed_json(self, capsys):
        assert run(["deriv", "bogolyubov", "--skew", "{oops"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_odd_cuts_fail(self, capsys):
        assert run(["decomp", "build", "--cuts", "3,6"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestJsonOutput:
    def test_eval_json_round_trips(self, capsys):
        assert run(["--json", "eval", "1 + 3/4*e1*e2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["domain"] == "rational"
        assert payload["terms"] == [{"blade": [], "coeff": "1"},
                                    {"blade": [1, 2], "coeff": "3/4"}]

    def test_trace_json(self, capsys):
        assert run(["--json", "trace", "3 + 5*e1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"value": "3"}


class TestConfig:
    def test_config_file_sets_domain_and_signature(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "domain": "rational",
            "signature": {"default": "1", "overrides": {"1": "2"}}}))
        assert run(["--config", str(cfg), "eval", "e1*e1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"domain": "rational"}))
        assert run(["--config", str(cfg), "--domain", "gaussian",
                    "eval", "i*i"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_config_then_domain_then_signature_keys(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "domain": "rational",
            "signature": {"default": "2", "overrides": {"1": "3"}}}))
        args = build_parser().parse_args(
            ["--config", str(cfg), "--domain", "gaussian",
             "--signature", '{"overrides":{"2":"5"}}', "eval", "e1"])
        # --domain replaces the file's domain; the flag's "overrides" replaces
        # the file's as a whole, and the file's "default" stays
        assert _context(args) == Context.make(Domain.GAUSSIAN, 2, {2: 5})
        assert run(["--config", str(cfg), "--signature", '{"default":"7"}',
                    "eval", "e1*e1 + e2*e2"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    @pytest.mark.parametrize("signature", ["x", [1], 3],
                             ids=["string", "list", "number"])
    def test_config_signature_that_is_not_an_object(self, signature, tmp_path,
                                                    capsys):
        # with --signature too, the file's signature is refused, not merged
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"signature": signature}))
        assert run(["--config", str(cfg), "eval", "e1"]) == 2
        alone = capsys.readouterr()
        assert alone.err.startswith("error: malformed context JSON: ")
        assert run(["--config", str(cfg), "--signature", '{"default":"2"}',
                    "eval", "e1"]) == 2
        assert capsys.readouterr() == alone

    def test_signature_flag(self, capsys):
        assert run(["--signature", '{"overrides":{"3":"5"}}',
                    "eval", "e3^2"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    @pytest.mark.parametrize("flags", [[], ["--domain", "f64"],
                                       ["--domain", "gaussian"]])
    def test_flagless_requests_share_one_context(self, flags):
        parser = build_parser()
        first = _context(parser.parse_args(flags + ["eval", "e1"]))
        again = _context(parser.parse_args(flags + ["trace", "e2"]))
        assert first is again
        assert first == Context.make(Domain(flags[-1] if flags else "rational"))

    def test_signature_and_config_requests_build_their_own(self, tmp_path,
                                                            capsys):
        parser = build_parser()
        argv = ["--signature", '{"overrides":{"3":"5"}}', "eval", "e1"]
        assert _context(parser.parse_args(argv)) is not \
            _context(parser.parse_args(argv))
        # a config file edited between two requests is read again
        cfg = tmp_path / "config.json"
        for q in ("2", "3"):
            cfg.write_text(json.dumps({"signature": {"default": q}}))
            assert run(["--config", str(cfg), "eval", "e1*e1"]) == 0
            assert capsys.readouterr().out.strip() == q


# Each command's usage after `cliffalg PATH`, and each argument's help string
# (None where it has none), as --help prints them when nothing wraps.
COMMAND_HELP = {
    "eval": ("[-h] expr", {"expr": None}),
    "trace": ("[-h] expr", {"expr": None}),
    "norm": ("[-h] expr", {"expr": None}),
    "deriv apply": ("[-h] --family FAMILY expr",
                    {"--family FAMILY": "family JSON or @file", "expr": None}),
    "deriv extract": (
        "[-h] --parity {even,odd} --bound BOUND --table TABLE",
        {"--parity {even,odd}": None,
         "--bound BOUND": f"largest generator index of the blades, "
                          f"0..{MAX_GENERATOR} even, 0..{MAX_GENERATOR - 1} "
                          f"odd (odd probes k = 1..bound+1)",
         "--table TABLE": 'JSON {"actions": {"k": "expr", ...}} or @file'}),
    "deriv bogolyubov": ("[-h] --skew SKEW",
                         {"--skew SKEW": "skew-map JSON or @file"}),
    "deriv inner-witness": ("[-h] --skew SKEW",
                            {"--skew SKEW": "skew-map JSON or @file"}),
    "auto bogolyubov": ("[-h] --map MAP expr",
                        {"--map MAP": "orthogonal-map JSON or @file",
                         "expr": None}),
    "auto conjugate": ("[-h] --u U --u-inv U_INV expr",
                       {"--u U": None, "--u-inv U_INV": None, "expr": None}),
    "decomp build": ("[-h] --cuts CUTS", {"--cuts CUTS": None}),
    "decomp check": ("[-h] --cuts CUTS", {"--cuts CUTS": None}),
    "decomp rewrite": ("[-h] --cuts CUTS --k K",
                       {"--cuts CUTS": None, "--k K": None}),
    "rep check": ("[-h] [--max-k MAX_K]",
                  {"--max-k MAX_K": f"largest k checked, 1..{REP_CHECK_MAX_K}"}),
    "witness": ("[-h] [--n N] [--m M]",
                {"--n N": f"table length, 1..{WITNESS_MAX_N}",
                 "--m M": f"factor size, even, with n * m <= {WITNESS_MAX_NM}"}),
}


@pytest.mark.parametrize("command", sorted(COMMAND_HELP))
def test_command_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    usage, helps = COMMAND_HELP[command]
    assert run(command.split() + ["--help"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    assert first == f"usage: cliffalg {command} {usage}"
    listed = {}
    for line in rest:
        if line.startswith("  ") and not line.startswith("  -h"):
            name, text = (re.split(r" {2,}", line.strip(), 1) + [None])[:2]
            listed[name] = text
    assert listed == helps


class TestParserReuse:
    """`run` shares one parser per process; no call may leave state in it."""

    @staticmethod
    def _argvs(config):
        expr = "(1 + e1*e2)^2"
        every_subcommand = list(GOLDEN_CASES.values())
        # each global flag, then the same command without it
        carry_over = [
            ["--json", "eval", expr], ["eval", expr],
            ["--json", "decomp", "build", "--cuts", "2,6"],
            ["decomp", "build", "--cuts", "2,6"],
            ["--domain", "gaussian", "eval", "e1 + i"], ["eval", "e1 + i"],
            ["--signature", '{"default":"3"}', "norm", "e1"], ["norm", "e1"],
            ["--config", config, "eval", "e1*e1"], ["eval", "e1*e1"],
        ]
        failing = [
            ["--help"], ["deriv", "extract", "--help"], ["eval"],
            ["--domain", "quaternion", "eval", "e1"], ["nope"],
            ["eval", "e1 +"], ["decomp", "check", "--cuts", "3,6"],
        ]
        return every_subcommand + carry_over + failing + every_subcommand

    @staticmethod
    def _outcomes(argvs, capsys, fresh):
        outcomes = []
        for argv in argvs:
            if fresh:
                build_parser.cache_clear()
            code = run(argv)
            outcomes.append((argv, code, *capsys.readouterr()))
        return outcomes

    def test_reused_parser_answers_like_a_fresh_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"signature": {"default": "5"}}))
        argvs = self._argvs(str(cfg))
        reused = self._outcomes(argvs, capsys, fresh=False)
        assert reused == self._outcomes(argvs, capsys, fresh=True)
        assert {code for _, code, _, _ in reused} == {0, 1, 2}
        assert build_parser() is build_parser()

    def test_help_reads_columns_when_written(self, monkeypatch, capsys):
        run(["--help"])
        wide = capsys.readouterr().out
        monkeypatch.setenv("COLUMNS", "40")
        run(["--help"])
        narrow = capsys.readouterr().out
        build_parser.cache_clear()
        run(["--help"])
        assert capsys.readouterr().out == narrow != wide


# ---------------------------------------------------------------------------
# The request reader: `run` reads a well-formed request from the command
# table and hands every other to argparse
# ---------------------------------------------------------------------------

def _pool_argvs(seeds=(101, 102)):
    """The argv of every request in the benchmark's cli_mix pool."""
    bench = str(Path(__file__).resolve().parent.parent / "cliffbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads
    argvs = []
    lib = SimpleNamespace(cli=SimpleNamespace(run=argvs.append))
    for seed in seeds:
        for op in workloads.generate("cli_mix", seed):
            op.run(lib)
    return argvs


def _parsed(argv):
    """`build_parser().parse_args(argv)`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _read_argv(argv):
    return _read(argv, *build_parser().command_table)


FAMILY = '{"parity":"even","terms":[{"blade":[1,2],"coeff":"1"}]}'
TABLE = '{"actions":{"1":"-2*e2","2":"2*e1"}}'

# Forms only argparse takes: the reader declines each, and argparse parses
# it or writes its help or usage error
ARGPARSE_ONLY = {
    "short-help": ["-h"],
    "help": ["--help"],
    "command-help": ["deriv", "extract", "--help"],
    "abbreviation": ["--dom", "rational", "eval", "e1"],
    "flag-abbreviation": ["deriv", "apply", "--fam", FAMILY, "e2"],
    "equals": ["--domain=f64", "eval", "e1"],
    "double-dash": ["eval", "--", "-e1"],
    "repeated-flag": ["--json", "--json", "eval", "e1"],
    "repeated-value": ["decomp", "build", "--cuts", "2", "--cuts", "2,4"],
    "global-after-command": ["eval", "e1", "--json"],
    "negative-value": ["deriv", "extract", "--parity", "even", "--bound", "-1",
                       "--table", TABLE],
    "dash-positional": ["eval", "-e1"],
    "dash-space-positional": ["eval", "- e1"],
    "unknown-choice": ["deriv", "extract", "--parity", "both", "--bound", "2",
                       "--table", TABLE],
    "unknown-domain": ["--domain", "quaternion", "eval", "e1"],
    "missing-required": ["decomp", "rewrite", "--cuts", "2,6"],
    "missing-value": ["decomp", "check", "--cuts"],
    "missing-positional": ["eval"],
    "extra-positional": ["eval", "e1", "e2"],
    "bare-group": ["deriv"],
    "unknown-command": ["deriv", "nope"],
    "no-command": ["--json"],
    "empty": [],
}

# Well-formed forms the reader takes, beyond the goldens and the pool
READER_FORMS = [
    ["deriv", "apply", "e2", "--family", FAMILY],
    ["auto", "conjugate", "--u-inv", "e1", "e2", "--u", "e1"],
    ["deriv", "extract", "--table", TABLE, "--bound", "2", "--parity", "odd"],
    ["--json", "--config", "c.json", "--signature", "{}", "--domain", "c64",
     "witness"],
    ["rep", "check"],
    ["witness", "--m", "4"],
    ["eval", "deriv"],
    ["--signature", "eval", "eval", "e1"],
    ["eval", ""],
    ["decomp", "build", "--cuts", ""],
]


def test_the_reader_agrees_with_argparse(tmp_path):
    argvs = [*GOLDEN_CASES.values(), *READER_FORMS, *ARGPARSE_ONLY.values(),
             *TestParserReuse._argvs(str(tmp_path / "c.json"))]
    for argv in argvs:
        read = _read_argv(argv)
        assert read is None or read == _parsed(argv), argv
    for argv in [*GOLDEN_CASES.values(), *READER_FORMS]:
        assert _read_argv(argv) is not None, argv
    # the pool's requests: the reader takes each one argparse accepts, and
    # builds the very `func` of the command's row
    pool = _pool_argvs()
    assert len(pool) == 2 * 24 * len(_commands())
    for argv in pool:
        read, parsed = _read_argv(argv), _parsed(argv)
        assert read == parsed, argv
        assert read is None or read.func is parsed.func


TOKENS = ["--domain", "--json", "--signature", "--config", "--dom",
          "--domain=f64", "-h", "--", "eval", "deriv", "apply", "extract",
          "decomp", "build", "rep", "check", "witness", "--family", "--parity",
          "--bound", "--table", "--cuts", "--k", "--max-k", "--n", "--m",
          "--u", "--u-inv", "even", "odd", "f64", "e1", "-e1", "- e1", "-1",
          "2,4", "3", "", "{}"]


@given(st.lists(st.sampled_from(TOKENS), max_size=9))
def test_the_reader_declines_or_agrees_on_any_tokens(argv):
    read = _read_argv(argv)
    assert read is None or read == _parsed(argv)


@pytest.mark.parametrize("argv", ARGPARSE_ONLY.values(), ids=ARGPARSE_ONLY.keys())
def test_argparse_answers_what_the_reader_declines(argv, monkeypatch, capsys):
    assert _read_argv(argv) is None
    code = run(argv)
    got = (code, *capsys.readouterr())
    monkeypatch.setattr(cli, "_read", lambda *args: None)
    assert got == (run(argv), *capsys.readouterr())


def test_well_formed_requests_never_reach_argparse(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed request")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for name, argv in GOLDEN_CASES.items():  # one per row of _commands()
        assert run(argv) == 0
        assert capsys.readouterr() == ((GOLDEN / name).read_text(), "")
    # `main()`'s path: no argv, so sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["cliffalg", "--json", "trace", "3 + 5*e1"])
    assert run() == 0
    assert capsys.readouterr() == ('{"value": "3"}\n', "")
