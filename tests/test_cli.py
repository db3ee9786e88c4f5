"""The command-line surface: parsing, printing, JSON determinism, exit
codes, and the certificate file round-trip."""
import copy
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from p1h import serial
from p1h.certify import connect, pd_cert, unpointed_connect
from p1h.classify import mk_pd
from p1h.cli import main
from p1h.expr import (
    MAX_EXPONENT, ParseError, format_ratfun, parse_poly, parse_ratfun, parse_ratfun_sum,
)
from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly, X, const
from p1h.ratmap import PointedRat, RejectedPoint, UnpointedRat, mk_pointed, oplus, x_over

from conftest import p1h_env, random_point, ref_parse_ratfun, ref_parse_ratfun_sum, run_optimized


def _block_sum_60():
    """A degree-60 sum of blocks P/b over Q, deg P in 1-4, |b| in {1, 2, 3}."""
    rng = random.Random(60)
    parts, n = [], 0
    while n < 60:
        d = min(rng.randrange(1, 5), 60 - n)
        cs = rng.choices(range(-3, 4), k=d)
        terms = "".join(f"{c:+d}*X^{k}" for k, c in enumerate(cs) if c)
        parts.append(f"(X^{d}{terms})/({rng.choice([-3, -2, -1, 1, 2, 3])})")
        n += d
    return "+".join(parts)


class TestParser:
    def test_paper_example(self):
        f = parse_ratfun("(X^2-1)/X", QQ)
        assert isinstance(f, PointedRat)
        assert f == mk_pointed(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))

    def test_common_root_rejected(self):
        from p1h.ratmap import RejectedPoint

        with pytest.raises(RejectedPoint):
            parse_ratfun("(X^2+1)/(X+1)", GF(2))

    def test_fp_point(self):
        f = parse_ratfun("X/2", GF(5))
        assert isinstance(f, PointedRat) and f.res == 2

    def test_unpointed_autodetect(self):
        u = parse_ratfun("(2*X^2-1)/(X^2+X)", QQ)
        assert isinstance(u, UnpointedRat)

    def test_sum_sugar(self):
        f = parse_ratfun_sum("X/1+X/1", QQ)
        assert f == oplus(x_over(QQ, 1), x_over(QQ, 1))

    def test_sum_sugar_does_not_break_plain_plus(self):
        f = parse_ratfun_sum("(X^2+1)/X", QQ)
        assert isinstance(f, PointedRat)
        f2 = parse_ratfun_sum("X^2+1/X", QQ)  # split at the last slash
        assert f2 == f

    def test_fraction_coefficients_in_poly_context(self):
        p = parse_poly("1/2*X^2+3", QQ)
        assert p.coeff(2) == 0.5 and p.coeff(0) == 3

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("X^2 + $", QQ)
        assert "position 6" in str(exc.value)

    def test_roundtrip_print_parse(self, rng):
        for field in (QQ, GF(3), GF(5)):
            for _ in range(40):
                f = random_point(field, rng.randrange(1, 4), rng)
                assert parse_ratfun(format_ratfun(f), field) == f

    def test_exponent_cap(self):
        from p1h.expr import MAX_EXPONENT

        assert parse_poly(f"X^{MAX_EXPONENT}", GF(5)).degree == MAX_EXPONENT
        with pytest.raises(ParseError):
            parse_poly(f"X^{MAX_EXPONENT + 1}", GF(5))
        with pytest.raises(ParseError):
            parse_ratfun("X^100000000/1", GF(5))

    def test_whitespace_insensitive(self):
        assert parse_ratfun(" ( X^2 - 1 ) / X ", QQ) == parse_ratfun("(X^2-1)/X", QQ)


def _field_sum(field, terms):
    """The reference: the terms (sign, coefficient, exponent) summed one by
    one with the field's own operations."""
    coeffs = {}
    for sign, c, e in terms:
        c = field.coerce(c)
        coeffs[e] = field.add(coeffs.get(e, field.zero), c if sign > 0 else field.neg(c))
    return Poly.make(field, [coeffs.get(i, field.zero) for i in range(max(coeffs) + 1)])


def _term_text(c, e, rng):
    """One spelling of the term c X^e the grammar accepts."""
    coeff = f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else str(c)
    if e == 0:
        return coeff
    power = "X" if e == 1 and rng.random() < 0.5 else f"X^{e}"
    if c == 1 and rng.random() < 0.5:
        return power
    return coeff + rng.choice(["*", ""]) + power


def _terms_text(terms, rng):
    parts = []
    for k, (sign, c, e) in enumerate(terms):
        if k == 0:
            op = "-" if sign < 0 else rng.choice(["", "+"])
        else:
            op = " - " if sign < 0 else " + "
        parts.append(op + _term_text(c, e, rng))
    return "".join(parts)


class TestParserSums:
    """parse_poly sums its terms as plain numbers and coerces each sum
    once; the reference sums them term by term in the field."""

    @staticmethod
    def _random_terms(field, rng):
        p = field.p if field.char else 10
        terms = []
        for _ in range(rng.randrange(1, 9)):
            if field.char == 0 and rng.random() < 0.3:
                c = Fraction(rng.randrange(0, 30), rng.randrange(1, 12))
            else:
                c = rng.randrange(0, 3 * p + 2)  # residues >= p included
            terms.append((rng.choice([1, -1]), c, rng.randrange(0, 5)))
        if rng.random() < 0.3:  # a term and its negative: a cancelled sum
            sign, c, e = rng.choice(terms)
            terms.insert(rng.randrange(len(terms) + 1), (-sign, c, e))
        if rng.random() < 0.1:
            terms.append((rng.choice([1, -1]), rng.randrange(1, 5), MAX_EXPONENT))
        return terms

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)], ids=str)
    def test_sums_agree_with_field_operations(self, field, rng):
        for _ in range(300):
            terms = self._random_terms(field, rng)
            text = _terms_text(terms, rng)
            got = parse_poly(text, field)
            assert got == _field_sum(field, terms), text
            # stored coefficients are canonical: Fractions over Q, residues in [0, p)
            if field.char:
                assert all(type(c) is int and 0 <= c < field.p for c in got.coeffs), text
            else:
                assert all(type(c) is Fraction for c in got.coeffs), text

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)], ids=str)
    @pytest.mark.parametrize("terms", [
        [(1, 3, 2), (1, 4, 2), (-1, 1, 0)],  # a repeated exponent
        [(-1, 5, 1), (1, 2, 0)],  # a leading sign
        [(1, 1, 1), (-1, 1, 1)],  # cancels to the zero polynomial
        [(1, 2, 3), (1, 1, 0), (-1, 2, 3)],  # the top term cancels
        [(1, 250, 0), (-1, 999, 1), (1, 102, 1)],  # residues >= p, negatives
        [(1, 1, MAX_EXPONENT), (-1, 7, 0)],  # the largest exponent accepted
        [(-1, 1, MAX_EXPONENT), (1, 1, MAX_EXPONENT), (1, 1, 2)],
    ], ids=["repeated", "leading-sign", "zero", "top-cancels", "residues", "max-exponent",
            "max-exponent-cancels"])
    def test_edge_sums(self, field, terms, rng):
        text = _terms_text(terms, rng)
        assert parse_poly(text, field) == _field_sum(field, terms), text

    def test_fraction_coefficients_over_q(self):
        terms = [(1, Fraction(1, 2), 1), (-1, Fraction(3, 4), 1), (1, Fraction(6, 8), 0),
                 (-1, 1, 0), (1, Fraction(1, 4), 1)]
        text = "1/2*X - 3/4X + 6/8 - 1 + 1/4*X"
        assert parse_poly(text, QQ) == _field_sum(QQ, terms) == Poly.make(QQ, [Fraction(-1, 4)])


# Expressions of 1-16 tokens over the grammar's alphabet: digits run together
# into longer numbers and exponents (`3/4` then `X^2` then `70` is 3/4X^270).
_TOKENS = st.one_of(
    st.sampled_from(["X", " ", "/", "+", "-", "*", "^", "(", ")", "3/4", "X^2", "X^"]),
    st.integers(0, 9).map(str),
    st.integers(10, 999).map(str),
)
_EXPRESSIONS = st.lists(_TOKENS, min_size=1, max_size=16).map("".join)
_FIELDS = st.sampled_from([QQ, GF(2), GF(5), GF(101)])


class TestExpressionBoundary:
    @settings(derandomize=True, max_examples=2000, deadline=1000, database=None)
    @given(text=_EXPRESSIONS, field=_FIELDS)
    def test_fuzz_parses_or_refuses_within_a_second(self, text, field):
        """Untrusted expressions: a value or an input error, each within the
        deadline (3/4X^270 over Q took over 2 s when unpointed points
        came from an n x n determinant)."""
        try:
            parse_ratfun_sum(text, field)
        except (ParseError, FieldError, RejectedPoint):
            pass

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(text=st.lists(st.one_of(_TOKENS, st.just("y")), min_size=1, max_size=16).map("".join),
           field=_FIELDS)
    def test_token_slices_agree_with_the_text_parser(self, text, field):
        """The parser against the one that re-tokenized each side from text
        (conftest): the same value or the same exception type.  One change
        is meant: a character outside the grammar is a ParseError for the
        whole text, before any part of a sum is built."""

        def outcome(parse):
            try:
                return parse(text, field)
            except (ParseError, FieldError, RejectedPoint) as exc:
                return type(exc)

        for parse, reference in ((parse_ratfun_sum, ref_parse_ratfun_sum),
                                 (parse_ratfun, ref_parse_ratfun)):
            got = outcome(parse)
            if "y" in text:
                assert got is ParseError
            else:
                assert got == outcome(reference), text

    @pytest.mark.parametrize("text", [
        "1" + "/1" * 8191,
        "X+" * 8191 + "X/1",
        "X+" * 4095 + "X/1" + "/1" * 4095,
        "X/1" + "-1/2" * 4095,
        "1/2-" * 4095 + "X^",
        "(" * 4095 + "X" + ")" * 4095 + "/1",
    ], ids=["slashes", "sum-one-slash", "sum-then-slashes", "fraction-differences",
            "fractions-error-at-end", "nested-parens"])
    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
    def test_16k_inputs_parse_in_linear_time(self, text, field):
        # the first four took 24.5, 3.7, 72 and 11.7 s over Q, and the fifth
        # over 40 s, when each try of a "/" re-tokenized both sides
        import time

        t0 = time.perf_counter()
        try:
            parse_ratfun_sum(text, field)
        except (ParseError, FieldError, RejectedPoint):
            pass
        assert time.perf_counter() - t0 < 1.0

    def test_foreign_character_is_refused_before_any_part_is_built(self):
        # "X/X" alone is a RejectedPoint; the whole text is tokenized first
        with pytest.raises(ParseError, match="unexpected character 'y'"):
            parse_ratfun_sum("X/X+X/1+y", QQ)


_FIELD_CHARS = "0123456789FpQ=+-_ .\t\u0663\uff17\u00b2\u0967"
_FIELD_SPECS = st.one_of(
    st.text(_FIELD_CHARS, max_size=12),
    st.builds(str.__add__, st.sampled_from(["F", "Fp=", " F", "Q"]),
              st.text(_FIELD_CHARS, max_size=26)),
    st.integers(0, 10**25).map("F{}".format),
)


class TestFieldNames:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=_FIELD_SPECS)
    def test_fuzz_field_spec_runs_or_exits_2(self, spec, capsys):
        """Untrusted --field text: classify runs (exit 0) only on Q, QQ, or
        ASCII digits after F or Fp= naming a prime, and exits 2 with a
        message on anything else; it never raises."""
        import re

        code = main(["classify", f"--field={spec}", "X/1"])
        err = capsys.readouterr().err
        assert code in (0, 2), spec
        if code == 0:
            assert re.fullmatch(r"QQ?|F(p=)?[0-9]+", spec.strip()), spec
        else:
            assert err.startswith("error: "), spec


def _run_bounded(argv, seconds):
    """`python -m p1h argv` in a child process with a wall timeout and a
    1 GiB address-space limit, both on the child only."""
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "p1h", *argv], capture_output=True, text=True,
        env=p1h_env(), timeout=seconds, preexec_fn=limit,
    )


def _degree_20_pair():
    """Two seeded points of degree 20 over Q, coefficients in -99..99 (A
    monic, B of degree 19 with a nonzero lead).  Their resultants have
    about 80 digits and no small factorization, so building either full
    invariant hangs in rho."""
    rng = random.Random(21)

    def text(cs):
        return "".join(f"{c:+d}*X^{k}" for k, c in enumerate(cs) if c).lstrip("+")

    def point():
        A = [rng.randint(-99, 99) for _ in range(20)] + [1]
        B = [rng.randint(-99, 99) for _ in range(19)] + [rng.choice([-1, 1]) * rng.randint(1, 99)]
        return f"({text(A)})/({text(B)})"

    return point(), point()


class TestUntrustedInputInAChild:
    """Inputs that once hung the tool, each run as a user runs it: exit 0, 1
    or 2, no traceback, and a finish within 5 s."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--unpointed", "--field", "Q", "1/X^1000"],
        ["classify", "--unpointed", "--field", "F7", "1/X^1000"],
        ["classify", "--field", "Q", "1" + "/1" * 8191],
        ["classify", "--field", "Q", "X+" * 8191 + "X/1"],
        ["classify", "--field", "Q", "X+" * 4095 + "X/1" + "/1" * 4095],
        ["classify", "--field", "Q", "X/1" + "-1/2" * 4095],
        ["classify", "--field", "Q", "1/2-" * 4095 + "X^"],
        ["compose", "--field", "F7", "X^1000/(X+1)", "X^1000/(X+1)"],
        ["bezout", "--field", "F7", "X^1000/(1+X)"],
        ["hankel", "--field", "F7", "X^1000/(1+X)"],
    ], ids=["unpointed-Q", "unpointed-F7", "slashes", "sum-one-slash", "sum-then-slashes",
            "fraction-differences", "fractions-error-at-end", "compose-cap", "bezout-cap",
            "hankel-cap"])
    def test_exits_cleanly_within_budget(self, argv):
        import time

        t0 = time.perf_counter()
        out = _run_bounded(argv, 5.0)
        assert time.perf_counter() - t0 < 5.0
        assert out.returncode in (0, 1, 2), out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command,first", [
        ("equiv", "X/1"), ("equiv", "g"), ("certify", "X/1"), ("certify", "g"),
    ], ids=["equiv-degree", "equiv-resultant", "certify-degree", "certify-resultant"])
    def test_degree_20_q_pair_decides_without_factoring(self, command, first):
        # each was still in rho after 15 s when the full invariants were
        # built before any comparison
        import time

        f, g = _degree_20_pair()
        t0 = time.perf_counter()
        out = _run_bounded([command, "--field", "Q", g if first == "g" else first, f], 5.0)
        assert time.perf_counter() - t0 < 5.0
        assert out.returncode == 1, out.stderr

    def test_unpointed_degree_1000_classifies(self):
        for field in ("Q", "F7"):
            out = _run_bounded(["classify", "--unpointed", "--field", field, "1/X^1000"], 5.0)
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout)["degree"] == 1000


class TestLongInputEcho:
    """An error on a 16 KB expression quotes only its head and its length
    (the parse position locates the fault): stderr stays under 1 KB, and
    the exit code is still 2."""

    @pytest.mark.parametrize("text", [
        "1/2-" * 4095 + "X^",
        "1/(" + "X+" * 8190 + "X)",
    ], ids=["parse-error", "not-pointed"])
    def test_stderr_is_short(self, text):
        assert len(text) >= 16_000
        out = _run_bounded(["classify", "--field", "Q", text], 5.0)
        assert out.returncode == 2, out.stderr[:200]
        assert len(out.stderr.encode()) < 1024
        assert f"({len(text)} characters)" in out.stderr and text[:80] in out.stderr

    def test_short_input_is_quoted_whole(self, capsys):
        assert main(["classify", "--field", "Q", "X^2/(X"]) == 2
        assert "cannot parse 'X^2/(X':" in capsys.readouterr().err


class TestCommands:
    def test_equiv_paper_example(self, capsys):
        code = main(["equiv", "--field", "Q", "(X^2-1)/X", "X/1+X/1"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_equiv_negative(self, capsys):
        assert main(["equiv", "--field", "Q", "X/1", "X/2"]) == 1

    def test_failed_self_check_exits_2_with_a_message(self, monkeypatch, capsys):
        # every self-check raises FieldError, which the CLI reports
        from p1h import linalg

        monkeypatch.setattr(linalg, "mat_eq", lambda ring, A, B: False)
        assert main(["reduce-kt", "--field", "F3", "T,1;1,0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: block reduction: P^T S P differs from N\n"

    def test_classify_json_shape(self, capsys):
        code = main(["classify", "--field", "F3", "X/2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "coherent": True,
            "degree": 1,
            "resultant": 2,
            "witt": {"disc": "nonresidue", "rank": 1},
        }

    def test_classify_unpointed(self, capsys):
        code = main(["classify", "--field", "Q", "--unpointed", "1/X", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 1

    def test_json_is_byte_stable(self, capsys):
        main(["classify", "--field", "Q", "(X^2-1)/X", "--json"])
        out1 = capsys.readouterr().out
        main(["classify", "--field", "Q", "(X^2-1)/X", "--json"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys):
        assert main(["classify", "--field", "Q", "X^2/(X"]) == 2
        assert main(["classify", "--field", "Q", "(X^2)/(X)"]) == 2  # res = 0

    def test_bezout_and_hankel(self, capsys):
        assert main(["bezout", "--field", "Q", "(X^2-1)/X", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == [[1, 0], [0, 1]]
        assert payload["resultant"] == -1
        assert main(["hankel", "--field", "Q", "(X^2-1)/X", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == [1, 0, 1]

    def test_oplus_compose_cfrac(self, capsys):
        assert main(["oplus", "--field", "Q", "X/1", "X/1"]) == 0
        assert "(X^2-1)/(X)" in capsys.readouterr().out
        assert main(["compose", "--field", "Q", "X^2/1", "X^2/1"]) == 0
        assert "(X^4)/(1)" in capsys.readouterr().out
        assert main(["cfrac", "--field", "Q", "(X^2-1)/X"]) == 0
        assert capsys.readouterr().out.count("(X)/1") == 2

    def test_certify_verify_roundtrip(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = main(
            [
                "certify",
                "--field",
                "F3",
                "(X^2-1)/X",
                "(X^2+1)/(2*X+2)",
                "--out",
                str(cert),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0
        capsys.readouterr()
        data = json.loads(cert.read_text())
        data["steps"] = data["steps"][::-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "mismatch" in out

    def test_q_degree_four_certify_and_verify(self, tmp_path, capsys):
        # the sweep's first move does not exist for this pair, so its chain
        # needs a placement step
        cert = tmp_path / "q4.json"
        f, g = "X/-7+X/(1/2)+X/-1+X/13", "X/5+X/-1+X/2+X/(-91/20)"
        assert main(["equiv", "--field", "Q", f, g]) == 0
        assert main(["certify", "--field", "Q", f, g, "--out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_budget_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--budget", "5", "--field", "Q", "X/1", "X/4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    def test_certify_not_equivalent_exit(self, capsys):
        assert main(["certify", "--field", "Q", "X/1", "X/2"]) == 1

    def test_unpointed_certify(self, tmp_path, capsys):
        cert = tmp_path / "up.json"
        assert (
            main(
                [
                    "certify",
                    "--field",
                    "Q",
                    "--unpointed",
                    "X/1",
                    "X/4",
                    "--out",
                    str(cert),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0

    def test_unpointed_vector_syntax(self, capsys):
        # "aN..a0 ; bN..b0", highest degree first
        assert (
            main(["equiv", "--field", "Q", "--unpointed", "1 0 ; 0 1", "1 0 ; 0 4"])
            == 0
        )

    def test_reduce_kt(self, capsys):
        assert main(["reduce-kt", "--field", "F3", "T,1;1,0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "N" in payload and "P" in payload
        # the README example
        assert main(["reduce-kt", "--field", "F3", "T,1;1,0"]) == 0
        assert capsys.readouterr().out == "N =\n[2, 0]\n[0, 1]\n"

    @pytest.mark.parametrize("argv,message", [
        (["cfrac", "--field", "F3", "1/0"], "cf expansion needs degree >= 1"),
        (["bezout", "1/0"], "Bezout form needs degree >= 1"),
        (["hankel", "1/0"], "Hankel matrix needs degree >= 1"),
        (["compose", "X/1", "1/0"], "compose needs degrees >= 1"),
        (["pd-equiv", "--field", "F3", "X;1;1", "X;1;1;1"], "different target dimensions"),
    ], ids=["cfrac", "bezout", "hankel", "compose", "pd-equiv"])
    def test_refused_input_is_an_input_error(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--field", "F3", "--n", "1", "--D", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["components"] == 2 and payload["agreement"] is True

    @pytest.mark.parametrize(
        "extra", [["--d", "3"], ["--d", "-1"], ["--d", "1"], ["--n", "-1"], ["--D", "-1"]]
    )
    def test_oracle_bad_parameters_are_input_errors(self, extra, capsys):
        import time

        args = {"--n": "2", "--D": "1", "--d": "2"}
        args.update(zip(extra[::2], extra[1::2]))
        argv = ["oracle", "--field", "F3", "--target", "pd"]
        t0 = time.perf_counter()
        assert main(argv + [x for kv in args.items() for x in kv]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["--field", "F3", "--n", "3", "--D", "1"],
         ["--field", "F2", "--n", "4", "--D", "1", "--target", "symmat"],
         ["--field", "F2", "--n", "4", "--D", "1", "--target", "pd"]],
    )
    def test_oracle_unsupported_cells_are_input_errors(self, argv, capsys, monkeypatch):
        from p1h import oracle

        monkeypatch.setattr(oracle, "enumerate_points", lambda spec: pytest.fail("enumerated"))
        assert main(["oracle", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: unsupported oracle cell")

    def test_certificate_written_with_json_prints_json(self, tmp_path, capsys):
        for argv in (["certify", "--field", "F3", "(X^2-1)/X", "(X^2+1)/(2*X+2)"],
                     ["pd-certify", "--field", "F3", "X^2 ; X ; 1"]):
            out = tmp_path / "cert.json"
            assert main([*argv, "--json", "--out", str(out)]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["result"] == "ok"
            assert printed["steps"] == len(json.loads(out.read_text())["steps"]) > 0

    def test_python_dash_m(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "p1h", "classify", "--field", "F5", "X/1"],
            capture_output=True, text=True, env=p1h_env(), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["degree"] == 1

    @pytest.mark.parametrize("field,f,g", [
        ("F5", "X/1+X/1", "X/2+X/3"),
        ("Q", "X/1+X/1+X/1", "X/3+X/2+X/(1/6)"),
    ])
    def test_certify_output_is_the_same_under_optimize(self, field, f, g):
        import subprocess
        import sys

        outs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "p1h", "certify", "--field", field, f, g],
                capture_output=True, env=p1h_env(), timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        for out in outs:
            assert out.returncode == 0, out.stderr
        assert json.loads(outs[0].stdout)["steps"]
        assert outs[0].stdout == outs[1].stdout

    def test_src_has_no_assert(self):
        # python -O strips asserts, so a check in src must be an explicit raise
        import ast
        import pathlib

        import p1h

        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(pathlib.Path(p1h.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_pd_commands(self, tmp_path, capsys):
        assert main(["pd-equiv", "--field", "Q", "X^2 ; 1 ; 1", "X^2+1 ; X ; 1"]) == 0
        capsys.readouterr()
        cert = tmp_path / "pd.json"
        assert (
            main(["pd-certify", "--field", "F3", "X^2 ; X ; 1", "--out", str(cert)])
            == 0
        )
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0

    def test_pd_certify_rationals_is_input_error(self, capsys):
        assert main(["pd-certify", "--field", "Q", "X^2 ; X ; 1"]) == 2

    def test_field_beyond_primality_bound_is_input_error(self, capsys):
        assert main(["classify", "--field", f"F{2**89 - 1}", "X/1"]) == 2
        assert "primality bound" in capsys.readouterr().err

    def test_unpointed_class_over_huge_prime_field(self, capsys):
        import time

        t0 = time.perf_counter()
        code = main(["classify", "--unpointed", "--field", "F2305843009213693951", "X/3"])
        assert code == 0 and time.perf_counter() - t0 < 2.0

    def test_unpointed_certificate_over_huge_prime_field(self, capsys, tmp_path):
        import time

        out = tmp_path / "u.json"
        t0 = time.perf_counter()
        argv = ["certify", "--unpointed", "--field", "F2305843009213693951"]
        assert main(argv + ["X/3", "X/12", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert time.perf_counter() - t0 < 2.0

    def test_commands_under_optimize(self, tmp_path):
        script = (
            "import sys\n"
            "from p1h.cli import main\n"
            "sys.stderr = sys.stdout\n"
            "d = sys.argv[1]\n"
            "runs = [\n"
            "    ['certify', '--field', 'F5', 'X/1+X/1', 'X/2+X/3', '--out', d + '/p.json'],\n"
            "    ['certify', '--unpointed', '--field', 'F5', 'X/1', 'X/4', '--out', d + '/u.json'],\n"
            "    ['certify', '--unpointed', '--field', 'Q', '1/2', '3/1', '--out', d + '/u0.json'],\n"
            "    ['pd-certify', '--field', 'F3', 'X^2 ; X ; 1', '--out', d + '/pd.json'],\n"
            "    ['certify', '--field', 'Q', 'X/-7+X/(1/2)+X/-1+X/13',\n"
            "     'X/5+X/-1+X/2+X/(-91/20)', '--out', d + '/q4.json'],\n"
            "    ['verify', d + '/p.json'],\n"
            "    ['verify', d + '/u.json'],\n"
            "    ['verify', d + '/u0.json'],\n"
            "    ['verify', d + '/pd.json'],\n"
            "    ['verify', d + '/q4.json'],\n"
            "    ['classify', '--field', 'Q', 'X/3+X^2/5+X/(1/7)'],\n"
            "    ['equiv', '--field', 'Q', '(X^2+3*X)/5', 'X/1+X/-25'],\n"
            "    ['oracle', '--field', 'F3', '--n', '2', '--D', '1'],\n"
            "    ['oracle', '--field', 'F3', '--n', '1', '--D', '1', '--target', 'pd'],\n"
            "    ['oracle', '--field', 'F3', '--n', '2', '--D', '1', '--target', 'symmat'],\n"
            "    ['oracle', '--field', 'F2', '--n', '3', '--D', '1'],\n"
            "    ['oracle', '--field', 'F3', '--n', '3', '--D', '1'],\n"
            "    ['reduce-kt', '--field', 'F2', 'T,1,0;1,0,0;0,0,1'],\n"
            "    ['reduce-kt', '--field', 'F5', 'T,2;2,0'],\n"
            "    ['reduce-kt', '--field', 'F3', 'T;1'],\n"
            "    ['reduce-kt', '--field', 'F3', 'T,1;1'],\n"
            "    ['cfrac', '--field', 'F3', '1/0'],\n"
            "    ['cfrac', '--field', 'Q', '(X^4+X+1)/(3*X^2-X+2)'],\n"
            "]\n"
            "print(*[main(argv) for argv in runs])\n"
        )
        out = run_optimized(script, str(tmp_path))
        assert out.splitlines()[-1].split() == ["0"] * 16 + ["2", "0", "0"] + ["2"] * 3 + ["0"]
        assert "components equal fibers after 5 verified bridges" in out
        assert "N =\n[0, 1, 0]\n[1, T, 0]\n[0, 0, 1]\n" in out
        assert "N =\n[2, 0]\n[0, 3]\n" in out
        assert "bad matrix 'T;1'" in out and "bad matrix 'T,1;1'" in out
        assert "error: cf expansion needs degree >= 1" in out
        assert "(X^2+1/3*X-5/9)/3  (X-127/48)/-16/9  (X+37/16)/193/16\n" in out

    @pytest.mark.parametrize(
        "expr,n,cap",
        [("X^200/1", 200, 1.0), ("X^1000/1", 1000, 5.0), (_block_sum_60(), 60, 2.0)],
        ids=["X^200", "X^1000", "blocks-60"],
    )
    def test_large_degree_classify_over_q(self, expr, n, cap, capsys):
        """One Euclidean pass per decision: no n x n matrix is built."""
        import time

        t0 = time.perf_counter()
        assert main(["classify", "--field", "Q", expr]) == 0
        assert time.perf_counter() - t0 < cap
        assert json.loads(capsys.readouterr().out)["degree"] == n

    def test_large_degree_classify_over_f101(self, capsys):
        """X^1000 over a dense degree-999 denominator: a remainder sequence
        of 1000 steps builds the point (resultant and Bezout pair) and one
        more gives the continued-fraction blocks the decision reads."""
        import time

        rng = random.Random(999)
        den = "+".join(f"{rng.randrange(1, 101)}*X^{k}" for k in range(1000))
        t0 = time.perf_counter()
        assert main(["classify", "--field", "F101", f"X^1000/({den})"]) == 0
        assert time.perf_counter() - t0 < 10.0
        assert json.loads(capsys.readouterr().out)["degree"] == 1000

    def test_huge_exponent_is_input_error(self, capsys):
        import time

        t0 = time.perf_counter()
        assert main(["classify", "--field", "F5", "X^100000000/1"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,cap", [
        (["compose", "--field", "F7", "X^1000/(X+1)", "X^1000/(X+1)"], "MAX_COMPOSE_DEGREE = 1000"),
        (["compose", "--field", "Q", "X^40/(X+1)", "X^26/(X+1)"], "MAX_COMPOSE_DEGREE = 1000"),
        (["bezout", "--field", "F7", "X^1000/(1+X)"], "MAX_FORM_DEGREE = 64"),
        (["hankel", "--field", "F7", "X^1000/(1+X)"], "MAX_FORM_DEGREE = 64"),
        (["bezout", "--field", "Q", "X^65/(1+X)"], "MAX_FORM_DEGREE = 64"),
    ], ids=["compose-F7", "compose-Q", "bezout", "hankel", "bezout-Q"])
    def test_output_size_caps_are_input_errors(self, argv, cap, capsys):
        # each ran past 20 s before the caps (the compose output has degree
        # 10^6, the forms 10^6 entries)
        import time

        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 5.0
        assert cap in capsys.readouterr().err

    def test_output_size_caps_admit_their_bound(self, capsys):
        assert main(["compose", "--field", "F7", "X^40/(X+1)", "X^25/(X+1)"]) == 0
        assert capsys.readouterr().out.startswith("(X^1000)/")
        assert main(["hankel", "--field", "F7", "X^64/(1+X)"]) == 0
        assert capsys.readouterr().out.count(",") == 126

    def test_non_integer_field_spec_is_input_error(self, capsys):
        for spec in ("Fx", "Fp=abc", "F", "Fp=", "F1.5"):
            assert main(["classify", "--field", spec, "X/1"]) == 2
            assert "unknown field" in capsys.readouterr().err

    def test_field_digits_are_ascii_only(self, capsys):
        # int() takes each of these: F1_01 ran over F101, F\u0663 (Arabic-
        # Indic 3) over F3 and Fp=+1_1 over F11
        for spec in ("F1_01", "F\u0663", "Fp=+1_1", "F+7", "F-7", "F 7", "Fp= 7", "F7_",
                     "F\uff17", "F\u00b2", "F" + "7" * 5000):
            assert main(["classify", f"--field={spec}", "X/1"]) == 2, spec
            assert "unknown field" in capsys.readouterr().err
        for spec in ("F101", "Fp=101", " F7 ", "F0007"):
            assert main(["classify", f"--field={spec}", "X/1"]) == 0, spec
        capsys.readouterr()

    def test_failed_self_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from p1h import certify

        monkeypatch.setattr(
            certify, "verify", lambda cert: certify.VerifyResult(False, "rejected for the test", 0)
        )
        out = tmp_path / "cert.json"
        args = ["--field", "F3", "--out", str(out)]
        assert main(["certify", *args, "(X^2-1)/X", "(X^2+1)/(2*X+2)"]) == 1
        assert "rejected for the test" in capsys.readouterr().err
        assert main(["pd-certify", *args, "X^2 ; X ; 1"]) == 1
        assert "rejected for the test" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_non_object_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("[]", "3", '"x"', '{"field": "F3", "kind": "pointed", "source": 3}'):
            bad.write_text(text)
            assert main(["verify", str(bad)]) == 2
            assert "cannot load certificate" in capsys.readouterr().err

    def test_verify_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        # json.load raises RecursionError on nesting this deep
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load certificate")

    def test_long_monoid_sum_is_quick(self, capsys):
        # f+g+... is folded pairwise: a left fold re-checks every running
        # prefix, cubic in the number of blocks (over 10 s on this input)
        import time

        text = "+".join(["(X+1)/2"] * 400)
        t0 = time.perf_counter()
        assert main(["classify", "--field", "F5", text]) == 0
        assert time.perf_counter() - t0 < 2.0
        assert json.loads(capsys.readouterr().out)["degree"] == 400


@functools.cache
def _f3_certificates():
    """Valid F3 certificate JSON of each kind.  The unpointed one has degree 2:
    at degree 0 a point can have a single nonzero coordinate, so scaling may
    absorb a changed coefficient and leave a different valid certificate."""
    F3 = GF(3)
    pointed = connect(parse_ratfun("(X^2-1)/X", F3), parse_ratfun("(X^2+1)/(2*X+2)", F3))
    unpointed = unpointed_connect(
        parse_ratfun("X^2/(X^2+1)", F3), parse_ratfun("(2*X^2+X)/(2*X^2+X+1)", F3)
    )
    A, *Bs = (parse_poly(t, F3) for t in "X^2+1 ; X ; X+1".split(";"))
    pd = pd_cert(mk_pd(A, Bs))
    return {c.kind: serial.certificate_to_json(c) for c in (pointed, unpointed, pd)}


def _paths(node, path=()):
    """Every position in a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutate(data, where, action, value):
    """One edit of a JSON tree: drop a position, cut a list there to half its
    length, or replace it with `value`.  `where` names a top-level key, "n"
    for the first step's degree, or picks any position by number."""
    if isinstance(where, int):
        paths = list(_paths(data))[1:]
        path = paths[where % len(paths)] if paths else None
    else:
        path = ("steps", 0, "n") if where == "n" else (where,)
    try:
        parent, key = _at(data, path[:-1]), path[-1]
        old = parent[key]
    except (KeyError, IndexError, TypeError):
        return  # nothing there to edit
    if action == "drop":
        del parent[key]
    elif action == "truncate" and isinstance(old, list):
        parent[key] = old[: len(old) // 2]
    else:
        parent[key] = value


MUTANTS = (None, True, 1.5, "x", "1/0", "", "Q", "F2", "F5", "F4", "bogus/9",
           -1, 0, 1, 2, 3, 10**30, [], {}, [[1]])


class TestVerifyTrustBoundary:
    """`p1h verify` exits 0 (OK), 1 (FAIL at a step) or 2 (malformed) and
    never raises, whatever the certificate file holds."""

    def _verify(self, tmp_path, data):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(data))
        return main(["verify", str(cert)])

    def test_non_homotopy_step_fails_at_step(self, tmp_path, capsys):
        x_over_1 = {"A": [0, 1], "B": [1]}
        data = {"schema": "p1h.certificate/1", "kind": "pointed", "field": "F3",
                "source": x_over_1, "target": x_over_1,
                "steps": [{"A": [[], [1]], "B": []}]}  # A = X, B = 0: resultant 0
        assert self._verify(tmp_path, data) == 1
        assert capsys.readouterr().out.strip() == "FAIL: non-constant resultant at step 0"

    def test_schema_is_checked(self, tmp_path, capsys):
        data = copy.deepcopy(_f3_certificates()["pointed"])
        for schema in ("bogus/9", None, 1):
            data["schema"] = schema
            assert self._verify(tmp_path, data) == 2
            assert "cannot load certificate: schema" in capsys.readouterr().err
        del data["schema"]
        assert self._verify(tmp_path, data) == 2

    def test_field_name_is_checked_at_load(self, tmp_path, capsys):
        good = _f3_certificates()["pointed"]
        for name in ("F+3", "F0_3", "Fp=\u0663", "F\u0663", "F 3"):
            data = copy.deepcopy(good)
            data["field"] = name
            with pytest.raises(FieldError, match="unknown field"):
                serial.certificate_from_json(data)
            assert self._verify(tmp_path, data) == 2
            assert "unknown field" in capsys.readouterr().err

    def test_zero_denominator_over_q_is_input_error(self, tmp_path, capsys):
        point = {"A": [0, 1], "B": ["1/0"]}
        data = {"schema": "p1h.certificate/1", "kind": "pointed", "field": "Q",
                "source": point, "target": point, "steps": []}
        assert self._verify(tmp_path, data) == 2
        assert "division by zero" in capsys.readouterr().err
        assert main(["equiv", "--unpointed", "--field", "Q", "1/0 0 ; 0 1", "1 0 ; 0 4"]) == 2

    def test_unpointed_step_degree_is_checked(self, tmp_path, capsys):
        good = _f3_certificates()["unpointed"]
        assert self._verify(tmp_path, good) == 0
        for n in ("x", -1, True, 1, 3, 2.0, None):
            data = copy.deepcopy(good)
            data["steps"][0]["n"] = n
            assert self._verify(tmp_path, data) == 2
            assert "source degree 2" in capsys.readouterr().err

    def test_step_outside_its_shape_fails(self, tmp_path, capsys):
        data = copy.deepcopy(_f3_certificates()["unpointed"])
        data["steps"][0]["A"].append([0, 1])  # T X^3 in a degree-2 step
        assert self._verify(tmp_path, data) == 1
        assert "coefficient degree above n at step 0" in capsys.readouterr().out
        data = copy.deepcopy(_f3_certificates()["pd"])
        data["steps"][0]["cofactors"] = []
        assert self._verify(tmp_path, data) == 1
        assert "cofactor identity fails at step 0" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["pointed", "unpointed", "pd"])
    def test_changed_step_coefficient_never_verifies(self, tmp_path, capsys, kind):
        good = _f3_certificates()[kind]
        assert self._verify(tmp_path, good) == 0
        leaves = [p for p in _paths(good["steps"]) if isinstance(_at(good["steps"], p), int)]
        assert len(leaves) >= 20
        for path in leaves:
            data = copy.deepcopy(good)
            parent = _at(data["steps"], path[:-1])
            parent[path[-1]] = (parent[path[-1]] + 1) % 3
            assert self._verify(tmp_path, data) != 0, path
        capsys.readouterr()

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["pointed", "unpointed", "pd"]),
        edits=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(["schema", "field", "kind", "n"]), st.integers(1, 10**6)),
                st.sampled_from(["drop", "replace", "truncate"]),
                st.sampled_from(MUTANTS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_certificate_exits_cleanly(self, tmp_path, kind, edits):
        data = copy.deepcopy(_f3_certificates()[kind])
        for edit in edits:
            _mutate(data, *edit)
        assert self._verify(tmp_path, data) in (0, 1, 2)
