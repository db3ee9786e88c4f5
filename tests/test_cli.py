"""The command-line surface: parsing, printing, JSON determinism, exit
codes, and the certificate file round-trip."""
import json

import pytest

from p1h.cli import main
from p1h.expr import ParseError, format_ratfun, parse_poly, parse_ratfun, parse_ratfun_sum
from p1h.fields import GF, QQ
from p1h.poly import X, const
from p1h.ratmap import PointedRat, UnpointedRat, mk_pointed, oplus, x_over

from conftest import random_point


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

    def test_whitespace_insensitive(self):
        assert parse_ratfun(" ( X^2 - 1 ) / X ", QQ) == parse_ratfun("(X^2-1)/X", QQ)


class TestCommands:
    def test_equiv_paper_example(self, capsys):
        code = main(["equiv", "--field", "Q", "(X^2-1)/X", "X/1+X/1"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_equiv_negative(self, capsys):
        assert main(["equiv", "--field", "Q", "X/1", "X/2"]) == 1

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

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--field", "F3", "--n", "1", "--D", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["components"] == 2 and payload["agreement"] is True

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

    def test_non_integer_field_spec_is_input_error(self, capsys):
        for spec in ("Fx", "Fp=abc", "F", "Fp=", "F1.5"):
            assert main(["classify", "--field", spec, "X/1"]) == 2
            assert "unknown field" in capsys.readouterr().err

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
