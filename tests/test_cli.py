"""Command-line interface: subcommands, exit codes, deterministic output."""

import builtins
import hashlib
import io
import json

import pytest

import anomaly.cli as cli
import anomaly.verifier as verifier
from anomaly.cli import main

HP2_JSON = '{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}}'
# Integral characteristic numbers that balance every identity of their case
# but fail the divisibility checks (the JSON reports show both).
SPINC10_JSON = '{"dim": 10, "numbers": {"cL^5": "170", "pX2*cL": "-934", "pX1*cL^3": "170", "pX1^2*cL": "170"}}'
SPIN12_JSON = '{"dim": 12, "numbers": {"pX3": "-29", "pX1*pX2": "-450", "pX1^3": "346"}}'
SPINC10_DIGEST = "f612ad9dd182d42dcb99a9c28108149f4b0100787a5b2159acc12d7477c7cb14"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_case_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "8", "--order", "2")
        assert code == 0
        assert "Thm1.1-(1.1): pass" in out
        assert "Thm1.1-(1.2): pass" in out
        assert "routes: ok" in out
        assert "overall: pass" in out
        assert "Cor1.2-a" in out

    def test_all_cases_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["cases"]) == 12
        ids = [row["id"] for case in payload["cases"] for row in case["identities"]]
        assert len(ids) == 26

    def test_order0_json_matches_the_seed_engine(self, capsys):
        """Order 0 compares no q-coefficient, so every fit fails; the identities still run."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "0")
        assert code == 1
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "0e37bc5579c1c036931b6d5be65802c5310ba002a2a636621341df4486a2e68f"

    def test_order1_json_matches_the_seed_engine(self, capsys):
        """The theta route's t-cap and the packed kernel keys touch every order."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "1")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "326dedf386cf52c0038b02d264104ba2760660190114c93c802fd39a753f5955"

    def test_order3_json_matches_the_seed_engine(self, capsys):
        """Speed-ups must leave the report byte-identical to the seed engine's."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "b853379feb2a294652f16489cd102590df4569cfa06a99218a67b8c13d03dd34"

    def test_order5_json_matches_the_seed_engine(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "5")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "1e05946ae430e52e5295a47f6b3e7cfbdd943d80dc378d7fcfb84a4d471a222b"

    def test_order7_json_matches_the_seed_engine(self, capsys):
        """At order 7 half-integer q-powers up to q^(13/2) enter every product."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "7")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "5c915fc7ea07d935926bc6257f73c00e76e41647737a935680b3fd8439fb60d8"

    @pytest.mark.parametrize("order", ["3", "7"])
    def test_a_lone_case_reports_as_in_the_full_run(self, capsys, order):
        """A lone case builds its routes and identity forms at its own dimension;
        the full run cuts each family's lower dimensions from its top: the
        reports agree."""
        _, out, _ = run(capsys, "verify", "--format", "json", "--order", order)
        full = {(case["case"], case["dim"]): case for case in json.loads(out)["cases"]}
        assert len(full) == 12
        flags = {case: flag for flag, case in cli._CASE_FLAGS.items()}
        for (case, dim), entry in full.items():
            code, out, _ = run(capsys, "verify", "--case", flags[case], "--dim", str(dim), "--order", order, "--format", "json")
            assert code == 0
            assert json.loads(out) == {"cases": [entry], "passed": True}

    def test_json_runs_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--case", "spinc-l", "--dim", "10", "--order", "2", "--format", "json")
        _, out2, _ = run(capsys, "verify", "--case", "spinc-l", "--dim", "10", "--order", "2", "--format", "json")
        assert out1 == out2

    def test_order_zero_is_not_a_fit_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "8", "--order", "0", "--format", "json")
        assert code == 1
        (case,) = json.loads(out)["cases"]
        assert case["fit_ok"] is False
        assert case["fit_residual"] == "insufficient order: no q-coefficient compared"
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "8", "--order", "1")
        assert code == 0
        assert "residual = 0: ok" in out

    def test_single_route(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "12", "--order", "2", "--route", "bundle")
        assert code == 0
        assert "single route" in out

    def test_empty_filter_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "spin", "--dim", "10")
        assert code == 3
        assert "no catalog case" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--case", "spinny"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of outputs that render GradedPoly/QHalfSeries values through their
# Fraction views, recorded from the engine before the int-numerator form.
EXPAND_DIGESTS = {
    ("theta1-ch", "8"): "4db2f6e92692a1fc5c13192dc235f623935be228d85d40c587890872490c3321",
    ("theta1-ch", "12"): "cd0687f41da9fdc7db6f97ba8c0621004f327691db0bb4409347c3acdbb6c9be",
    ("theta2-ch", "8"): "876929fc9d84dd6f3cb9cb95144bdecc8e6ebc2bd769dd671e5cd11028f3ef3e",
    ("theta2-ch", "12"): "f72252875ce4e59d06a344e14094dda449d930dfe49ddcf0a2731ddeac42b709",
    ("theta3-ch", "8"): "6c0fc9418597df07bc777b1fb31c7346050bcc204bf92e5b248f309bcfbd0abb",
    ("theta3-ch", "12"): "fcc0dbe8a6d7871d2a39ff270c13c1c6f9eaebe912fc3e3dcd209229723d0f0f",
    ("Ahat", "8"): "ea029e0062313902fe87e55f1013475efd8b4d9ec936c85c67ed359f2581531a",
    ("Ahat", "12"): "992d206fff40675583d6859fc395fe8b007c6917052992f941f4cde3c83c6d8f",
}


# sha256 of `expand --series <quotient> --tcap <tcap> --order <order>`, recorded
# from the engine that multiplied the defining products out.
QUOTIENT_DIGESTS = {
    ("A", "6", "4"): "735ddd44c2edcc5acd386e63e96eceff50aeaf477fd1952669bc89013db79e73",
    ("B1", "6", "4"): "88d21729c1f0e2c90c16501a76a2c6f9de8b490b94ab8b37add31aa299782811",
    ("B2", "6", "4"): "185cc0931fa1edc5425f1b7a91a4fe5a6ab75654ce933fdbcf4052c46634ffe3",
    ("B3", "6", "4"): "a89c9ffdc1f598d0f8b9f1ce1c386c3787207c0ea69adf0d42159bc66e89b384",
    ("L", "6", "4"): "c44cfd6e83db7fb2ba691c26fe5a78df7270c8efc1307c4dbc8458a0397d95c6",
    ("A", "11", "7"): "5f3f59c53c553c85d1d24415fe3802f0b494884d48bb563daf8ad5a97fb162b1",
    ("B1", "11", "7"): "60f513ae7a047727778b3ba81ee67ebf624223a431b44f97a1f7f25478f39d4a",
    ("B2", "11", "7"): "48cca397d4923944781edeaa4f272b39b7c7c4ef96debddc05ed52ec364a0d9a",
    ("B3", "11", "7"): "bc6b7139f4c6385bdb6e6da9657c5b3c209360675b2d5f707f961de765f3e715",
    ("L", "11", "7"): "2accdfb7d94cfb9daced3a808ce623182f06ef42106e47a17104cd261dadca20",
}


# sha256 of outputs that read the third theta sector, recorded from the engine
# that built Θ3 from formulas of its own (B3 divisor sums, Λ_{+q^(m-1/2)}
# chains) before each route took it as the half-period shift of its Θ2.
SECTOR3_DIGESTS = {
    ("expand", "--series", "theta3-ch", "--dim", "20", "--order", "5"):
        "b93d712e4f6c301916cb53e73f99850b6706494f2c1cc410f4daa1101ae0949f",
    ("expand", "--series", "theta2-ch", "--dim", "20", "--order", "5"):
        "25542846da51755188e144f4636d6ccf464762f187dd5d0f28e6d8d751e2fbf6",
    ("expand", "--series", "B3", "--tcap", "10", "--order", "5"):
        "68eed3e9096ee719e3e64e2549e7db0ee79ba078aa03b8019d18510526282261",
    ("verify", "--route", "theta", "--format", "json", "--order", "5"):
        "f60d4a32434bf8d0b8cee70d3b6e920dff2371e82b51d49e4395de22f293a413",
    ("verify", "--route", "bundle", "--format", "json", "--order", "5"):
        "3f90ba04b67cdf2604e7b8267398b0d28590e7acff35bc2ca311ae3154979264",
}


class TestOutputsMatchTheSeedEngine:
    """Byte-identity guards for the outputs beyond `verify --format json`."""

    @pytest.mark.parametrize("argv", sorted(SECTOR3_DIGESTS), ids=lambda argv: argv[2])
    def test_third_sector_outputs(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert sha256(out) == SECTOR3_DIGESTS[argv]

    @pytest.mark.parametrize("series, dim", sorted(EXPAND_DIGESTS))
    def test_expand_order4(self, capsys, series, dim):
        code, out, _ = run(capsys, "expand", "--series", series, "--order", "4", "--dim", dim)
        assert code == 0
        assert sha256(out) == EXPAND_DIGESTS[(series, dim)]

    @pytest.mark.parametrize("series, tcap, order", sorted(QUOTIENT_DIGESTS))
    def test_expand_quotient(self, capsys, series, tcap, order):
        code, out, _ = run(capsys, "expand", "--series", series, "--tcap", tcap, "--order", order)
        assert code == 0
        assert sha256(out) == QUOTIENT_DIGESTS[(series, tcap, order)]

    def test_moduli_json(self, capsys):
        code, out, _ = run(capsys, "moduli", "--format", "json")
        assert code == 0
        assert sha256(out) == "bc30219cae7e12fc5b3c93a9b2acd16c2821731a0cac8287c33a9c757699ce79"

    def test_verify_text(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert sha256(out) == "f27479bedfeaeb72afe6cd70098bd2a2c114dbce5bdec8e30019f3a4d6b3e111"

    def test_moduli_text(self, capsys):
        code, out, _ = run(capsys, "moduli")
        assert code == 0
        assert sha256(out) == "f51f7a81ed28488696ea40a9a91317ff6b8e837b6964c1dd1099a938b4ecae62"

    def test_verify_order2_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "2")
        assert code == 0
        assert sha256(out) == "4eb572298b246355dafcd26e46be5a5e2b91bc1c118fcff5c6a6362ab91255cc"

    def test_evaluate_hp2_json(self, capsys, tmp_path):
        path = tmp_path / "hp2.json"
        path.write_text(HP2_JSON, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        assert code == 0
        assert sha256(out) == "7031865f5500337813b25c738fe5815ac040b222c3f787a2f542192f6531e84f"

    @pytest.mark.parametrize(
        "text, digest",
        [
            (SPINC10_JSON, SPINC10_DIGEST),
            (SPIN12_JSON, "ff95017e385e06d21c79af94630436d197f8baf02324fab3b7f505a0dccf8f2b"),
        ],
        ids=["spinc10", "spin12"],
    )
    def test_evaluate_json(self, capsys, tmp_path, text, digest):
        path = tmp_path / "manifold.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        assert code == 1  # the identities balance, the divisibility checks fail
        assert sha256(out) == digest


class TestEnvDefaultOrder:
    def test_env_controls_order(self, capsys, monkeypatch):
        monkeypatch.setenv("ANOMALY_QCAP", "1")
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["cases"][0]["qcap"] == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ANOMALY_QCAP", "1")
        code, out, _ = run(capsys, "verify", "--case", "spin", "--dim", "8", "--order", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["cases"][0]["qcap"] == 2

    def test_invalid_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ANOMALY_QCAP", "three")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--case", "spin", "--dim", "8"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestExpand:
    def test_eisenstein_golden_line(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "E4", "--order", "3")
        assert code == 0
        assert out.strip() == "E4 = 1 + 240*q + 2160*q^2 + 6720*q^3"

    def test_weight10_golden_line(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "E4E6", "--order", "2")
        assert code == 0
        assert out.strip() == "E4E6 = 1 - 264*q - 135432*q^2"

    def test_theta_ch_series(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "theta2-ch", "--order", "1", "--dim", "8")
        assert code == 0
        assert "q^(1/2)" in out

    def test_quotient_series(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "A", "--order", "1", "--tcap", "4")
        assert code == 0
        assert "1/24*t^2" in out

    def test_ahat_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "Ahat", "--dim", "8")
        assert code == 0
        assert "- 1/24*pX1" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "expand", "--series", "E6", "--order", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"order": 1, "series": "E6", "value": "1 - 504*q"}

    def test_bad_dim_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--series", "Ahat", "--dim", "6")
        assert code == 2
        assert "multiple of 4" in err

    def test_unknown_series_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--series", "E12"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEvaluate:
    def test_quaternionic_plane(self, capsys, tmp_path):
        path = tmp_path / "hp2.json"
        path.write_text(HP2_JSON, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--input", str(path))
        assert code == 0
        assert "Â-genus = 0" in out
        assert "ind(D⊗Δ) = 1" in out
        assert "Cor1.2-a: ind(D⊗Δ⊗T̃) = -8 = 0 (mod 8): ok" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "hp2.json"
        path.write_text(HP2_JSON, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "spin"
        assert all(row["ok"] for row in payload["checks"])

    def test_malformed_json_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert "bad manifold data" in err

    def test_deeply_nested_stdin_exits_4(self, capsys, monkeypatch):
        """Input nested past the JSON decoder's recursion limit is bad input, not a failed check."""
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO("[" * 100_000))
        code, out, err = run(capsys, "evaluate", "--input", "-")
        assert code == 4
        assert out == ""
        assert "bad manifold data: manifold data is nested too deeply" in err

    def test_bad_rational_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "x", "pX2": "7"}}', encoding="utf-8")
        code, _, _ = run(capsys, "evaluate", "--input", str(path))
        assert code == 4

    @pytest.mark.parametrize("value", ["1e3", "2.5", "7_0", "\uff17", "+7", " 7", "7" * 4299, "1e999999999"])
    def test_number_outside_the_grammar_or_bound_exits_4(self, capsys, tmp_path, value):
        """Only ASCII -?[0-9]+(/[0-9]+)? of at most MAX_NUMBER_DIGITS digits in all is read;
        Fraction would read the rest, or build 10^999999999, or fail to render the report."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 8, "numbers": {"pX1^2": "4", "pX2": value}}), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "bad manifold data" in err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_digit_bound_is_inclusive(self, capsys, tmp_path, extra):
        """Numbers of MAX_NUMBER_DIGITS digits in all render; one digit more is bad data."""
        half = verifier.MAX_NUMBER_DIGITS // 2
        numbers = {"pX1^2": "-" + "7" * half, "pX2": "9" * (half - 1 + extra) + "/8"}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 8, "numbers": numbers}), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        if extra:
            assert code == 4 and "digits in all" in err
        else:
            assert code in (0, 1) and json.loads(out)["dim"] == 8

    def test_missing_monomial_exits_4(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "4"}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert "missing" in err

    def test_keys_in_any_factor_order(self, capsys, tmp_path):
        path = tmp_path / "reordered.json"
        path.write_text(
            '{"dim": 10, "numbers": {"cL^5": "170", "cL*pX2": "-934", "pX1*cL^3": "170", "cL*pX1*pX1": "170"}}',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "evaluate", "--input", str(path), "--format", "json")
        assert code == 1
        assert sha256(out) == SPINC10_DIGEST

    def test_two_keys_for_one_monomial_exit_4(self, capsys, tmp_path):
        path = tmp_path / "duplicate.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "4", "pX1*pX1": "5", "pX2": "7"}}', encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "keys 'pX1^2' and 'pX1*pX1' name the same monomial" in err

    @pytest.mark.parametrize("key", ["pX1", "1", "pX1^3"])
    def test_key_of_another_degree_exits_4(self, capsys, tmp_path, key):
        path = tmp_path / "degree.json"
        path.write_text(json.dumps({"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7", key: "1"}}), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert f"monomial {key!r} has degree" in err

    def test_unreadable_file_exits_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "evaluate", "--input", str(tmp_path / "absent.json"))
        assert code == 4

    def test_non_utf8_file_exits_4(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}} \u00e9'.encode("latin-1"))
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "cannot read input: not valid UTF-8" in err

    @pytest.mark.parametrize("text", [HP2_JSON, "{not json", b"\xff"])
    def test_input_file_is_closed(self, capsys, tmp_path, monkeypatch, text):
        opened = []

        def tracking_open(*args, **kwargs):
            handle = builtins.open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(cli, "open", tracking_open, raising=False)
        path = tmp_path / "data.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        run(capsys, "evaluate", "--input", str(path))
        assert len(opened) == 1
        assert opened[0].closed

    def test_boolean_dim_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"dim": true, "numbers": {}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert 'integer "dim"' in err
        assert "dimension True" not in err

    def test_unknown_generator_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "numbers": {"pY1^2": "4", "pX2": "7"}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert "unknown generator 'pY1'" in err

    def test_bad_exponent_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^0": "4", "pX2": "7"}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert "bad manifold data" in err

    def test_engine_fault_is_not_bad_input(self, capsys, tmp_path, monkeypatch):
        """A ValueError raised by the engine propagates with its traceback."""

        def broken(*args, **kwargs):
            raise ValueError("engine fault")

        monkeypatch.setattr(verifier, "ahat_form", broken)
        path = tmp_path / "hp2.json"
        path.write_text(HP2_JSON, encoding="utf-8")
        with pytest.raises(ValueError, match="engine fault"):
            main(["evaluate", "--input", str(path)])
        assert "bad manifold data" not in capsys.readouterr().err

    def test_failed_divisibility_exits_1(self, capsys, tmp_path):
        path = tmp_path / "off.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "8"}}', encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--input", str(path))
        assert code == 1
        assert "FAIL" in out


class TestModuli:
    def test_filtered_listing(self, capsys):
        code, out, _ = run(capsys, "moduli", "--case", "spinc-l", "--dim", "14")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("Cor1.24-a:")
        assert "(mod 504)" in lines[0]
        assert "(mod 16632)" in lines[1]

    def test_full_listing_json(self, capsys):
        code, out, _ = run(capsys, "moduli", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["moduli"]) == 20
        by_id = {row["corollary"]: row["modulus"] for row in payload["moduli"]}
        assert by_id["Cor1.2-a"] == 8
        assert by_id["Cor1.11-b"] == 2160
        assert by_id["Cor1.28-a"] == 264

    def test_empty_filter_exits_3(self, capsys):
        code, _, _ = run(capsys, "moduli", "--case", "spin", "--dim", "22")
        assert code == 3
