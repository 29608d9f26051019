"""Command-line interface: subcommands, exit codes, deterministic output."""

import hashlib
import json

import pytest

import anomaly.verifier as verifier
from anomaly.cli import main

HP2_JSON = '{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}}'


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

    def test_order3_json_matches_the_seed_engine(self, capsys):
        """Speed-ups must leave the report byte-identical to the seed engine's."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "b853379feb2a294652f16489cd102590df4569cfa06a99218a67b8c13d03dd34"

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

    def test_bad_rational_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "x", "pX2": "7"}}', encoding="utf-8")
        code, _, _ = run(capsys, "evaluate", "--input", str(path))
        assert code == 4

    def test_missing_monomial_exits_4(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"dim": 8, "numbers": {"pX1^2": "4"}}', encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert "missing" in err

    def test_unreadable_file_exits_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "evaluate", "--input", str(tmp_path / "absent.json"))
        assert code == 4

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
