"""Command-line interface: subcommands, exit codes, deterministic output."""

import builtins
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anomaly.cli as cli
import anomaly.verifier as verifier
from anomaly.cli import main
from oracles import build_parser

HP2_JSON = '{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}}'
# Integral characteristic numbers that balance every identity of their case
# but fail the divisibility checks (the JSON reports show both).
SPINC10_JSON = '{"dim": 10, "numbers": {"cL^5": "170", "pX2*cL": "-934", "pX1*cL^3": "170", "pX1^2*cL": "170"}}'
SPIN12_JSON = '{"dim": 12, "numbers": {"pX3": "-29", "pX1*pX2": "-450", "pX1^3": "346"}}'
SPINC10_DIGEST = "f612ad9dd182d42dcb99a9c28108149f4b0100787a5b2159acc12d7477c7cb14"
OFF_HP2_JSON = '{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "8"}}'
# <pX1*cL^3> = 0 but <cL^5> = 1: pX1 = cL^2, the spinc_l condition, does not hold.
OFF_CONDITION_JSON = '{"dim": 10, "numbers": {"pX1^2*cL": "0", "pX2*cL": "0", "pX1*cL^3": "0", "cL^5": "1"}}'
SRC = Path(__file__).resolve().parents[1] / "src"
ORDER1_DIGEST = "326dedf386cf52c0038b02d264104ba2760660190114c93c802fd39a753f5955"


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
        assert digest == ORDER1_DIGEST

    def test_order2_json_is_pinned(self, capsys):
        """Order 2 is the first q-cap at which spin_v's folded exterior product
        (odd whole q-steps only) has fewer factors than the whole-step one."""
        code, out, _ = run(capsys, "verify", "--format", "json", "--order", "2")
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "921b1a2050a4d552897745951a301bfe0f54ce0813dd5326256e644cd33cfe7b"

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

    def test_empty_filter_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "spin", "--dim", "10")
        assert code == 3
        assert err == "anomaly: no selected case admits dimension 10\n"

    def test_a_dimension_past_the_catalog_runs_routes_and_fit(self, capsys):
        """Every case that admits dimension 24, with no identity and no modulus."""
        code, out, _ = run(capsys, "verify", "--dim", "24", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [(case["case"], case["dim"]) for case in payload["cases"]] == [("spin", 24), ("spin_v", 24)]
        for case in payload["cases"]:
            assert case["identities"] == [] and case["moduli"] == {}
            assert case["lambda"].count(", ") == 1  # two basis forms at weight 12
            assert case["fit_ok"] and case["route_ok"]

    def test_a_dimension_past_the_catalog_prints_no_identity_note(self, capsys):
        """The notes that speak of the identities print only where identities run."""
        notes = {}
        for argv in (["--dim", "24"], ["--dim", "26", "--case", "spinc-l"], ["--dim", "8"], ["--dim", "10"]):
            _, out, _ = run(capsys, "verify", *argv, "--format", "json")
            notes.update({(case["case"], case["dim"]): case["notes"] for case in json.loads(out)["cases"]})
        assert notes[("spin", 24)] == notes[("spin", 8)] == []
        assert notes[("spin_v", 24)] == [verifier.NOTE_COMPLEXIFICATION]
        assert notes[("spin_v", 8)] == [verifier.NOTE_COMPLEXIFICATION, verifier.NOTE_LINE_SPECIALIZATION]
        assert notes[("spinc_l", 26)] == []
        assert notes[("spinc_l", 10)] == [verifier.NOTE_PARITY]

    def test_a_dimension_past_the_catalog_below_its_basis_size_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "24", "--order", "1", "--format", "json")
        assert code == 1
        for case in json.loads(out)["cases"]:
            assert case["route_ok"] and not case["fit_ok"]
            assert case["fit_residual"] == "insufficient order: no q-coefficient compared"

    def test_a_dimension_the_case_does_not_admit_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "spinc-l", "--dim", "24")
        assert code == 3
        assert err == "anomaly: no selected case admits dimension 24\n"

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


# sha256 of `expand --series <basis form> --order <order> --format <format>`,
# recorded from the engine that held the basis forms in a ring of Fractions of
# their own, before they became series over the empty generator table.
BASIS_DIGESTS = {
    ("E4", "0", "text"): "bb527d8cd59e3924ee14de33672c4dcf3d5b042931d75c8484889222e5cf95b1",
    ("E4", "0", "json"): "ccd4cf16ddb6b21e252e54ff6969db2270d15ff1959a9f1952bb0faa19f21efb",
    ("E4", "2", "text"): "33876b7c422a173db695f3c1ac721534546c9d851d67eb189bf376af9ab7f80a",
    ("E4", "2", "json"): "1f3357daef938d1a1af530ecad8fb36e2f299f9fce11c338311b49d42f678fe3",
    ("E4", "5", "text"): "9e0b45ebff02c92110d1a094af2a91b9638713b8ebcd4b929adfddb206a597d0",
    ("E4", "5", "json"): "c55f9c03b172926f14d775dc70209902c65dae15bb5d852cf3c912816dee09fb",
    ("E6", "0", "text"): "4dfdd426957b0dc7e865f006fbd809431c1c827334b7db404827feb5b349d9fa",
    ("E6", "0", "json"): "b8cfec6afdafebf9213d03fab9d7f27f6d008da5a53d8b4a7148d9dada52e947",
    ("E6", "2", "text"): "1415e01be4ae60778990104135df7f1994aa4e816409048c9075ceebea4c4ac6",
    ("E6", "2", "json"): "c1b8d35c8246b8b944c2b34908b92bf88bdba8fb61c6e46875110c95893e961a",
    ("E6", "5", "text"): "b98144ab0c4ee4c06806af09268b4dc5febe2f58e729b745c26a576a3dc4f5a3",
    ("E6", "5", "json"): "e6cbcd5407799a7df86cb49097c82cf868eb959fafd311c08794b5b5693a1dc2",
    ("E4^2", "0", "text"): "db9bed62293188857329ff94c3481d7c1b9b6b6d8b7629df94809130ed6b00d8",
    ("E4^2", "0", "json"): "2bb5310ddc36afa2a81fc9be9175b773aa557ff5cca9b77ff5ad86408bdb7ea6",
    ("E4^2", "2", "text"): "8e2fc71acb0cca4b6e2857030d3bb9c930fc27d0bbd5ddd2bf6a0e0012784ab9",
    ("E4^2", "2", "json"): "7b6a5f3d520e0e789708842347e49c4031a818f83449e833479b5d471eace8c7",
    ("E4^2", "5", "text"): "2227bea78dfdab2a49274d3538fa199220e71344d78ad986777348b7555d5094",
    ("E4^2", "5", "json"): "badc3ddee592984c9d61612502b116cbdb1a358375acbd46e6657e411cbd6526",
    ("E4E6", "0", "text"): "2aa239710019f4369c37dd9ef7cc5aa9f5e7e66ca273ba41d47de745604faf1d",
    ("E4E6", "0", "json"): "0588aa17e072a7f415cbef0cd1bc0bd53a08e26e857579b04862e360cf520672",
    ("E4E6", "2", "text"): "f70359a10a399406b1dc669b92aedece02d4c6023680e59f3892421796ef83d4",
    ("E4E6", "2", "json"): "08b35026feb5eba77736f5578ccd92317a6b27a1e57d9db7675366647e6e3d24",
    ("E4E6", "5", "text"): "86724aedc895542514df00978b277570f5ed7041bb5342190c2ee0f9e4ab3d92",
    ("E4E6", "5", "json"): "e67e34029dd75edf7f944145f1111a43210b0c19fa2cd7e19258f02f9bf3854e",
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

    @pytest.mark.parametrize("series, order, fmt", sorted(BASIS_DIGESTS))
    def test_expand_basis_form(self, capsys, series, order, fmt):
        code, out, _ = run(capsys, "expand", "--series", series, "--order", order, "--format", fmt)
        assert code == 0
        assert sha256(out) == BASIS_DIGESTS[(series, order, fmt)]

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


class TestArgumentsAlone:
    """A run reads its command line and its input, nothing else, and always compares both routes."""

    @pytest.mark.parametrize("route", ["bundle", "theta", "both"])
    def test_a_route_is_not_an_option(self, capsys, route):
        """Each former choice, the old default too, is refused."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--route", route])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --route {route}" in capsys.readouterr().err

    @pytest.mark.parametrize("qcap", ["1", "three", "-1"])
    def test_the_environment_sets_no_order(self, capsys, monkeypatch, qcap):
        """The q-cap of a run without --order is 3, whatever the environment holds:
        a value once read as the order, or once refused with exit 2."""
        monkeypatch.setenv("ANOMALY_QCAP", qcap)
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        assert sha256(out) == "b853379feb2a294652f16489cd102590df4569cfa06a99218a67b8c13d03dd34"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--order", "-1"], "--order must be nonnegative"),
        (["expand", "--series", "E4", "--order", "-1"], "--order must be nonnegative"),
        (["expand", "--series", "theta1-ch", "--dim", "6"], "--dim must be a positive multiple of 4"),
        (["expand", "--series", "A", "--tcap", "-1"], "--tcap must be nonnegative"),
    ],
    ids=["verify-order", "expand-order", "expand-dim", "expand-tcap"],
)
def test_a_negative_or_misfit_number_exits_2(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_numbers_that_break_the_case_condition_exit_5(self, capsys, tmp_path, fmt):
        """Not a failed check (exit 1): no identity applies to such numbers."""
        path = tmp_path / "off.json"
        path.write_text(OFF_CONDITION_JSON, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path), "--format", fmt)
        assert code == 5
        assert out == ""
        assert err == "anomaly: the numbers break the spinc_l condition pX1 = cL^2: <pX1*cL^3> = 0, but <cL^5> = 1\n"

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

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"dim": 8, "numbers": {"pX1^2": "4", "pX1*pX1": "5", "pX2": "7"}}',
                "keys 'pX1^2' and 'pX1*pX1' name the same monomial",
            ),
            # `json.loads` alone keeps the last of two equal keys
            ('{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7", "pX1^2": "5"}}', "key 'pX1^2' is repeated"),
            ('{"dim": 12, "numbers": {"pX1^2": "4", "pX2": "7"}, "dim": 8}', "key 'dim' is repeated"),
            (
                '{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}, "numbers": {"pX1^2": "4", "pX2": "7"}}',
                "key 'numbers' is repeated",
            ),
        ],
        ids=["respelled", "repeated-number", "repeated-dim", "repeated-top-level"],
    )
    def test_two_keys_for_one_monomial_exit_4(self, capsys, tmp_path, text, message):
        path = tmp_path / "duplicate.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert message in err

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

    def test_a_dimension_past_the_catalog_exits_4(self, capsys, tmp_path):
        """`verify` runs spin at 24, but no catalog identity pairs with its numbers."""
        path = tmp_path / "dim24.json"
        path.write_text('{"dim": 24, "numbers": {"pX6": "1", "pX3^2": "2", "pX1^6": "3"}}', encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4 and out == ""
        assert "no catalog case in dimension 24" in err

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

    @pytest.mark.parametrize("key", ["pX1^0_2", "pX1^\uff12", "pX1^+2", "pX1^ 2"])
    def test_exponent_outside_ascii_digits_exits_4(self, capsys, tmp_path, key):
        """An exponent is ASCII digits only, as the numbers are: int() would read
        each of these as 2, and so the key as pX1^2 and the input as HP²."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 8, "numbers": {key: "4", "pX2": "7"}}), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--input", str(path))
        assert code == 4
        assert out == ""
        assert f"bad manifold data: bad monomial {key!r}: bad exponent" in err

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
        path.write_text(OFF_HP2_JSON, encoding="utf-8")
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

    @pytest.mark.parametrize("argv", [["--dim", "24"], ["--case", "spinc-l", "--dim", "26"]])
    def test_a_dimension_past_the_catalog_has_no_moduli(self, capsys, argv):
        """The spec admits it, but no corollary is stated there."""
        code, out, err = run(capsys, "moduli", *argv)
        assert code == 3 and out == ""
        assert err == "anomaly: no catalog case matches the given filters\n"


# Runs the module as `python -m anomaly.cli` does, behind an atexit probe that
# reports the collector's state once the process is on its way out.
PROCESS = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"probe: frozen {gc.get_freeze_count() > 0} enabled {gc.isenabled()}", file=sys.stderr))
sys.argv = ["anomaly", *sys.argv[1:]]
runpy.run_module("anomaly.cli", run_name="__main__")
"""


def run_process(*argv, stdin=""):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROCESS, *argv], input=stdin, env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


class TestProcessEntry:
    """`run()`, the process entry: the same bytes and exit codes as `main()`,
    with the collector off and the heap frozen by the time the process exits."""

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("verify", "--case", "spin", "--dim", "8", "--order", "1", "--format", "json"), ""),
            (("evaluate", "--input", "-", "--format", "json"), HP2_JSON),
        ],
        ids=["verify", "evaluate"],
    )
    def test_output_matches_in_process_main(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run_process(*argv, stdin=stdin)
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(stdin))
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == 0
        assert err == "probe: frozen True enabled False\n"

    @pytest.mark.parametrize(
        "argv, stdin, expected",
        [
            (("evaluate", "--input", "-"), OFF_HP2_JSON, 1),
            (("verify", "--case", "spinny"), "", 2),
            (("verify", "--case", "spin", "--dim", "10"), "", 3),
            (("evaluate", "--input", "-"), "{not json", 4),
            (("evaluate", "--input", "-"), OFF_CONDITION_JSON, 5),
        ],
        ids=["failed-divisibility", "usage", "no-case", "malformed", "broken-condition"],
    )
    def test_exit_codes_come_through(self, argv, stdin, expected):
        code, _, err = run_process(*argv, stdin=stdin)
        assert code == expected
        assert err.endswith("probe: frozen True enabled False\n")

    @pytest.mark.parametrize(
        "argv",
        [("verify", "--order", "7", "--format", "json"), ("moduli",), ("expand", "--series", "E4"), ("verify", "-h")],
        ids=["verify", "moduli", "expand", "help"],
    )
    def test_a_closed_pipe_exits_141_quietly(self, argv):
        """The read end closes before the child writes, as `| head -c 10` can:
        no traceback, and not exit 1, the code of a failed check."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.Popen(
            [sys.executable, "-m", "anomaly.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=120), err) == (141, b"")

    @pytest.mark.parametrize("minor", range(10, 15), ids=lambda minor: f"python3.{minor}")
    def test_verify_json_is_the_same_under_each_interpreter(self, minor):
        """`verify --order 1 --format json` prints the in-process bytes under
        each python3.N on PATH, N = 10..14; one that is missing, or that does
        not start, is skipped."""
        python = shutil.which(f"python3.{minor}")
        if python is None or subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60).returncode:
            pytest.skip(f"python3.{minor} does not start")
        done = subprocess.run(
            [python, "-m", "anomaly.cli", "verify", "--order", "1", "--format", "json"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == ORDER1_DIGEST

    def test_in_process_main_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "verify", "--case", "spin", "--dim", "8", "--order", "1")[0] == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen


def parsed(parse, argv):
    """What `parse` makes of argv: the namespace as a dict, or ("exit", code,
    stdout, stderr) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


def reference(argv):
    return build_parser().parse_args(argv)


def assert_parses_as_the_reference(argv):
    """The option table gives argparse's command and values, or exits with
    argparse's code: 0 after help on stdout, 2 after a usage error on stderr."""
    mine, theirs = parsed(cli.parse_args, argv), parsed(reference, argv)
    if isinstance(theirs, dict):
        assert mine == theirs, argv
        return
    assert mine[:2] == theirs[:2], (argv, mine, theirs)
    _, code, out, err = mine
    if code == 0:
        assert out.startswith("usage: anomaly") and err == "", argv
    else:
        assert out == "" and err.startswith("usage: anomaly") and "\nanomaly: error: " in err, argv


OPTIONS = {command: options for command, (_, options) in cli._COMMANDS.items()}
# One good value for each option: the first choice, else an int or a path.
GOOD = {flag: choices[0] if choices else "3" if convert is int else "x.json"
        for options in OPTIONS.values() for flag, convert, choices, _, _ in options}
# What a command needs to parse: its required options.
NEEDS = {command: [token for flag, _, _, default, _ in options if default is cli._REQUIRED for token in (flag, GOOD[flag])]
         for command, options in OPTIONS.items()}


def option_forms(command, flag):
    """The full flag, its shortest unique prefix among the command's options
    and -h, and the inline form."""
    others = [other for other, *_ in OPTIONS[command] if other != flag] + ["--help"]
    prefix = next(flag[:n] for n in range(3, len(flag) + 1) if not any(o.startswith(flag[:n]) for o in others))
    return [[flag, GOOD[flag]], [prefix, GOOD[flag]], [f"{flag}={GOOD[flag]}"]]


CORPUS = [
    [command, *NEEDS[command], *form]
    for command, options in OPTIONS.items()
    for flag, *_ in options
    for form in option_forms(command, flag)
] + [
    [command, *NEEDS[command]] for command in OPTIONS
] + [
    # the removed --route option, in each form its row once generated
    ["verify", "--route", "bundle"],
    ["verify", "--r", "bundle"],
    ["verify", "--route=bundle"],
    ["verify", "--order", "3", "--order", "5"],
    ["verify", "--case", "spin", "--format", "json", "--case", "spinc-l"],
    ["evaluate", "--input", "-"],
    ["evaluate", "--input", "-1"],
    ["evaluate", "--input", "-1.5"],
    ["verify", "--order", "-1"],
    ["verify", "--order", "-1.5"],
    ["evaluate", "--input", "--format"],
    ["evaluate", "--input", "-x"],
    ["evaluate", "--input", "-my file.json"],
    ["verify", "--ord 3"],
    ["verify", "--order", "-h"],
    ["verify", "--order", "x"],
    ["verify", "--order="],
    ["verify", "--case", "spinny"],
    ["expand", "--series", "E12"],
    ["verify", "--order"],
    ["evaluate", "--format", "json", "--input"],
    ["expand"],
    ["evaluate", "--format", "json"],
    ["verify", "--bogus"],
    ["verify", "--bogus=3"],
    ["verify", "-x"],
    ["verify", "--input", "-"],
    ["verify", "extra"],
    ["verify", "--order", "3", "4"],
    [],
    ["bogus"],
    ["-1"],
    ["--bogus", "verify"],
    ["--order", "3", "verify"],
    ["verify", "--", "--order", "3"],
    ["verify", "--order", "--"],
    ["--", "verify"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "verify"],
    ["-h", "bogus"],
    ["verify", "-h"],
    ["verify", "--help", "--order", "x"],
    ["verify", "--order", "3", "-h"],
    ["verify", "--order", "x", "-h"],
    ["verify", "--bogus", "-h"],
    ["verify", "extra", "--h"],
    ["--bogus", "verify", "-h"],
    ["verify", "--", "-h"],
    ["verify", "--help=x"],
    ["verify", "--=x"],
    ["expand", "-h", "--series", "E12"],
    ["evaluate", "--help"],
]


def test_the_table_declares_what_the_reference_declares():
    """The same commands, each with the same options, converters, choices,
    defaults and help; so the vocabulary below, read from the table, names
    every option the reference has."""
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    declared = {
        command: tuple(
            (action.option_strings[0], action.type or str, tuple(action.choices) if action.choices else None,
             cli._REQUIRED if action.required else action.default, action.help or "")
            for action in parser._actions if action.dest != "help"
        )
        for command, parser in commands.choices.items()
    }
    assert declared == OPTIONS
    assert [action.help for action in commands._choices_actions] == [text for text, _ in cli._COMMANDS.values()]


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_corpus_parses_as_argparse_did(argv):
    assert_parses_as_the_reference(argv)


# Every command, flag, shortest prefix and inline form, and values good and bad.
# Left out: combined short options such as -hh, which argparse reads as -h -h;
# an inline "--", which argparse drops from `--order=--` and leaves no value;
# and an empty option name (`--=x`), which argparse reports as ambiguous
# before it reads any token, and so before a -h that comes first.
VALUES = ["3", "-1", "-1.5", "-", "x", "", "json", "spin", "spinc-l", "all", "theta", "E4", "Ahat", "8"]
VOCABULARY = sorted(
    {*OPTIONS, "bogus", "-h", "--help", "--he", "--bogus", "-x", "--", *VALUES}
    | {form[0] for command, options in OPTIONS.items() for flag, *_ in options for form in option_forms(command, flag)}
)


def pairs(command, values) -> list:
    """Each option of `command` with each of `values`, in each form."""
    return [
        [*form[:1], value] if len(form) == 2 else [f"{flag}={value}"]
        for flag, *_ in OPTIONS[command]
        for form in option_forms(command, flag)
        for value in values(flag)
    ]


def command_argv(command):
    """A command, its required options, then options with good values,
    options with any value, and single tokens, in any order."""
    good = st.sampled_from(pairs(command, lambda flag: [GOOD[flag]]))
    pieces = st.one_of(
        good,
        good,
        st.sampled_from(pairs(command, lambda flag: VALUES)),
        st.sampled_from(VOCABULARY).map(lambda token: [token]),
    )
    return st.lists(pieces, max_size=4).map(
        lambda chunks: [command, *NEEDS[command], *(token for chunk in chunks for token in chunk)]
    )


COMMAND_ARGV = st.sampled_from(sorted(OPTIONS)).flatmap(command_argv)
ARGV = st.one_of(COMMAND_ARGV, COMMAND_ARGV, st.lists(st.sampled_from(VOCABULARY), max_size=6))


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_any_token_sequence_parses_as_argparse_did(argv):
    assert_parses_as_the_reference(argv)


def test_an_ambiguous_prefix_is_a_usage_error(capsys):
    """No two flags of the table share a prefix past "--"; a table where two do rejects it."""
    with pytest.raises(SystemExit) as exc:
        cli._option("--di", "verify", ("--help", "--dim", "--dir"))
    assert exc.value.code == 2
    assert "ambiguous option: --di could match --dim, --dir" in capsys.readouterr().err
    assert cli._option("--dim", "verify", ("--help", "--dim", "--dir")) == ("--dim", None)


def test_an_inline_double_dash_is_a_value(capsys, tmp_path, monkeypatch):
    """argparse dropped "--" from an inline value and stored an empty list,
    which the handlers then failed on with a TypeError."""
    assert cli.parse_args(["evaluate", "--input=--"]).input == "--"
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "evaluate", "--input=--")[0] == 4
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--order=--"])
    assert exc.value.code == 2
    assert "invalid int value: '--'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([command, "-h"] for command in OPTIONS)],
                         ids=lambda argv: " ".join(argv))
def test_help_names_every_option_and_choice(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("usage: anomaly")
    if len(argv) == 1:
        for command, (text, _) in cli._COMMANDS.items():
            assert any(line.split() == [command, *text.split()] for line in lines), command
        return
    for flag, _, choices, _, help_text in OPTIONS[argv[0]]:
        (row,) = [line for line in lines if line.startswith(f"  {flag} ")]
        metavar = row.split()[1]
        if choices:
            assert metavar == "{" + ",".join(choices) + "}"
        assert help_text in out

