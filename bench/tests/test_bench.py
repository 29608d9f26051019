"""Tests of the benchmark's own code: inputs, checks, span arithmetic, tracing.

    python3 -m pytest bench/tests -q
"""

import json
import random

import pytest

import run
import tracer
import workloads
from layers import RoundTrace, span_stats
from workloads import HP2, Invocation, Workload, check_digest, check_evaluate, check_verify, digest

from anomaly.verifier import ManifoldData, evaluate_report


# -- the evaluate input generator ----------------------------------------------------


def test_generator_repeats_for_a_seed():
    assert workloads.evaluate_inputs(7) == workloads.evaluate_inputs(7)
    assert workloads.evaluate_inputs(7) != workloads.evaluate_inputs(8)
    dims = [m["dim"] for m in workloads.evaluate_inputs(7)]
    assert dims == [8, 12, 16, 20, 10, 14, 18, 22, 8]


def test_generator_folds_px1_into_cl_squared():
    numbers = workloads.manifold_numbers(14, random.Random(3))
    assert sorted(numbers) == sorted(
        ["cL^7", "pX1*cL^5", "pX1^2*cL^3", "pX1^3*cL", "pX2*cL^3", "pX1*pX2*cL", "pX3*cL"]
    )
    for key in ("pX1*cL^5", "pX1^2*cL^3", "pX1^3*cL"):
        assert numbers[key] == numbers["cL^7"]
    assert numbers["pX1*pX2*cL"] == numbers["pX2*cL^3"]


@pytest.mark.parametrize("manifold", workloads.evaluate_inputs(11)[:-1], ids=lambda m: f"dim{m['dim']}")
def test_generator_covers_every_monomial_and_balances(manifold):
    report = evaluate_report(ManifoldData.from_mapping(manifold))  # raises on a missing monomial
    assert report["identities"] and all(row["balanced"] for row in report["identities"])


def test_balance_is_a_check_that_can_fail():
    manifold = workloads.evaluate_inputs(11)[5]
    assert manifold["dim"] == 14
    key = "pX1^3*cL"
    manifold["numbers"][key] = str(int(manifold["numbers"][key]) + 1)  # breaks pX1 = cL^2
    report = evaluate_report(ManifoldData.from_mapping(manifold))
    assert not all(row["balanced"] for row in report["identities"])


# -- reference checks ------------------------------------------------------------------


def test_verify_check_rejects_tampering():
    good = json.dumps({"passed": True})
    check = check_verify(digest(good))
    assert check(0, good) == []
    assert check(1, good)
    assert check(0, good.replace(" ", "  "))
    flipped = json.dumps({"passed": False})
    assert check_verify(digest(flipped))(0, flipped)
    assert check_digest(digest(good))(0, good + "\n")


def _hp2_output() -> str:
    return json.dumps(evaluate_report(ManifoldData.from_mapping(HP2)), sort_keys=True, indent=2)


def test_evaluate_check_accepts_hp2_and_rejects_tampering():
    out = _hp2_output()
    check = check_evaluate(HP2)
    assert check(0, out) == []
    assert check(1, out)

    report = json.loads(out)
    report["checks"][0]["ok"] = not report["checks"][0]["ok"]
    assert check(0, json.dumps(report))

    report = json.loads(out)
    report["checks"][1]["modulus"] = 8
    assert check(0, json.dumps(report))

    report = json.loads(out)
    report["checks"][0]["value"] = "-16"
    assert check(0, json.dumps(report))

    report = json.loads(out)
    report["identities"][0]["balanced"] = False
    assert check(1, json.dumps(report))


def test_failing_divisibility_exit_1_is_expected():
    manifold = workloads.evaluate_inputs(5)[0]
    report = evaluate_report(ManifoldData.from_mapping(manifold))
    assert not all(row["ok"] for row in report["checks"])
    out = json.dumps(report)
    assert check_evaluate(manifold)(1, out) == []
    assert check_evaluate(manifold)(0, out)


def test_tampered_output_counts_as_failed():
    good = "reference output\n"
    fake = Workload(
        "anomaly.algebra",
        lambda seed: [
            Invocation("good", ("-c", f"print({good.strip()!r})"), check_digest(digest(good))),
            Invocation("tampered", ("-c", "print('tampered output')"), check_digest(digest(good))),
            Invocation("crash", ("-c", "raise SystemExit(3)"), check_digest(digest(good))),
        ],
    )
    result = run.run_plain(fake, seed=1, seconds=0, spec=json.loads((run.ROOT / "BENCHMARK.json").read_text()))
    assert (result["attempted"], result["failed"]) == (3, 2)


# -- measurement -------------------------------------------------------------------------


def test_launcher_reports_the_child_peak_not_the_driver():
    _, _, small_mb, code, _, _ = run.spawn(("-c", "pass"))
    assert code == 0 and small_mb < 20
    _, _, big_mb, code, _, _ = run.spawn(("-c", "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"))
    assert code == 0 and big_mb > 64


def test_launcher_passes_exit_codes_and_stdin():
    _, _, _, code, out, _ = run.spawn(("-c", "import sys; print(sys.stdin.read()); sys.exit(3)"), b"hello")
    assert (code, out) == (3, "hello\n")
    _, _, _, code, _, _ = run.spawn(("-c", "import os; os.kill(os.getpid(), 9)"))
    assert code == -9


def test_speed_probe_reports_a_rate():
    with run.SpeedProbe() as probe:
        run.spawn(("-c", "sum(range(3_000_000))"))
    assert 0.05 < probe.speed < 20


# -- spans ----------------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    spans = [
        (3, 2, "b", 2.0, 3.0),   # b calls itself
        (2, 1, "b", 1.0, 4.0),
        (4, 1, "c", 5.0, 9.0),
        (1, 0, "a", 0.0, 10.0),
        (5, 0, "d", 10.0, 10.5),  # a second top-level span
    ]
    stats, top, self_sum = span_stats(spans)
    assert stats["a"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert stats["b"] == {"s": 3.0, "self_s": 3.0, "calls": 2}
    assert stats["c"] == {"s": 4.0, "self_s": 4.0, "calls": 1}
    assert top == 10.5
    assert self_sum == pytest.approx(top)


def test_round_trace_reports_absent_and_unreached_layers():
    trace = RoundTrace()
    trace.add({"spans": [(1, 0, "cli.main", 0.0, 1.0)], "counters": {"genera.ahat_form.distinct": 2},
               "wrapped": ["cli.main", "genera.ahat_form"]})
    assert trace.value("cli.main.s") == 1.0
    assert trace.value("genera.ahat_form.calls") == 0
    assert trace.value("genera.ahat_form.useful_ratio") == 0.0
    assert trace.value("verifier.gone.s") is None
    assert trace.value("theta.theta_quotient.hits") is None


def test_missing_classes_are_skipped_not_fatal():
    assert tracer.install_methods(tracer.Recorder(), {}) == []


def test_traced_call_from_verifier_into_bundles():
    inv = Invocation(
        "spin 8",
        ("-m", "anomaly.cli", "verify", "--case", "spin", "--dim", "8", "--order", "1", "--format", "json"),
        lambda code, out: [] if code == 0 and json.loads(out)["passed"] else ["failed"],
    )
    outcome = run.run_invocation(inv, traced=True)
    assert outcome.problems == []
    spans = outcome.dump["spans"]
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        while span[1]:
            span = by_id[span[1]]
            yield span[2]

    theta_series = [s for s in spans if s[2] == "bundles.theta_series"]
    assert theta_series
    assert all("verifier.bundle_route_integrand" in ancestors(s) for s in theta_series)
    assert [s[2] for s in spans if s[1] == 0] == ["cli.main"]
    counters = outcome.dump["counters"]
    assert counters["algebra.GradedPoly.mul.calls"] > 0
    assert counters["theta.theta_quotient.misses"] > 0
    assert counters["verifier.max_terms"] > 0
    _, top, self_sum = span_stats(spans)
    assert self_sum == pytest.approx(top)


def test_traced_spin_wide_script():
    inv = workloads.WORKLOADS["spin-wide"].make_round(1)[0]
    outcome = run.run_invocation(inv, traced=True)
    assert outcome.problems == []
    assert [s[2] for s in outcome.dump["spans"] if s[1] == 0] == ["spin_wide.main"]
    assert outcome.dump["counters"]["verifier.max_terms"] == 22  # monomials of degree 32 in pX1..pX8
