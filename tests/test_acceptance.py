"""Acceptance suite: each test certifies one advertised property of the engine.

Each test prints a single `[criterion NN] PASS` line when its property holds;
a failing criterion shows up as a failed test (run with `pytest -v -s`).
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest

from anomaly.algebra import GeneratorTable, GradedPoly, pontryagin_table
from anomaly.bundles import line_real_complexification, tangent_complexification, theta_series
from anomaly.genera import (
    ahat_form,
    ahat_genus,
    aux_bundle_factor,
    cosh_genus,
    multiplicative_genus_eval,
    spinor_ch,
)
from anomaly.qseries import eisenstein, modular_basis
from anomaly.theta import quotient_series
from anomaly.verifier import (
    CASE_DIMS,
    COROLLARIES,
    IDENTITIES,
    CaseSpec,
    ManifoldData,
    bundle_route_integrand,
    corollary_modulus,
    eisenstein_fit,
    evaluate_report,
    impose_condition,
    theta_route_integrand,
    verify_identity,
)
from oracles import PRINTED_VARIANTS, jacobi_identity_residual, naive_substitute, t_series, verify_identity_as_printed

ALL_CASES = [(case, dim) for case in CASE_DIMS for dim in CASE_DIMS[case]]


@lru_cache(maxsize=None)
def routes_at_full_order(case, dim):
    spec = CaseSpec(case, dim, 3)
    return spec, bundle_route_integrand(spec), theta_route_integrand(spec)


def test_criterion_01_eisenstein_golden_values():
    e4 = eisenstein(4, 3)
    assert [e4.coefficient_q(n).constant_term for n in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein(6, 3)
    assert [e6.coefficient_q(n).constant_term for n in range(4)] == [1, -504, -16632, -122976]
    (e8,) = modular_basis(8, 2)
    assert [e8.coefficient_q(n).constant_term for n in range(3)] == [1, 480, 61920]
    (e10,) = modular_basis(10, 2)
    assert [e10.coefficient_q(n).constant_term for n in range(2)] == [1, -264]
    # exact arithmetic forces the q^2 coefficient of E4*E6; the sometimes
    # quoted value -117288 is unreachable once E4 and E6 match their
    # stated coefficients
    assert e10.coefficient_q(2).constant_term == 240 * (-504) + (-16632) + 2160 == -135432
    assert e10.coefficient_q(2).constant_term != -117288
    print(
        "\n[criterion 01] PASS: E4, E6, E4^2, E4E6 expansions match the stated "
        "coefficients; the q^2 coefficient of E4E6 is -135432 (the quoted "
        "-117288 is arithmetically unreachable and fails)"
    )


def test_criterion_02_theta_bundle_expansions():
    table = pontryagin_table(8)
    TX = tangent_complexification(table, 8)
    # ch is a ring map: the combinations are sums and products of the characters
    red = TX.reduce()
    W = red.ch()

    def lam(k):
        return red.lambda_power(k).ch()

    def sym(k):
        return red.sym_power(k).ch()

    th1 = theta_series("theta1", TX, cap=2)
    th2 = theta_series("theta2", TX, cap=2)
    th3 = theta_series("theta3", TX, cap=2)
    expected1 = {2: W * 2, 4: W * 2 + lam(2) + W * W + sym(2)}
    expected2 = {
        1: W * (-1),
        2: W + lam(2),
        3: (lam(3) + W + W * W) * (-1),
        4: lam(4) + lam(2) * W + W * W + sym(2) + W,
    }
    for j2, want in expected1.items():
        assert th1.coefficient(j2) == want
    for j2, want in expected2.items():
        assert th2.coefficient(j2) == want
        sign = -1 if j2 % 2 else 1
        assert th3.coefficient(j2) == want * sign
    assert th2.tau_shift_half() == th3
    # the same identities numerically, at randomized generator values
    rng = random.Random(20260815)
    values = {"pX1": Fraction(rng.randint(1, 20), 3), "pX2": Fraction(rng.randint(1, 20), 7)}

    def num(poly):
        total = Fraction(0)
        for expts, coeff in poly.terms.items():
            prod = coeff
            for name, e in zip(poly.table.names, expts):
                if e:
                    prod *= values[name] ** e
            total += prod
        return total

    for series, table_of in ((th1, expected1), (th2, expected2)):
        for j2, want in table_of.items():
            assert num(series.coefficient(j2)) == num(want)
    print(
        "\n[criterion 02] PASS: theta-power bundle q-expansions through q^2 "
        "match their exterior/symmetric-power combinations, symbolically and "
        "at randomized generator values"
    )


@pytest.mark.parametrize("case,dim", ALL_CASES)
def test_criterion_03_route_equivalence(case, dim):
    _, bundle, theta = routes_at_full_order(case, dim)
    assert bundle == theta
    if (case, dim) == ALL_CASES[-1]:
        print(
            "\n[criterion 03] PASS: bundle route and theta route agree "
            "coefficient-by-coefficient through q^3 for all 12 catalog cases"
        )


@pytest.mark.parametrize("case,dim", ALL_CASES)
def test_criterion_04_modular_fit(case, dim):
    spec, bundle, _ = routes_at_full_order(case, dim)
    top = impose_condition(bundle.homogeneous_component(dim), case)
    fit = eisenstein_fit(top, spec.weight)
    assert fit.passed
    (lam,) = fit.lam
    assert not lam.is_zero()
    assert {8: 4, 12: 6, 16: 8, 20: 10, 10: 4, 14: 6, 18: 8, 22: 10}[dim] == spec.weight
    if (case, dim) == ALL_CASES[-1]:
        print(
            "\n[criterion 04] PASS: every case's top-degree q-expansion equals "
            "lambda times its weight-matched basis form (weights 4/6/8/10 <-> "
            "E4/E6/E4^2/E4E6), residual identically zero through q^3"
        )


def test_criterion_05_identity_catalog_with_recorded_corrections():
    theorem_ids = sorted(i for i, e in IDENTITIES.items() if e.case != "spin_v_line")
    assert len(theorem_ids) == 20
    for ident in theorem_ids:
        assert verify_identity(ident).passed, ident
    # the two recorded statement corrections
    assert any("2048" in note for note in IDENTITIES["Thm1.7-(1.13)"].notes)
    assert any("(16)" in note for note in IDENTITIES["Thm1.15-q1"].notes)
    for ident in ("Thm1.7-(1.13)", "Thm1.15-q1"):
        assert not verify_identity_as_printed(ident).passed
    # the propagated series slip also fails when run as stated
    assert not verify_identity_as_printed("Thm1.7-(1.14)").passed
    assert set(PRINTED_VARIANTS) == {"Thm1.7-(1.13)", "Thm1.7-(1.14)", "Thm1.15-q1"}
    print(
        "\n[criterion 05] PASS: all 20 catalog identities verify exactly with "
        "two recorded statement corrections (plain-sector constant 32->2048; "
        "extraction superscript (12)->(16)); the uncorrected forms fail"
    )


def test_criterion_06_divisibility_table():
    expected = {
        "Cor1.2-a": 8, "Cor1.2-b": 16,
        "Cor1.4-a": 4, "Cor1.4-b": 8,
        "Cor1.6-a": 16, "Cor1.6-b": 32,
        "Cor1.8-a": 4, "Cor1.8-b": 8,
        "Cor1.22-a": 240, "Cor1.22-b": 2160,
        "Cor1.24-a": 504, "Cor1.24-b": 16632,
        "Cor1.26-a": 480,
        "Cor1.28-a": 264,
        "Cor1.11-a": 240, "Cor1.11-b": 2160,
        "Cor1.14-a": 504, "Cor1.14-b": 16632,
    }
    for ident, modulus in expected.items():
        assert corollary_modulus(ident) == modulus, ident
    # the remaining line-specialized corollaries follow the same pattern
    assert corollary_modulus("Cor1.17-a") == 480
    assert corollary_modulus("Cor1.20-a") == 264
    assert len(COROLLARIES) == 20
    print(
        "\n[criterion 06] PASS: divisibility moduli match the corollary table "
        "- spin (8,16)/(4,8)/(16,32)/(4,8), line case (240,2160)/(504,16632)/"
        "(480)/(264), line-specialized auxiliary case (240,2160)/(504,16632)"
    )


def b3_as_product(tcap, cap):
    """B3 = prod (1+e^t q^(j-1/2))(1+e^-t q^(j-1/2)) / (1+q^(j-1/2))^2, its
    numerator and denominator multiplied out."""
    num = den = t_series(tcap, cap, {(0, 0): 1})
    for j2 in range(1, 2 * cap + 1, 2):
        for sign in (+1, -1):
            exp_factor = {(0, 0): 1} | {(n, j2): Fraction(sign**n, factorial(n)) for n in range(tcap + 1)}
            num = num * t_series(tcap, cap, exp_factor)
        den = den * t_series(tcap, cap, {(0, 0): 1, (0, j2): 1}) ** 2
    return num, den


def test_criterion_07_jacobi_identity_and_half_shift():
    assert jacobi_identity_residual(10).is_zero()
    b2 = quotient_series("B2", 10, 5)
    num, den = b3_as_product(10, 5)  # den has constant term 1, so this pins B3
    assert b2.tau_shift_half() * den == num
    print(
        "\n[criterion 07] PASS: the triple-product residual vanishes through "
        "q^10 and the half-period shift maps the B2 quotient to B3, multiplied "
        "out from its defining product, through t-order 10, q-order 5"
    )


def test_criterion_08_explicit_root_oracles():
    truncation = 20
    r = truncation // 4 + 1
    roots = GeneratorTable([(f"x{i}", 4) for i in range(1, r + 1)])
    xs = [GradedPoly.generator(roots, f"x{i}", truncation) for i in range(1, r + 1)]
    images = {}
    for k in range(1, r + 1):
        total = GradedPoly.zero(roots, truncation)
        for combo in combinations(xs, k):
            prod = combo[0]
            for factor in combo[1:]:
                prod = prod * factor
            total = total + prod
        images[f"pX{k}"] = total
    order = truncation // 4

    def taylor_inverse(series):
        inv = [Fraction(1)] + [Fraction(0)] * order
        for m in range(1, order + 1):
            inv[m] = -sum(series[v] * inv[m - v] for v in range(1, m + 1))
        return inv

    def fact(n):
        out = 1
        for i in range(2, n + 1):
            out *= i
        return out

    sinh_ratio = [Fraction(1, 4**m * fact(2 * m + 1)) for m in range(order + 1)]
    cosh_half = [Fraction(1, 4**m * fact(2 * m)) for m in range(order + 1)]

    def brute(taylor):
        total = GradedPoly.one(roots, truncation)
        for x in xs:
            factor = GradedPoly.constant(roots, truncation, taylor[0])
            power = GradedPoly.one(roots, truncation)
            for m in range(1, order + 1):
                power = power * x
                if power.is_zero():
                    break
                factor = factor + power * taylor[m]
            total = total * factor
        return total

    p_table = pontryagin_table(4 * r)
    engine_ahat = multiplicative_genus_eval(p_table, ahat_genus(truncation), "pX", truncation)
    assert naive_substitute(engine_ahat, images, roots) == brute(taylor_inverse(sinh_ratio))
    engine_spinor = multiplicative_genus_eval(p_table, cosh_genus(truncation), "pX", truncation) * 2**r
    assert naive_substitute(engine_spinor, images, roots) == brute([2 * c for c in cosh_half])
    aux_table = pontryagin_table(4 * r, aux=True)
    engine_detcosh = aux_bundle_factor(aux_table, "detcosh_V", truncation)
    aux_images = {f"pV{k}": images[f"pX{k}"] for k in range(1, r + 1)}
    assert naive_substitute(engine_detcosh, aux_images, roots) == brute(cosh_half)
    print(
        "\n[criterion 08] PASS: genus evaluation agrees with explicit-root "
        "brute force (Newton substitution oracle) for the Ahat form, the "
        "spinor character and det^(1/2)cosh at truncation 20"
    )


def test_criterion_09_quaternionic_plane_evaluation():
    hp2 = ManifoldData(8, {"pX1^2": Fraction(4), "pX2": Fraction(7)})
    report = evaluate_report(hp2)
    values = {row["label"]: row["value"] for row in report["indices"]}
    assert values["Â-genus"] == "0"
    assert values["ind(D⊗Δ)"] == "1"
    # independent cross-check: the spinor density equals 2^(dim/2) times the
    # half-angle tanh genus, whose top pairing on HP^2 is the signature 1
    table = pontryagin_table(8)
    lhat = tuple(x + y for x, y in zip(ahat_genus(8), cosh_genus(8)))
    oracle_form = multiplicative_genus_eval(table, lhat, "pX", 8).homogeneous_component(8) * 16
    assert oracle_form == (ahat_form(table, 8) * spinor_ch(table, 8)).homogeneous_component(8)
    paired = sum(
        coeff * hp2.numbers[table.monomial_string(expts)] for expts, coeff in oracle_form.terms.items()
    )
    assert paired == 1
    # evaluated integers respect the criterion-6 moduli
    for row in report["checks"]:
        value = Fraction(row["value"])
        assert value.denominator == 1 and int(value) % row["modulus"] == 0
        assert row["ok"]
    print(
        "\n[criterion 09] PASS: HP^2 yields Ahat-genus 0 and ind(D(x)Delta) = 1, "
        "cross-checked against the 2^(2k) half-angle-tanh top-degree oracle; "
        "evaluated indices respect the divisibility moduli"
    )


@pytest.mark.parametrize("dim", CASE_DIMS["spinc_l"])
def test_criterion_10_line_factor_parity(dim):
    table = pontryagin_table(dim, line=True)
    TX = tangent_complexification(table, dim)
    L = line_real_complexification(table, dim)
    ch = theta_series("thetaL", TX, L, cap=3)
    ahat = ahat_form(table, dim)
    tops = {}
    for kind in ("sinh_half_c", "exp_half_c", "cosh_half_c"):
        series = ch.scale(ahat * aux_bundle_factor(table, kind, dim))
        tops[kind] = series.homogeneous_component(dim)
    assert tops["cosh_half_c"].is_zero()
    assert tops["exp_half_c"] == tops["sinh_half_c"]
    if dim == CASE_DIMS["spinc_l"][-1]:
        print(
            "\n[criterion 10] PASS: in every line-bundle case the cosh(c/2) "
            "variant has identically zero top degree, and the exp(c/2) variant "
            "equals the sinh(c/2) variant"
        )
