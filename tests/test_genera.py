"""Multiplicative genera against explicit-root brute force."""

from fractions import Fraction
from itertools import combinations

import pytest

from anomaly.algebra import GeneratorTable, GradedPoly, pontryagin_table, top_component
from anomaly.genera import (
    GenusSeries,
    ahat_form,
    ahat_genus,
    aux_bundle_factor,
    cosh_genus,
    multiplicative_genus_eval,
    spinor_ch,
    spinor_genus,
)

# One-variable Taylor tools over exact rationals, independent of the package's
# series plumbing: a list c with c[m] standing for c_m * y^m, where y = t^2.


def taylor_inverse(series, order):
    assert series[0] == 1
    inv = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        inv[m] = -sum(series[v] * inv[m - v] for v in range(1, m + 1) if v < len(series))
    return inv


def taylor_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def taylor_log(series, order):
    """log(1 + y) = sum_k (-1)^(k-1) y^k / k with y = series - 1."""
    assert series[0] == 1
    y = [Fraction(0)] + list(series[1 : order + 1])
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = taylor_mul(power, y, order)
        for m in range(order + 1):
            out[m] += Fraction((-1) ** (k - 1), k) * power[m]
    return out


def sinh_ratio(order):
    # sinh(t/2)/(t/2) = sum_m t^(2m) / (4^m (2m+1)!)
    out = []
    fact = 1
    for m in range(order + 1):
        fact_2m1 = 1
        for i in range(1, 2 * m + 2):
            fact_2m1 *= i
        out.append(Fraction(1, 4**m * fact_2m1))
    return out


def cosh_half(order):
    out = []
    for m in range(order + 1):
        fact_2m = 1
        for i in range(1, 2 * m + 1):
            fact_2m *= i
        out.append(Fraction(1, 4**m * fact_2m))
    return out


def brute_root_product(taylor, roots_table, xs, truncation):
    """prod_i sum_m taylor[m] * x_i^m with x_i the squared formal roots."""
    total = GradedPoly.one(roots_table, truncation)
    for x in xs:
        factor = GradedPoly.constant(roots_table, truncation, taylor[0])
        power = GradedPoly.one(roots_table, truncation)
        for m in range(1, len(taylor)):
            power = power * x
            if power.is_zero():
                break
            factor = factor + power * taylor[m]
        total = total * factor
    return total


def elementary_images(roots_table, xs, count, truncation):
    images = {}
    for k in range(1, count + 1):
        total = GradedPoly.zero(roots_table, truncation)
        for combo in combinations(xs, k):
            prod = combo[0]
            for factor in combo[1:]:
                prod = prod * factor
            total = total + prod
        images[f"pX{k}"] = total
    return images


class TestGenusData:
    def test_ahat_log_coefficients(self):
        g = ahat_genus(12)
        assert g.log_coeffs[0] == Fraction(-1, 24)
        assert g.log_coeffs[1] == Fraction(1, 2880)
        assert g.multiplier == 1

    @pytest.mark.parametrize("truncation", range(0, 33, 2))
    def test_log_coefficients_match_taylor_log(self, truncation):
        order = truncation // 4
        ahat = taylor_log(taylor_inverse(sinh_ratio(order), order), order)
        cosh = taylor_log(cosh_half(order), order)
        assert ahat_genus(truncation).log_coeffs == tuple(ahat[1:])
        assert spinor_genus(truncation).log_coeffs == tuple(cosh[1:])
        assert cosh_genus(truncation).log_coeffs == tuple(cosh[1:])

    def test_spinor_multiplier(self):
        assert spinor_genus(8).multiplier == 2
        assert cosh_genus(8).multiplier == 1

    def test_ahat_form_goldens(self):
        table = pontryagin_table(8)
        a = ahat_form(table, 8)
        assert a.constant_term == 1
        assert a.coefficient("pX1") == Fraction(-1, 24)
        assert a.coefficient("pX1^2") == Fraction(7, 5760)
        assert a.coefficient("pX2") == Fraction(-1, 1440)

    def test_signature_density_golden(self):
        # Ahat * ch(spinor bundle) in top degree 8 is the classical
        # signature form (7 p2 - p1^2)/45
        table = pontryagin_table(8)
        top = top_component(ahat_form(table, 8) * spinor_ch(table, 8), 8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        p2 = GradedPoly.generator(table, "pX2", 8)
        assert top == (7 * p2 - p1 * p1) / 45

    def test_spinor_rank(self):
        table = pontryagin_table(12)
        assert spinor_ch(table, 12).constant_term == 2**6
        with pytest.raises(ValueError):
            spinor_ch(pontryagin_table(10, line=True), 10)


@pytest.mark.parametrize("truncation", [8, 12, 16, 20])
class TestExplicitRootOracle:
    def _setup(self, truncation):
        r = truncation // 4 + 1
        roots = GeneratorTable([(f"x{i}", 4) for i in range(1, r + 1)])
        xs = [GradedPoly.generator(roots, f"x{i}", truncation) for i in range(1, r + 1)]
        p_table = pontryagin_table(4 * r)
        images = elementary_images(roots, xs, r, truncation)
        order = truncation // 4
        return r, roots, xs, p_table, images, order

    def test_ahat_oracle(self, truncation):
        r, roots, xs, p_table, images, order = self._setup(truncation)
        engine = multiplicative_genus_eval(p_table, ahat_genus(truncation), "pX", r, truncation)
        taylor = taylor_inverse(sinh_ratio(order), order)
        brute = brute_root_product(taylor, roots, xs, truncation)
        assert engine.substitute(images, truncation) == brute

    def test_spinor_oracle(self, truncation):
        r, roots, xs, p_table, images, order = self._setup(truncation)
        engine = multiplicative_genus_eval(p_table, spinor_genus(truncation), "pX", r, truncation)
        taylor = [2 * c for c in cosh_half(order)]  # each root pair contributes 2*cosh(t/2)
        brute = brute_root_product(taylor, roots, xs, truncation)
        assert engine.substitute(images, truncation) == brute

    def test_detcosh_oracle(self, truncation):
        r, roots, xs, p_table, images, order = self._setup(truncation)
        aux_table = pontryagin_table(4 * r, aux=True)
        engine = aux_bundle_factor(aux_table, "detcosh_V", truncation)
        aux_images = {f"pV{k}": img for k, img in ((k, images[f"pX{k}"]) for k in range(1, r + 1))}
        brute = brute_root_product(cosh_half(order), roots, xs, truncation)
        assert engine.substitute(aux_images, truncation) == brute


class TestHalfAngleSignatureOracle:
    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spinor_density_equals_scaled_half_tanh_genus(self, dim):
        # Ahat(T)*ch(spinor) coincides with 2^(dim/2) * prod (t/2)/tanh(t/2),
        # assembled here from summed log-coefficients as a separate path
        table = pontryagin_table(dim)
        a, c = ahat_genus(dim), cosh_genus(dim)
        lhat = GenusSeries("lhat", tuple(x + y for x, y in zip(a.log_coeffs, c.log_coeffs)), 1)
        left = ahat_form(table, dim) * spinor_ch(table, dim)
        right = multiplicative_genus_eval(table, lhat, "pX", dim // 2, dim) * (2 ** (dim // 2))
        assert left == right


class TestLineFactors:
    def test_half_class_factors(self):
        table = pontryagin_table(10, line=True)
        c = GradedPoly.generator(table, "cL", 10)
        exp_f = aux_bundle_factor(table, "exp_half_c", 10)
        sinh_f = aux_bundle_factor(table, "sinh_half_c", 10)
        cosh_f = aux_bundle_factor(table, "cosh_half_c", 10)
        assert exp_f == cosh_f + sinh_f
        assert sinh_f.coefficient("cL") == Fraction(1, 2)
        assert sinh_f.coefficient("cL^3") == Fraction(1, 48)
        assert cosh_f.constant_term == 1
        assert cosh_f.coefficient("cL^2") == Fraction(1, 8)
        # parity split
        for d in sinh_f.degrees_present():
            assert d % 4 == 2
        for d in cosh_f.degrees_present():
            assert d % 4 == 0
        assert c * 0 + exp_f - exp_f == GradedPoly.zero(table, 10)

    def test_errors(self):
        table = pontryagin_table(8)
        with pytest.raises(ValueError):
            aux_bundle_factor(table, "exp_half_c", 8)  # no cL in a spin table
        with pytest.raises(ValueError):
            aux_bundle_factor(table, "nope", 8)
