"""q-series in half-integer powers, coefficient rings, Eisenstein goldens."""

import random
from fractions import Fraction

import pytest

from anomaly.algebra import GeneratorTable, GradedPoly, pontryagin_table
from anomaly.qseries import (
    PolyRing,
    QHalfSeries,
    RATIONALS,
    RingMismatchError,
    eisenstein,
    modular_basis,
    qseries_exp,
)


def random_series(rng, cap):
    s = QHalfSeries.zero(RATIONALS, cap)
    for j2 in range(2 * cap + 1):
        if rng.random() < 0.6:
            s = s + QHalfSeries.q_power(RATIONALS, cap, j2, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return s


def sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class TestRationalSeries:
    def test_product_golden(self):
        one_plus = QHalfSeries.one(RATIONALS, 3) + QHalfSeries.q_power(RATIONALS, 3, 2)
        one_minus = QHalfSeries.one(RATIONALS, 3) - QHalfSeries.q_power(RATIONALS, 3, 2)
        prod = one_plus * one_minus
        assert prod == QHalfSeries.one(RATIONALS, 3) - QHalfSeries.q_power(RATIONALS, 3, 4)

    def test_half_power_bookkeeping(self):
        s = QHalfSeries.q_power(RATIONALS, 3, 1)  # q^(1/2)
        assert not s.integer_powers_only()
        assert (s * s).integer_powers_only()
        assert s.coefficient(1) == 1
        assert s.coefficient_q(1) == 0

    def test_tau_shift_is_ring_involution(self):
        rng = random.Random(2718)
        a = random_series(rng, 4)
        b = random_series(rng, 4)
        assert a.tau_shift_half().tau_shift_half() == a
        assert (a * b).tau_shift_half() == a.tau_shift_half() * b.tau_shift_half()
        half = QHalfSeries.q_power(RATIONALS, 4, 1)
        assert half.tau_shift_half() == -half

    def test_render(self):
        s = (
            QHalfSeries.one(RATIONALS, 2)
            + QHalfSeries.q_power(RATIONALS, 2, 1, Fraction(-1, 2))
            + QHalfSeries.q_power(RATIONALS, 2, 4, 3)
        )
        assert s.render() == "1 - 1/2*q^(1/2) + 3*q^2"


class TestPolynomialCoefficients:
    def test_ring_mismatch_requires_promotion(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        a = QHalfSeries.one(RATIONALS, 3)
        b = QHalfSeries.one(ring, 3)
        with pytest.raises(RingMismatchError, match="promotion"):
            a + b
        assert a.promote(ring) + b == b + b

    def test_coefficient_below_the_ring_truncation_rejected(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        low = GradedPoly.generator(table, "pX1", 4)
        # pX1 + pX1*q with pX1 cut at degree 4 would square to 0 in a ring
        # that keeps degree 8; such a coefficient is not in the ring.
        with pytest.raises(RingMismatchError, match="below the ring"):
            ring.coerce(low)
        with pytest.raises(RingMismatchError, match="below the ring"):
            QHalfSeries(ring, 3, {0: low, 2: low})
        p1 = GradedPoly.generator(table, "pX1", 8)
        s = QHalfSeries(ring, 3, {0: p1, 2: p1})
        assert (s * s).coefficient(0) == p1 * p1

    def test_coefficient_above_the_ring_truncation_is_cut(self):
        table = pontryagin_table(12)
        ring = PolyRing(table, 8)
        high = GradedPoly.generator(table, "pX1", 12) ** 3 + GradedPoly.generator(table, "pX2", 12)
        s = QHalfSeries(ring, 1, {1: high})
        assert s.coefficient(1) == GradedPoly.generator(table, "pX2", 8)
        assert ring.coerce(high).truncation == 8

    def test_qseries_exp_homomorphism(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        p2 = GradedPoly.generator(table, "pX2", 8)
        x = QHalfSeries.q_power(ring, 3, 2, p1) + QHalfSeries.q_power(ring, 3, 1, p2)
        y = QHalfSeries.q_power(ring, 3, 2, 1) + QHalfSeries.zero(ring, 3)
        y = y + QHalfSeries.q_power(ring, 3, 0, p1)  # nilpotent constant term is fine
        assert qseries_exp(x + y) == qseries_exp(x) * qseries_exp(y)

    def test_qseries_exp_golden(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        e = qseries_exp(QHalfSeries.q_power(ring, 3, 2, p1))
        assert e.coefficient_q(0) == ring.one()
        assert e.coefficient_q(1) == p1
        assert e.coefficient_q(2) == p1 * p1 / 2
        assert e.coefficient_q(3) == GradedPoly.zero(table, 8)  # p1^3 truncates away

    def test_cut_keeps_low_degrees_and_rekeys_by_name(self):
        big = pontryagin_table(12, aux=True)  # pX1..pX3, pV1..pV3
        small = pontryagin_table(8, aux=True)  # pX1, pX2, pV1, pV2: pV* sit at other digits
        ring = PolyRing(small, 8)

        def poly(table, trunc, text):
            return GradedPoly(table, trunc, {table.parse_monomial(m): Fraction(c) for m, c in text.items()})

        s = QHalfSeries(PolyRing(big, 12), 2, {
            0: poly(big, 12, {"1": 3, "pV1": -2, "pX1*pV1": Fraction(1, 6), "pX3": 5, "pV1^3": 1}),
            3: poly(big, 12, {"pV2": 4, "pX1*pV1*pV1": 7}),
        })
        cut = s.cut(ring)
        assert cut.ring == ring and cut.cap == 2
        assert cut == QHalfSeries(ring, 2, {
            0: poly(small, 8, {"1": 3, "pV1": -2, "pX1*pV1": Fraction(1, 6)}),
            3: poly(small, 8, {"pV2": 4}),
        })
        assert cut.coeffs[0].coefficient("pX1*pV1") == Fraction(1, 6)
        assert cut.coeffs[3].coefficient("pV2") == 4
        assert s.cut(s.ring) == s

    def test_cut_rejects_a_term_the_target_table_lacks(self):
        big = pontryagin_table(12)
        s = QHalfSeries(PolyRing(big, 12), 1, {2: GradedPoly.generator(big, "pX3", 12)})
        with pytest.raises(ValueError, match="'pX3'"):
            s.cut(PolyRing(pontryagin_table(8), 12))
        assert s.cut(PolyRing(pontryagin_table(8), 8)).is_zero()  # pX3 has degree 12 > 8: cut, not carried

    def test_cut_rejects_a_generator_of_another_degree(self):
        source, target = GeneratorTable([("a", 2), ("b", 4)]), GeneratorTable([("a", 4)])
        s = QHalfSeries(PolyRing(source, 8), 1, {2: GradedPoly.generator(source, "a", 8)})
        with pytest.raises(ValueError, match="'a'"):
            s.cut(PolyRing(target, 8))

    def test_cut_onto_a_larger_table_is_the_embedding(self):
        small, big = pontryagin_table(8), pontryagin_table(8, aux=True)

        def series(table):
            return QHalfSeries(PolyRing(table, 8), 2, {0: 1, 3: GradedPoly.generator(table, "pX2", 8) / 5})

        assert series(small).cut(PolyRing(big, 8)) == series(big)

    def test_cut_cannot_raise_the_truncation(self):
        table = pontryagin_table(12)
        s = QHalfSeries.one(PolyRing(table, 8), 1)
        with pytest.raises(ValueError, match="cannot cut"):
            s.cut(PolyRing(table, 12))
        with pytest.raises(RingMismatchError):
            QHalfSeries.one(RATIONALS, 1).cut(PolyRing(table, 8))

    def test_qseries_exp_needs_nilpotent_start(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        with pytest.raises(ValueError):
            qseries_exp(QHalfSeries.one(ring, 3))


class TestEisenstein:
    def test_weight4_golden(self):
        e4 = eisenstein(4, 3)
        assert [e4.coefficient_q(n) for n in range(4)] == [1, 240, 2160, 6720]

    def test_weight6_golden(self):
        e6 = eisenstein(6, 3)
        assert [e6.coefficient_q(n) for n in range(4)] == [1, -504, -16632, -122976]

    def test_divisor_sum_cross_check(self):
        e4 = eisenstein(4, 8)
        e6 = eisenstein(6, 8)
        for n in range(1, 9):
            assert e4.coefficient_q(n) == 240 * sigma(3, n)
            assert e6.coefficient_q(n) == -504 * sigma(5, n)

    def test_weight8_basis_golden(self):
        e8 = modular_basis(8, 3)
        assert [e8.coefficient_q(n) for n in range(4)] == [1, 480, 61920, 1050240]

    def test_weight10_basis_golden(self):
        e10 = modular_basis(10, 3)
        assert [e10.coefficient_q(n) for n in range(4)] == [1, -264, -135432, -5196576]
        # the value -117288 sometimes quoted for the q^2 coefficient is not
        # reachable by exact arithmetic: q^2 of E4*E6 is forced to
        # 240*(-504) + (-16632) + 2160 = -135432
        assert e10.coefficient_q(2) != -117288
        assert 240 * (-504) + (-16632) + 2160 == -135432

    def test_low_weights_are_eisenstein(self):
        assert modular_basis(4, 3) == eisenstein(4, 3)
        assert modular_basis(6, 3) == eisenstein(6, 3)
        assert modular_basis(8, 4) == eisenstein(4, 4) * eisenstein(4, 4)
        assert modular_basis(10, 4) == eisenstein(4, 4) * eisenstein(6, 4)

    def test_unsupported_weights_rejected(self):
        with pytest.raises(ValueError):
            eisenstein(8, 3)
        with pytest.raises(ValueError):
            modular_basis(12, 3)
