"""q-series in half-integer powers, coefficient rings, Eisenstein goldens."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from anomaly.verifier import INSUFFICIENT_ORDER, eisenstein_fit
from oracles import q_power


def random_series(rng, cap):
    s = QHalfSeries.zero(RATIONALS, cap)
    for j2 in range(2 * cap + 1):
        if rng.random() < 0.6:
            s = s + q_power(RATIONALS, cap, j2, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return s


def sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class TestRationalSeries:
    def test_product_golden(self):
        one_plus = QHalfSeries.one(RATIONALS, 3) + q_power(RATIONALS, 3, 2)
        one_minus = QHalfSeries.one(RATIONALS, 3) - q_power(RATIONALS, 3, 2)
        prod = one_plus * one_minus
        assert prod == QHalfSeries.one(RATIONALS, 3) - q_power(RATIONALS, 3, 4)

    def test_half_power_bookkeeping(self):
        s = q_power(RATIONALS, 3, 1)  # q^(1/2)
        assert not s.integer_powers_only()
        assert (s * s).integer_powers_only()
        assert s.coefficient(1).constant_term == 1
        assert s.coefficient_q(1).is_zero()

    def test_tau_shift_is_ring_involution(self):
        rng = random.Random(2718)
        a = random_series(rng, 4)
        b = random_series(rng, 4)
        assert a.tau_shift_half().tau_shift_half() == a
        assert (a * b).tau_shift_half() == a.tau_shift_half() * b.tau_shift_half()
        half = q_power(RATIONALS, 4, 1)
        assert half.tau_shift_half() == -half

    def test_render(self):
        s = (
            QHalfSeries.one(RATIONALS, 2)
            + q_power(RATIONALS, 2, 1, Fraction(-1, 2))
            + q_power(RATIONALS, 2, 4, 3)
        )
        assert s.render() == "1 - 1/2*q^(1/2) + 3*q^2"


class TestOneRing:
    """A rational series is a series over the empty table, and the ring's operations apply to it."""

    def test_rationals_are_the_empty_table(self):
        empty = GeneratorTable(())
        assert RATIONALS == PolyRing(empty, 0)
        assert eisenstein(4, 2).coefficient_q(1) == GradedPoly.constant(empty, 0, 240)

    def test_exp_of_a_rational_series(self):
        e = qseries_exp(q_power(RATIONALS, 3, 2))
        assert e == QHalfSeries(RATIONALS, 3, {0: 1, 2: 1, 4: Fraction(1, 2), 6: Fraction(1, 6)})

    def test_fit_of_a_rational_series(self):
        fit = eisenstein_fit(eisenstein(4, 3) * 3, 4)
        assert fit.passed and [lam.constant_term for lam in fit.lam] == [3]

    def test_promote_refuses_a_polynomial_series(self):
        ring = PolyRing(pontryagin_table(8), 8)
        with pytest.raises(RingMismatchError, match="empty table"):
            QHalfSeries.one(ring, 3).promote(ring)

    def test_coerce_refuses_a_polynomial_over_another_table(self):
        ring = PolyRing(pontryagin_table(8), 8)
        with pytest.raises(RingMismatchError, match="different generator table"):
            ring.coerce(GradedPoly.one(pontryagin_table(8, aux=True), 8))

    def test_a_fit_refuses_a_half_integer_power(self):
        with pytest.raises(ValueError, match="half-integer"):
            eisenstein_fit(QHalfSeries(RATIONALS, 2, {0: 1, 1: 1}), 4)

    def test_different_tables_do_not_meet(self):
        a = QHalfSeries.one(PolyRing(pontryagin_table(8), 8), 3)
        b = QHalfSeries.one(PolyRing(pontryagin_table(12), 8), 3)
        with pytest.raises(RingMismatchError, match="different tables"):
            a * b


class TestQExponentsAreInts:
    """A q-exponent is an int, not truncated or parsed into one."""

    @pytest.mark.parametrize("j2", [1.5, 1.9, 2.0, "2", True], ids=repr)
    def test_constructor(self, j2):
        with pytest.raises(ValueError, match="integers"):
            QHalfSeries(RATIONALS, 2, {j2: 7, 2: 1})
        with pytest.raises(ValueError, match="integers"):
            QHalfSeries(PolyRing(pontryagin_table(8), 8), 2, {j2: 7})

    def test_a_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="negative q-exponent"):
            QHalfSeries(RATIONALS, 2, {-1: 7, 2: 1})

    @pytest.mark.parametrize("j2", [1.5, 1.9, 2.0, "2", True], ids=repr)
    def test_coefficient(self, j2):
        s = QHalfSeries(RATIONALS, 2, {1: 7, 2: 1})
        assert s.coefficient(1).constant_term == 7
        assert s.coefficient_q(1).constant_term == 1
        with pytest.raises(ValueError, match="integers"):
            s.coefficient(j2)
        with pytest.raises(ValueError, match="integers"):
            s.coefficient_q(j2)


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
        x = q_power(ring, 3, 2, p1) + q_power(ring, 3, 1, p2)
        y = q_power(ring, 3, 2, 1) + QHalfSeries.zero(ring, 3)
        y = y + q_power(ring, 3, 0, p1)  # nilpotent constant term is fine
        assert qseries_exp(x + y) == qseries_exp(x) * qseries_exp(y)

    def test_qseries_exp_golden(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        e = qseries_exp(q_power(ring, 3, 2, p1))
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
        with pytest.raises(ValueError, match="cannot cut"):  # a rational series sits at truncation 0
            QHalfSeries.one(RATIONALS, 1).cut(PolyRing(table, 8))

    def test_qseries_exp_needs_nilpotent_start(self):
        table = pontryagin_table(8)
        ring = PolyRing(table, 8)
        with pytest.raises(ValueError):
            qseries_exp(QHalfSeries.one(ring, 3))


class TestEisenstein:
    def test_weight4_golden(self):
        e4 = eisenstein(4, 3)
        assert [e4.coefficient_q(n).constant_term for n in range(4)] == [1, 240, 2160, 6720]

    def test_weight6_golden(self):
        e6 = eisenstein(6, 3)
        assert [e6.coefficient_q(n).constant_term for n in range(4)] == [1, -504, -16632, -122976]

    def test_divisor_sum_cross_check(self):
        e4 = eisenstein(4, 8)
        e6 = eisenstein(6, 8)
        for n in range(1, 9):
            assert e4.coefficient_q(n).constant_term == 240 * sigma(3, n)
            assert e6.coefficient_q(n).constant_term == -504 * sigma(5, n)

    def test_weight8_basis_golden(self):
        (e8,) = modular_basis(8, 3)
        assert [e8.coefficient_q(n).constant_term for n in range(4)] == [1, 480, 61920, 1050240]

    def test_weight10_basis_golden(self):
        (e10,) = modular_basis(10, 3)
        assert [e10.coefficient_q(n).constant_term for n in range(4)] == [1, -264, -135432, -5196576]
        # the value -117288 sometimes quoted for the q^2 coefficient is not
        # reachable by exact arithmetic: q^2 of E4*E6 is forced to
        # 240*(-504) + (-16632) + 2160 = -135432
        assert e10.coefficient_q(2).constant_term != -117288
        assert 240 * (-504) + (-16632) + 2160 == -135432

    def test_low_weights_are_eisenstein(self):
        assert modular_basis(4, 3) == (eisenstein(4, 3),)
        assert modular_basis(6, 3) == (eisenstein(6, 3),)
        assert modular_basis(8, 4) == (eisenstein(4, 4) * eisenstein(4, 4),)
        assert modular_basis(10, 4) == (eisenstein(4, 4) * eisenstein(6, 4),)

    def test_unsupported_weights_rejected(self):
        with pytest.raises(ValueError):
            eisenstein(8, 3)
        for weight in (2, 7):  # no monomial E4^a * E6^b has weight 2 or an odd weight
            with pytest.raises(ValueError, match="no modular basis"):
                modular_basis(weight, 3)


def constants(form, cap):
    """The q^0..q^cap coefficients of a rational series, as Fractions."""
    return [form.coefficient_q(n).constant_term for n in range(cap + 1)]


class TestEchelonBasis:
    """`modular_basis` is the echelon (Miller) basis f_i = q^i + O(q^d) of M_k,
    checked against values from outside the package."""

    def test_weight12_is_leech_theta_and_delta(self):
        theta_leech, delta = modular_basis(12, 4)
        # Conway-Sloane, SPLAG ch. 4: the Leech lattice's theta series
        assert constants(theta_leech, 4) == [1, 0, 196560, 16773120, 398034000]
        # Ramanujan's tau(n)
        assert constants(delta, 4) == [0, 1, -24, 252, -1472]

    def test_weight14_is_e4_squared_e6(self):
        (form,) = modular_basis(14, 3)
        assert constants(form, 3) == [1, -24, -196632, -38263776]

    def test_weight16_second_form(self):
        _, f1 = modular_basis(16, 3)
        assert constants(f1, 3) == [0, 1, 216, -3348]

    @pytest.mark.parametrize("weight", [0, 2, 3, -4])
    def test_weights_without_a_basis_are_rejected(self, weight):
        with pytest.raises(ValueError, match="no modular basis"):
            modular_basis(weight, 3)

    def test_a_pivot_past_the_cap_is_cut_away(self):
        f0, f1 = modular_basis(12, 0)
        assert f0 == QHalfSeries.one(RATIONALS, 0)
        assert f1.is_zero() and f1.cap == 0

    @settings(deadline=None)
    @given(st.integers(2, 20).map(lambda n: 2 * n), st.integers(0, 5))
    def test_echelon_shape_and_integrality(self, weight, cap):
        basis = modular_basis(weight, cap)
        d = len(basis)
        assert d == weight // 12 + (0 if weight % 12 == 2 else 1)
        for i, form in enumerate(basis):
            assert form.cap == cap
            assert constants(form, min(d - 1, cap)) == [int(i == j) for j in range(min(d, cap + 1))]
            assert all(value.denominator == 1 for value in constants(form, cap))


class TestEchelonFit:
    """A fit at a weight with two basis forms reads lam off q^0 and q^1 and compares the rest."""

    @staticmethod
    def series(cap):
        f0, delta = modular_basis(12, cap)
        return f0 * 3 - delta * 5

    def test_two_coefficients_read_back(self):
        fit = eisenstein_fit(self.series(4), 12)
        assert [lam.constant_term for lam in fit.lam] == [3, -5]
        assert fit.passed and fit.compared == 3

    def test_order_one_compares_nothing(self):
        fit = eisenstein_fit(self.series(1), 12)
        assert fit.compared == 0
        assert fit.render_residual() == INSUFFICIENT_ORDER
        assert not fit.passed

    def test_a_perturbed_coefficient_fails(self):
        bump = q_power(RATIONALS, 4, 6)
        fit = eisenstein_fit(self.series(4) + bump, 12)
        assert not fit.passed and fit.residual == bump


class TestMemoizedCapsAreChecked:
    """A memoized constructor checks its cap on every call: a float or a bool
    cap is the package's ValueError, whether or not an equal int cap is
    already cached."""

    BAD_CAPS = [(3, 3.0), (1, True), (0, False), (2, "2")]

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        eisenstein.cache_clear()
        modular_basis.cache_clear()
        yield
        eisenstein.cache_clear()
        modular_basis.cache_clear()

    @pytest.mark.parametrize("good, bad", BAD_CAPS, ids=repr)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("constructor, weight", [(eisenstein, 4), (eisenstein, 6), (modular_basis, 8), (modular_basis, 10)])
    def test_bad_cap_rejected_in_either_cache_order(self, constructor, weight, warm, good, bad):
        if warm:
            expected = constructor(weight, good)
        with pytest.raises(ValueError, match="q-cap"):
            constructor(weight, bad)
        if not warm:
            expected = constructor(weight, good)
        forms = expected if constructor is modular_basis else (expected,)
        assert constructor(weight, good) is expected and [form.cap for form in forms] == [good]

    def test_negative_cap_rejected(self):
        for constructor in (eisenstein, modular_basis):
            with pytest.raises(ValueError, match="q-cap"):
                constructor(4, -1)

    BAD_WEIGHTS = [
        (eisenstein, 4, 4.0),
        (eisenstein, 4, True),
        (modular_basis, 4, 4.0),
        (modular_basis, 8, 8.0),
        (modular_basis, 8, True),
    ]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "constructor, good, bad", BAD_WEIGHTS, ids=[f"{c.__name__}-{good}-{bad!r}" for c, good, bad in BAD_WEIGHTS]
    )
    def test_bad_weight_rejected_in_either_cache_order(self, constructor, good, bad, warm):
        """A float or a bool weight is the package's ValueError, never the form of an equal int."""
        if warm:
            expected = constructor(good, 1)
        with pytest.raises(ValueError, match="weight"):
            constructor(bad, 1)
        if not warm:
            expected = constructor(good, 1)
        assert constructor(good, 1) is expected
