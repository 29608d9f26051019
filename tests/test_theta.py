"""Theta quotients, the Jacobi product identity, and the root-product bridge."""

from fractions import Fraction
from math import factorial

import pytest

from anomaly.algebra import GeneratorTable, GradedPoly, pontryagin_table
from anomaly.genera import aux_bundle_factor
from anomaly.qseries import PolyRing, QHalfSeries, qseries_exp
from anomaly.theta import (
    TwoVarSeries,
    _bridged_log,
    jacobi_identity_residual,
    line_quotient_evaluation,
    q_series_via_theta,
    symmetric_quotient_product,
    theta_quotient,
)
from oracles import naive_substitute


class TestQuotientSlices:
    def test_A_constant_slice_is_ahat_factor(self):
        A = theta_quotient("A", 8, 2)
        golden = {0: 1, 2: Fraction(-1, 24), 4: Fraction(7, 5760), 6: Fraction(-31, 967680)}
        for n, value in golden.items():
            assert A.coefficient(n, 0) == value
        assert A.coefficient(1, 0) == 0

    def test_A_first_slice(self):
        A = theta_quotient("A", 6, 2)
        assert A.coefficient(2, 2) == 1
        assert A.coefficient(4, 2) == Fraction(1, 24)
        assert A.coefficient(6, 2) == Fraction(1, 1920)

    def test_B1_constant_slice_is_cosh(self):
        B1 = theta_quotient("B1", 8, 2)
        golden = {0: 1, 2: Fraction(1, 8), 4: Fraction(1, 384), 6: Fraction(1, 46080)}
        for n, value in golden.items():
            assert B1.coefficient(n, 0) == value

    def test_B2_B3_constant_slices_are_one(self):
        for kind in ("B2", "B3"):
            quot = theta_quotient(kind, 6, 2)
            assert quot.coefficient(0, 0) == 1
            for n in range(1, 7):
                assert quot.coefficient(n, 0) == 0

    def test_L_constant_slice_is_sinh(self):
        L = theta_quotient("L", 7, 2)
        golden = {1: Fraction(1, 2), 3: Fraction(1, 48), 5: Fraction(1, 3840), 7: Fraction(1, 645120)}
        for n, value in golden.items():
            assert L.coefficient(n, 0) == value

    def test_parities(self):
        for kind, tcap, parity in (("A", 6, 0), ("B1", 6, 0), ("B2", 6, 0), ("B3", 6, 0), ("L", 7, 1)):
            assert {n % 2 for n, _ in theta_quotient(kind, tcap, 2).coeffs} <= {parity}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            theta_quotient("Z", 6, 2)


class TestHalfShiftSwap:
    def test_B2_B3_swap_through_high_order(self):
        b2 = theta_quotient("B2", 10, 5)
        b3 = theta_quotient("B3", 10, 5)
        assert b2.tau_shift_half() == b3
        assert b3.tau_shift_half() == b2

    def test_A_B1_invariant(self):
        for kind in ("A", "B1"):
            quot = theta_quotient(kind, 6, 3)
            assert quot.tau_shift_half() == quot


def int_mul(a, b, cap2):
    out = [0] * (cap2 + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j <= cap2 and bj:
                    out[i + j] += ai * bj
    return out


def int_factor(pairs, cap2):
    """Product of (1 + sign * q^(j2/2)) factors given as (j2, sign) pairs."""
    out = [0] * (cap2 + 1)
    out[0] = 1
    for j2, sign in pairs:
        factor = [0] * (cap2 + 1)
        factor[0] = 1
        if j2 <= cap2:
            factor[j2] = sign
        out = int_mul(out, factor, cap2)
    return out


class TestJacobiIdentity:
    def test_engine_residual_vanishes(self):
        assert jacobi_identity_residual(10).is_zero()

    def test_independent_integer_oracle(self):
        # prod (1-q^j)^3 = t1 * t2 * t3 with
        #   t1 = prod (1-q^j)(1+q^j)^2
        #   t2 = prod (1-q^j)(1-q^(j-1/2))^2
        #   t3 = prod (1-q^j)(1+q^(j-1/2))^2
        # checked in plain integer convolutions on doubled exponents
        N = 10
        cap2 = 2 * N
        js = range(1, N + 1)
        eta3 = int_factor([(2 * j, -1) for j in js] * 3, cap2)
        t1 = int_factor([(2 * j, -1) for j in js] + [(2 * j, +1) for j in js] * 2, cap2)
        t2 = int_factor([(2 * j, -1) for j in js] + [(2 * j - 1, -1) for j in js] * 2, cap2)
        t3 = int_factor([(2 * j, -1) for j in js] + [(2 * j - 1, +1) for j in js] * 2, cap2)
        rhs = int_mul(int_mul(t1, t2, cap2), t3, cap2)
        assert eta3 == rhs

    def test_oracle_matches_engine_termwise(self):
        N = 6
        cap2 = 2 * N
        residual = jacobi_identity_residual(N)
        for j2 in range(cap2 + 1):
            assert residual.coefficient(j2) == 0


class TestRootProductBridge:
    def test_symmetric_product_against_explicit_roots(self):
        # two formal root pairs: substitute pXk -> e_k(x1, x2) and compare with
        # the literal per-root product of the quotient
        trunc, cap = 8, 2
        roots = GeneratorTable([("x1", 4), ("x2", 4)])
        x1 = GradedPoly.generator(roots, "x1", trunc)
        x2 = GradedPoly.generator(roots, "x2", trunc)
        images = {"pX1": x1 + x2, "pX2": x1 * x2}
        p_table = pontryagin_table(8)
        root_ring = PolyRing(roots, trunc)
        for kind in ("A", "B1", "B2", "B3"):
            quot = theta_quotient(kind, trunc, cap)
            engine = symmetric_quotient_product(quot, p_table, "pX", trunc, cap)
            subbed = QHalfSeries(root_ring, cap, {j2: naive_substitute(p, images, roots) for j2, p in engine.coeffs.items()})
            brute = QHalfSeries.one(root_ring, cap)
            for x in (x1, x2):
                factor = QHalfSeries.zero(root_ring, cap)
                for (n, j2), coeff in sorted(quot.coeffs.items()):
                    if j2 > 2 * cap:
                        continue
                    term = GradedPoly.constant(roots, trunc, coeff) * x ** (n // 2)
                    factor = factor + QHalfSeries.q_power(root_ring, cap, j2, term)
                brute = brute * factor
            assert subbed == brute

    def test_odd_quotient_rejected(self):
        with pytest.raises(ValueError):
            symmetric_quotient_product(theta_quotient("L", 7, 2), pontryagin_table(8), "pX", 8, 2)


class TestLineEvaluation:
    def test_constant_and_first_slices(self):
        table = pontryagin_table(10, line=True)
        L = theta_quotient("L", 9, 2)
        series = line_quotient_evaluation(L, table, 10, 2)
        sinh_f = aux_bundle_factor(table, "sinh_half_c", 10)
        assert series.coefficient_q(0) == sinh_f
        # q^1 slice of the L quotient is -4 sinh^3(t/2)
        assert series.coefficient_q(1) == -4 * sinh_f**3
        assert series.integer_powers_only()


class TestCaseSeriesViaTheta:
    def test_unknown_case(self):
        with pytest.raises(ValueError):
            q_series_via_theta(pontryagin_table(8), "spin_x", 8, 2)

    def test_spin_series_has_integer_powers(self):
        series = q_series_via_theta(pontryagin_table(8), "spin", 8, 2)
        assert series.integer_powers_only()
        # q^0 constant: the three sectors each contribute 1, scaled by 2^(dim/2)
        assert series.coefficient_q(0).constant_term == 3 * 2**4


def b3_oracle(tcap, cap):
    """B3 from its own closed form, the construction the engine dropped: the
    t^(2m) q^(j2/2) coefficient of log B3 is 2/(2m)! times
    sum_{d | j2, j2/d odd} (-1)^(d+1) d^(2m-1), and B3 is its exp."""
    coeffs = {}
    for j2 in range(1, 2 * cap + 1):
        divisors = [d for d in range(1, j2 + 1) if j2 % d == 0 and (j2 // d) % 2]
        for m in range(1, tcap // 2 + 1):
            total = sum((-1) ** (d + 1) * d ** (2 * m - 1) for d in divisors)
            if total:
                coeffs[(2 * m, j2)] = Fraction(2 * total, factorial(2 * m))
    return TwoVarSeries(tcap, cap, coeffs).exp()


class TestHalfPeriodShift:
    """The theta route takes B3 and the third spin sector as half-period shifts
    of B2 and of the second sector; the oracle is the dropped B3 divisor sum."""

    CAP = 5

    def test_B3_quotient_matches_its_own_divisor_sum(self):
        for tcap in (6, 10):
            oracle = b3_oracle(tcap, self.CAP)
            assert theta_quotient("B3", tcap, self.CAP) == oracle
            assert theta_quotient("B3", tcap, self.CAP).log() == oracle.log()

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_third_sector_is_the_shift(self, dim):
        table, tcap, cap = pontryagin_table(dim), dim // 2, self.CAP
        log_a = _bridged_log(theta_quotient("A", tcap, cap), table, "pX", dim, cap)
        sector2 = qseries_exp(log_a + _bridged_log(theta_quotient("B2", tcap, cap), table, "pX", dim, cap))
        sector3 = qseries_exp(log_a + _bridged_log(b3_oracle(tcap, cap), table, "pX", dim, cap))
        assert sector3 == sector2.tau_shift_half()
        sector1 = qseries_exp(log_a + _bridged_log(theta_quotient("B1", tcap, cap), table, "pX", dim, cap))
        assert q_series_via_theta(table, "spin", dim, cap) == (sector1 + sector2 + sector3).scale(2 ** (dim // 2))

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_v_B3_log_is_the_shift(self, dim):
        table, tcap, cap = pontryagin_table(dim, aux=True), dim // 2, self.CAP

        def bridged(quotient, family):
            return _bridged_log(quotient, table, family, dim, cap)

        b2 = bridged(theta_quotient("B2", tcap, cap), "pV")
        b3 = bridged(b3_oracle(tcap, cap), "pV")
        assert b3 == b2.tau_shift_half()
        log = bridged(theta_quotient("A", tcap, cap), "pX") + bridged(theta_quotient("B1", tcap, cap), "pV") + b2 + b3
        assert q_series_via_theta(table, "spin_v", dim, cap) == qseries_exp(log)
