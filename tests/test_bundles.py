"""Virtual bundles, lambda-ring operations, theta-power bundle series (as ch)."""

import random
from fractions import Fraction

import pytest

from anomaly.algebra import GeneratorTable, GradedPoly, exp_truncated, pontryagin_table
from anomaly.bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
    tangent_complexification,
    theta_series,
)


def random_bundle(rng, table, truncation, *, rank_span=6):
    """A random virtual bundle from a random Chern character."""
    ch = GradedPoly.constant(table, truncation, rng.randint(-rank_span, rank_span))
    names = list(table.names)
    for _ in range(4):
        expts = tuple(rng.randint(0, 2) for _ in names)
        if table.monomial_degree(expts) == 0 or table.monomial_degree(expts) > truncation:
            continue
        ch = ch + GradedPoly(table, truncation, {expts: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    return VirtualBundle.from_ch(ch)


def eval_poly(poly, values):
    total = Fraction(0)
    for expts, coeff in poly.terms.items():
        prod = coeff
        for name, e in zip(poly.table.names, expts):
            if e:
                prod *= values[name] ** e
        total += prod
    return total


class TestVirtualBundleBasics:
    def test_tangent_complexification_golden(self):
        table = pontryagin_table(8)
        T = tangent_complexification(table, 8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        p2 = GradedPoly.generator(table, "pX2", 8)
        assert T.rank == 8
        assert T.ch() == 8 + p1 + (p1 * p1 - 2 * p2) / 12
        red = T.reduce()
        assert red.rank == 0
        assert red.ch() == p1 + (p1 * p1 - 2 * p2) / 12

    def test_aux_and_line_complexifications(self):
        table = pontryagin_table(8, aux=True)
        V = aux_complexification(table, 8)
        v1 = GradedPoly.generator(table, "pV1", 8)
        v2 = GradedPoly.generator(table, "pV2", 8)
        assert V.rank == 0
        assert V.ch() == v1 + (v1 * v1 - 2 * v2) / 12
        lt = pontryagin_table(10, line=True)
        L = line_real_complexification(lt, 10)
        c = GradedPoly.generator(lt, "cL", 10)
        assert L.rank == 2
        assert L.ch() == 2 + c * c + (c**4) / 12 # 2*cosh(c) to degree 8

    def test_addition_and_tensor(self):
        table = pontryagin_table(8)
        T = tangent_complexification(table, 8)
        assert (T + T).ch() == 2 * T.ch()
        assert (T * T).ch() == T.ch() * T.ch()
        assert (T * 3).ch() == 3 * T.ch()
        assert (T - T).is_zero()


class TestAdamsOperations:
    def test_degree_scaling(self):
        table = pontryagin_table(8)
        red = tangent_complexification(table, 8).reduce()
        psi2 = red.adams(2)
        assert psi2.ch().homogeneous_component(4) == 4 * red.ch().homogeneous_component(4)
        assert psi2.ch().homogeneous_component(8) == 16 * red.ch().homogeneous_component(8)

    def test_composition_and_ring_laws(self):
        rng = random.Random(404)
        table = pontryagin_table(8)
        for _ in range(5):
            x = random_bundle(rng, table, 8)
            y = random_bundle(rng, table, 8)
            assert x.adams(2).adams(3) == x.adams(6)
            assert (x + y).adams(3) == x.adams(3) + y.adams(3)
            assert (x * y).adams(2) == x.adams(2) * y.adams(2)

    def test_on_sum_of_line_bundles(self):
        # over formal roots, psi^k sends each line factor exp(t) to exp(k*t)
        roots = GeneratorTable([("t1", 2), ("t2", 2), ("t3", 2)])
        trunc = 8
        ts = [GradedPoly.generator(roots, f"t{i}", trunc) for i in range(1, 4)]
        bundle = VirtualBundle.from_ch(sum((exp_truncated(t) for t in ts), GradedPoly.zero(roots, trunc)))
        for k in (2, 3):
            expected = sum((exp_truncated(k * t) for t in ts), GradedPoly.zero(roots, trunc))
            assert bundle.adams(k).ch() == expected


class TestLambdaAndSymmetricPowers:
    def test_split_bundle_oracle(self):
        # lambda^2(L1+L2+L3) = L1L2 + L1L3 + L2L3 on a split bundle
        roots = GeneratorTable([("t1", 2), ("t2", 2), ("t3", 2)])
        trunc = 8
        ts = [GradedPoly.generator(roots, f"t{i}", trunc) for i in range(1, 4)]
        lines = [exp_truncated(t) for t in ts]
        bundle = VirtualBundle.from_ch(sum(lines, GradedPoly.zero(roots, trunc)))
        lam2 = sum(
            (exp_truncated(ts[i] + ts[j]) for i in range(3) for j in range(i + 1, 3)),
            GradedPoly.zero(roots, trunc),
        )
        lam3 = exp_truncated(ts[0] + ts[1] + ts[2])
        assert bundle.lambda_power(2).ch() == lam2
        assert bundle.lambda_power(3).ch() == lam3
        assert bundle.lambda_power(4).is_zero()
        # S^2 = sum over unordered pairs with repetition
        sym2 = sum(
            (exp_truncated(ts[i] + ts[j]) for i in range(3) for j in range(i, 3)),
            GradedPoly.zero(roots, trunc),
        )
        assert bundle.sym_power(2).ch() == sym2

    def test_lambda_additivity(self):
        rng = random.Random(777)
        table = pontryagin_table(8)
        for _ in range(4):
            x = random_bundle(rng, table, 8)
            y = random_bundle(rng, table, 8)
            for k in range(1, 4):
                combined = VirtualBundle.zero(table, 8)
                for i in range(k + 1):
                    combined = combined + x.lambda_power(i) * y.lambda_power(k - i)
                assert (x + y).lambda_power(k) == combined

    def test_sym_inverts_lambda(self):
        # S_t(x) * lambda_{-t}(x) = 1, coefficient-wise
        rng = random.Random(888)
        table = pontryagin_table(8)
        x = random_bundle(rng, table, 8)
        for k in range(1, 5):
            acc = VirtualBundle.zero(table, 8)
            for i in range(k + 1):
                acc = acc + x.lambda_power(i) * x.sym_power(k - i) * ((-1) ** i)
            assert acc.is_zero()

    def test_rank_bookkeeping(self):
        table = pontryagin_table(8)
        T = tangent_complexification(table, 8)
        assert T.lambda_power(2).rank == 8 * 7 // 2
        assert T.sym_power(2).rank == 8 * 9 // 2
        assert T.adams(5).rank == 8


# Expected q-coefficients of the theta-power bundles, as combinations of the
# reduced tangent input W: each entry is (coefficient, atoms) with atoms drawn
# from W itself and its exterior/symmetric powers.


def combo_bundle(terms, W):
    acc = VirtualBundle.zero(W.table, W.truncation)
    atoms = {
        "W": lambda: W,
        "L2": lambda: W.lambda_power(2),
        "L3": lambda: W.lambda_power(3),
        "L4": lambda: W.lambda_power(4),
        "S2": lambda: W.sym_power(2),
    }
    for coeff, names in terms:
        prod = atoms[names[0]]()
        for name in names[1:]:
            prod = prod * atoms[name]()
        acc = acc + prod * coeff
    return acc


THETA1_EXPECTED = {
    2: ((2, ("W",)),),
    4: ((2, ("W",)), (1, ("L2",)), (1, ("W", "W")), (1, ("S2",))),
}
THETA2_EXPECTED = {
    1: ((-1, ("W",)),),
    2: ((1, ("W",)), (1, ("L2",))),
    3: ((-1, ("L3",)), (-1, ("W",)), (-1, ("W", "W"))),
    4: ((1, ("L4",)), (1, ("L2", "W")), (1, ("W", "W")), (1, ("S2",)), (1, ("W",))),
}


class TestThetaPowerBundles:
    def setup_method(self):
        self.table = pontryagin_table(8)
        self.TX = tangent_complexification(self.table, 8)
        self.W = self.TX.reduce()

    def test_theta1_golden(self):
        th1 = theta_series("theta1", self.TX, cap=2)
        assert th1.coefficient(0) == VirtualBundle.trivial(self.table, 8, 1).ch()
        for j2, terms in THETA1_EXPECTED.items():
            assert th1.coefficient(j2) == combo_bundle(terms, self.W).ch()
        assert th1.coefficient(1).is_zero() and th1.coefficient(3).is_zero()

    def test_theta2_golden(self):
        th2 = theta_series("theta2", self.TX, cap=2)
        assert th2.coefficient(0) == VirtualBundle.trivial(self.table, 8, 1).ch()
        for j2, terms in THETA2_EXPECTED.items():
            assert th2.coefficient(j2) == combo_bundle(terms, self.W).ch()

    def test_theta3_is_half_shift_of_theta2(self):
        th2 = theta_series("theta2", self.TX, cap=2)
        th3 = theta_series("theta3", self.TX, cap=2)
        assert th2.tau_shift_half() == th3
        for j2, terms in THETA2_EXPECTED.items():
            sign = -1 if j2 % 2 else 1
            assert th3.coefficient(j2) == combo_bundle(terms, self.W).ch() * sign

    def test_goldens_numerically_on_random_values(self):
        # the same virtual-bundle identities, read off through ch at random
        # rational generator values
        rng = random.Random(1234)
        values = {"pX1": Fraction(rng.randint(1, 9), 2), "pX2": Fraction(rng.randint(1, 9), 3)}
        th1 = theta_series("theta1", self.TX, cap=2)
        th2 = theta_series("theta2", self.TX, cap=2)
        for j2, terms in THETA1_EXPECTED.items():
            assert eval_poly(th1.coefficient(j2), values) == eval_poly(combo_bundle(terms, self.W).ch(), values)
        for j2, terms in THETA2_EXPECTED.items():
            assert eval_poly(th2.coefficient(j2), values) == eval_poly(combo_bundle(terms, self.W).ch(), values)

    def test_aux_theta_coefficients(self):
        table = pontryagin_table(8, aux=True)
        TX = tangent_complexification(table, 8)
        V = aux_complexification(table, 8)
        thV = theta_series("thetaV", TX, V, cap=2)
        T = TX.reduce()
        # q^1: T + 2*lam^2(V) - V(x)V + V
        expected_q1 = T + V.lambda_power(2) * 2 - V * V + V
        assert thV.coefficient_q(1) == expected_q1.ch()
        assert thV.coefficient(1).is_zero()  # no half powers: the two half-step factors cancel

    def test_line_theta_coefficients(self):
        table = pontryagin_table(10, line=True)
        TX = tangent_complexification(table, 10)
        L = line_real_complexification(table, 10)
        thL = theta_series("thetaL", TX, L, cap=2)
        T, W = TX.reduce(), L.reduce()
        assert thL.coefficient_q(1) == (T - W).ch()
        expected_q2 = T.sym_power(2) + T + W.lambda_power(2) - W - T * W
        assert thL.coefficient_q(2) == expected_q2.ch()

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_series("theta9", self.TX, cap=2)
        with pytest.raises(ValueError):
            theta_series("thetaV", self.TX, cap=2)  # missing V
