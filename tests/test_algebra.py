"""Exact graded-polynomial layer: tables, arithmetic, Newton power sums."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from anomaly.algebra import (
    GeneratorTable,
    GradedPoly,
    exp_truncated,
    log_truncated,
    pontryagin_table,
    power_sum_in_pontryagin,
)
from oracles import naive_substitute


def random_poly(rng, table, truncation, *, terms=6, span=2):
    """A random sparse polynomial with small rational coefficients."""
    poly = GradedPoly.constant(table, truncation, Fraction(rng.randint(-4, 4)))
    names = list(table.names)
    for _ in range(terms):
        expts = [0] * len(names)
        for i in range(len(names)):
            expts[i] = rng.randint(0, span)
        if table.monomial_degree(tuple(expts)) > truncation:
            continue
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        term = GradedPoly(table, truncation, {tuple(expts): coeff})
        poly = poly + term
    return poly


def eval_poly(poly, values):
    """Numeric evaluation of a polynomial at rational generator values."""
    total = Fraction(0)
    for expts, coeff in poly.terms.items():
        prod = coeff
        for name, e in zip(poly.table.names, expts):
            if e:
                prod *= values[name] ** e
        total += prod
    return total


class TestGeneratorTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            GeneratorTable([("pX1", 4), ("pX1", 8)])

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="positive even degree"):
            GeneratorTable([("pX1", 3)])

    @pytest.mark.parametrize("degree", [4.5, 4.0, "4", True], ids=repr)
    def test_non_int_degree_rejected(self, degree):
        """A degree is an int, not truncated or parsed into one."""
        with pytest.raises(ValueError, match="positive even degree"):
            GeneratorTable([("a", degree)])

    def test_degree_two_reserved_for_line_class(self):
        with pytest.raises(ValueError, match="cL"):
            GeneratorTable([("cL", 2), ("t1", 2)])
        # degree-2 generators without cL are fine (formal root tables)
        table = GeneratorTable([("t1", 2), ("t2", 2)])
        assert table.degrees[table.index("t2")] == 2

    def test_pontryagin_families(self):
        spin = pontryagin_table(8)
        assert spin.names == ("pX1", "pX2")
        aux = pontryagin_table(12, aux=True)
        assert aux.names == ("pX1", "pX2", "pX3", "pV1", "pV2", "pV3")
        assert aux.family_size("pV") == 3
        line = pontryagin_table(10, line=True)
        assert "cL" in line and line.degrees[line.index("cL")] == 2
        with pytest.raises(ValueError):
            pontryagin_table(2)

    def test_pontryagin_tables_are_interned(self):
        """Equal generators give one instance, however the arguments are spelled."""
        spin = pontryagin_table(8)
        assert pontryagin_table(8, aux=False, line=False) is spin
        assert pontryagin_table(dim=8) is spin and pontryagin_table(8, aux=0, line=None) is spin
        assert pontryagin_table(11) is spin  # dim // 4 generators, as for dim 8
        line = pontryagin_table(8, line=True)
        assert pontryagin_table(10, line=1) is line and line is not spin
        assert pontryagin_table(8, aux=True) is not spin
        assert pontryagin_table(8, aux=True, line=True).names == ("pX1", "pX2", "pV1", "pV2", "cL")

    @pytest.mark.parametrize("dim", [8.0, "8", True, None, Fraction(8)])
    def test_pontryagin_dim_must_be_an_int(self, dim):
        """Checked before the interning, so 8.0 cannot fetch the dimension-8 table."""
        with pytest.raises(ValueError, match="dimension must be an integer"):
            pontryagin_table(dim)

    def test_monomial_string_round_trip(self):
        table = pontryagin_table(8)
        expts = (2, 1)
        text = table.monomial_string(expts)
        assert text == "pX1^2*pX2"
        assert table.parse_monomial(text) == expts
        assert table.parse_monomial("1") == (0, 0)
        with pytest.raises(KeyError):
            table.parse_monomial("pX9")
        with pytest.raises(ValueError):
            table.parse_monomial("pX1^x")


class TestGradedPolyArithmetic:
    def test_ring_laws_randomized(self):
        rng = random.Random(20260815)
        table = pontryagin_table(12)
        for _ in range(10):
            a = random_poly(rng, table, 24)
            b = random_poly(rng, table, 24)
            c = random_poly(rng, table, 24)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == GradedPoly.zero(table, 24)

    def test_evaluation_homomorphism(self):
        rng = random.Random(7)
        table = pontryagin_table(8)
        values = {"pX1": Fraction(3, 2), "pX2": Fraction(-5, 7)}
        for _ in range(8):
            a = random_poly(rng, table, 32, span=1)
            b = random_poly(rng, table, 32, span=1)
            assert eval_poly(a + b, values) == eval_poly(a, values) + eval_poly(b, values)
            assert eval_poly(a * b, values) == eval_poly(a, values) * eval_poly(b, values)

    def test_scalar_ops_and_powers(self):
        table = pontryagin_table(8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        assert (p1 * 3) / 3 == p1
        assert p1**2 == p1 * p1
        assert (1 + p1) ** 2 == 1 + 2 * p1 + p1 * p1
        with pytest.raises(ValueError):
            p1 ** (-1)
        with pytest.raises(ZeroDivisionError):
            p1 / 0

    def test_truncation_drops_high_degrees(self):
        table = pontryagin_table(8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        sq = p1 * p1  # degree 8, survives
        assert not sq.is_zero()
        cube = sq * p1  # degree 12 > 8, truncated away
        assert cube.is_zero()

    def test_components_and_coefficients(self):
        table = pontryagin_table(8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        p2 = GradedPoly.generator(table, "pX2", 8)
        f = 2 * p1 + p2 - 3 * p1 * p1
        assert sorted({table.monomial_degree(e) for e in f.terms}) == [4, 8]
        assert f.homogeneous_component(8) == p2 - 3 * p1 * p1
        assert f.homogeneous_component(8).coefficient("pX2") == 1
        assert f.coefficient("pX1^2") == -3
        assert f.coefficient({"pX1": 1}) == 2
        assert f.constant_term == 0

    def test_render(self):
        table = pontryagin_table(8)
        p1 = GradedPoly.generator(table, "pX1", 8)
        p2 = GradedPoly.generator(table, "pX2", 8)
        f = 1 - p1 / 24 + p2 * Fraction(7, 45)
        assert f.render() == "1 - 1/24*pX1 + 7/45*pX2"
        assert GradedPoly.zero(table, 8).render() == "0"


class TestCut:
    def test_cut_keeps_low_degrees_and_rekeys_by_name(self):
        big = pontryagin_table(12, aux=True)  # pX1..pX3, pV1..pV3
        small = pontryagin_table(8, aux=True)  # pX1, pX2, pV1, pV2: pV* sit at other digits
        terms = {"1": 3, "pV1": -2, "pX1*pV1": Fraction(1, 6), "pX3": 5, "pV1^3": 1, "pV2": 4}
        f = GradedPoly(big, 12, {big.parse_monomial(m): Fraction(c) for m, c in terms.items()})
        cut = f.cut(small, 8)
        kept = {"1": 3, "pV1": -2, "pX1*pV1": Fraction(1, 6), "pV2": 4}
        assert cut == GradedPoly(small, 8, {small.parse_monomial(m): Fraction(c) for m, c in kept.items()})
        assert cut.table is small and cut.truncation == 8
        assert f.cut(big, 12) == f

    def test_cut_reduces_to_lowest_terms(self):
        table = pontryagin_table(12)
        f = GradedPoly(table, 12, {(1, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(1, 3)})
        cut = f.cut(pontryagin_table(8), 8)
        assert cut.den == 2 and cut == GradedPoly.generator(pontryagin_table(8), "pX1", 8) / 2

    def test_cut_rejects_a_lacked_generator_and_a_higher_truncation(self):
        big = pontryagin_table(12)
        f = GradedPoly.generator(big, "pX3", 12)
        with pytest.raises(ValueError, match="'pX3'"):
            f.cut(pontryagin_table(8), 12)
        assert f.cut(pontryagin_table(8), 8).is_zero()  # pX3 has degree 12 > 8: cut, not carried
        with pytest.raises(ValueError, match="cannot cut"):
            f.truncate(8).cut(big, 12)

    def test_cut_rejects_a_generator_of_another_degree(self):
        """Kept as it was, the term would carry grade 2 under a degree-4 key."""
        source, target = GeneratorTable([("a", 2), ("b", 4)]), GeneratorTable([("a", 4)])
        with pytest.raises(ValueError, match="'a'"):
            GradedPoly.generator(source, "a", 8).cut(target, 8)

    def test_cut_onto_a_larger_table_is_the_embedding(self):
        small, big = pontryagin_table(8), pontryagin_table(8, aux=True)

        def f(table):
            return 1 + GradedPoly.generator(table, "pX1", 8) / 3 - GradedPoly.generator(table, "pX2", 8)

        assert f(small).cut(big, 8) == f(big)
        assert f(small).cut(big, 4) == f(big).truncate(4)


class TestExponentsAreInts:
    """An exponent is an int, not truncated or parsed into one."""

    TABLE = pontryagin_table(8)

    @pytest.mark.parametrize("exponent", [1.5, 1.0, "1", True], ids=repr)
    def test_constructor(self, exponent):
        with pytest.raises(ValueError, match="integers"):
            GradedPoly(self.TABLE, 8, {(exponent, 0): 1})

    @pytest.mark.parametrize("exponent", [1.5, 1.0, "1", True], ids=repr)
    def test_coefficient(self, exponent):
        p = 3 * GradedPoly.generator(self.TABLE, "pX1", 8)
        assert p.coefficient({"pX1": 1}) == 3
        with pytest.raises(ValueError, match="'pX1'"):
            p.coefficient({"pX1": exponent})


class TestSubstitution:
    def test_same_table_substitution(self):
        table = pontryagin_table(8, aux=True)
        pX1 = GradedPoly.generator(table, "pX1", 8)
        pV1 = GradedPoly.generator(table, "pV1", 8)
        pX2 = GradedPoly.generator(table, "pX2", 8)
        f = pX1 * pX1 + pX2
        assert f.substitute({"pX1": 3 * pV1}) == 9 * pV1 * pV1 + pX2

    def test_mixed_image_tables_rejected(self):
        src = pontryagin_table(8)
        dst = GeneratorTable([("y1", 4), ("y2", 4)])
        other = GeneratorTable([("z1", 4)])
        f = GradedPoly.generator(src, "pX1", 8) + GradedPoly.generator(src, "pX2", 8)
        with pytest.raises(ValueError):
            f.substitute(
                {
                    "pX1": GradedPoly.generator(dst, "y1", 8),
                    "pX2": GradedPoly.generator(other, "z1", 8),
                }
            )
        # an image over another table is rejected even when it is the only one
        with pytest.raises(ValueError, match="'pX1'"):
            f.substitute({"pX1": GradedPoly.generator(dst, "y1", 8)})


class TestExpLog:
    def test_round_trips(self):
        rng = random.Random(99)
        table = pontryagin_table(12)
        for _ in range(5):
            x = random_poly(rng, table, 12)
            x = x - x.constant_term  # zero constant term
            assert log_truncated(exp_truncated(x)) == x
            assert exp_truncated(log_truncated(1 + x)) == 1 + x

    def test_exp_additivity(self):
        table = pontryagin_table(12)
        p1 = GradedPoly.generator(table, "pX1", 12)
        p2 = GradedPoly.generator(table, "pX2", 12)
        assert exp_truncated(p1 + p2) == exp_truncated(p1) * exp_truncated(p2)

    def test_domain_errors(self):
        table = pontryagin_table(8)
        one = GradedPoly.one(table, 8)
        with pytest.raises(ValueError):
            exp_truncated(one)
        with pytest.raises(ValueError):
            log_truncated(one + 1)


class TestNewtonPowerSums:
    def test_against_symmetric_root_oracle(self):
        # Roots x1..x4 of degree 4; pXk plays e_k(x).  The Newton recursion
        # must reproduce the literal power sums sum_i x_i^m.
        roots = GeneratorTable([(f"x{i}", 4) for i in range(1, 5)])
        trunc = 16
        xs = [GradedPoly.generator(roots, f"x{i}", trunc) for i in range(1, 5)]
        elem = {}
        for k in range(1, 5):
            total = GradedPoly.zero(roots, trunc)
            for combo in combinations(xs, k):
                prod = combo[0]
                for factor in combo[1:]:
                    prod = prod * factor
                total = total + prod
            elem[f"pX{k}"] = total
        table = pontryagin_table(16)
        for m in range(1, 5):
            s_engine = power_sum_in_pontryagin(table, "pX", m, trunc)
            brute = sum((x**m for x in xs), GradedPoly.zero(roots, trunc))
            assert naive_substitute(s_engine, elem, roots) == brute

    def test_low_degree_goldens(self):
        table = pontryagin_table(16)
        p1 = GradedPoly.generator(table, "pX1", 16)
        p2 = GradedPoly.generator(table, "pX2", 16)
        p3 = GradedPoly.generator(table, "pX3", 16)
        assert power_sum_in_pontryagin(table, "pX", 1, 16) == p1
        assert power_sum_in_pontryagin(table, "pX", 2, 16) == p1 * p1 - 2 * p2
        assert power_sum_in_pontryagin(table, "pX", 3, 16) == p1**3 - 3 * p1 * p2 + 3 * p3

    def test_truncation_and_errors(self):
        table = pontryagin_table(8)
        # degree 12 exceeds the truncation: the power sum is identically zero
        assert power_sum_in_pontryagin(table, "pX", 3, 8).is_zero()
        with pytest.raises(ValueError):
            power_sum_in_pontryagin(table, "pX", 0, 8)
        with pytest.raises(ValueError):
            power_sum_in_pontryagin(table, "pW", 1, 8)
        # a family gap below the truncation is a hard error
        gappy = GeneratorTable([("pX1", 4)])
        with pytest.raises(ValueError):
            power_sum_in_pontryagin(gappy, "pX", 2, 16)
