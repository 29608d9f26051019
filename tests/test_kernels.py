"""Property tests: the integer-numerator kernels against naive references.

GradedPoly and TwoVarSeries arithmetic, TwoVarSeries.inverse/log and
qseries_exp are checked against convolutions and power series written out
here term by term in Fraction arithmetic.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly.algebra import GeneratorTable, GradedPoly
from anomaly.qseries import PolyRing, QHalfSeries, qseries_exp
from anomaly.theta import TwoVarSeries

SETTINGS = settings(max_examples=60, deadline=None)

# Few distinct values, so sums and products cancel often.
coefficients = st.builds(
    Fraction,
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.sampled_from([1, 1, 2, 3, 6]),
)
truncations = st.integers(0, 6).map(lambda k: 2 * k)


@st.composite
def tables(draw):
    degrees = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=3))
    return GeneratorTable((f"g{i}", d) for i, d in enumerate(degrees, 1))


def term_dicts(table):
    exponents = st.tuples(*[st.integers(0, 3) for _ in range(len(table))])
    return st.dictionaries(exponents, coefficients, max_size=7)


@st.composite
def poly_pairs(draw):
    """Two polynomials over one table with independent truncations.

    Terms may lie above the truncation; the constructor must drop them.
    """
    table = draw(tables())
    a = GradedPoly(table, draw(truncations), draw(term_dicts(table)))
    b = GradedPoly(table, draw(truncations), draw(term_dicts(table)))
    return a, b


def degree(table, expts):
    return sum(e * d for e, d in zip(expts, table.degrees))


def naive_mul(a, b):
    trunc = min(a.truncation, b.truncation)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if degree(a.table, e) <= trunc:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_add(a, b, sign=1):
    trunc = min(a.truncation, b.truncation)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c and degree(a.table, e) <= trunc}


def assert_poly_invariants(p):
    for expts, coeff in p.terms.items():
        assert isinstance(coeff, Fraction) and coeff != 0
        assert len(expts) == len(p.table)
        assert degree(p.table, expts) <= p.truncation


class TestGradedPolyKernel:
    @SETTINGS
    @given(poly_pairs())
    def test_mul_matches_naive_convolution(self, pair):
        a, b = pair
        product = a * b
        assert product.truncation == min(a.truncation, b.truncation)
        assert product.terms == naive_mul(a, b)
        assert_poly_invariants(product)

    @SETTINGS
    @given(poly_pairs())
    def test_add_and_sub_match_naive(self, pair):
        a, b = pair
        for result, sign in ((a + b, 1), (a - b, -1)):
            assert result.truncation == min(a.truncation, b.truncation)
            assert result.terms == naive_add(a, b, sign)
            assert_poly_invariants(result)

    @SETTINGS
    @given(poly_pairs())
    def test_forced_cancellation_stores_no_zeros(self, pair):
        a, s = pair
        # (a + s)(a - s) - (a^2 - s^2) is zero term by term, not just in value.
        difference = (a + s) * (a - s) - (a * a - s * s)
        assert difference.terms == {}
        assert (a - a).terms == {}
        assert_poly_invariants((a + s) * (a - s))

    @SETTINGS
    @given(poly_pairs(), coefficients, st.integers(-2, 2))
    def test_scalar_mul_and_constant_add(self, pair, scale, shift):
        a, _ = pair
        result = a * scale + shift
        expected = {e: scale * c for e, c in a.terms.items()}
        unit = (0,) * len(a.table)
        expected[unit] = expected.get(unit, 0) + shift
        assert result.terms == {e: c for e, c in expected.items() if c}
        assert (a * 0).terms == {}
        assert_poly_invariants(result)

    @SETTINGS
    @given(poly_pairs(), truncations)
    def test_truncate(self, pair, truncation):
        a, _ = pair
        cut = a.truncate(truncation)
        if truncation >= a.truncation:
            assert cut is a
        else:
            assert cut.truncation == truncation
            assert cut.terms == {e: c for e, c in a.terms.items() if degree(a.table, e) <= truncation}


class TestPublicConstructorStillValidates:
    TABLE = GeneratorTable([("a", 2), ("b", 4)])

    def test_rejects_odd_truncation(self):
        with pytest.raises(ValueError):
            GradedPoly(self.TABLE, 3)

    def test_rejects_wrong_tuple_length(self):
        with pytest.raises(ValueError):
            GradedPoly(self.TABLE, 4, {(1,): Fraction(1)})

    def test_rejects_float_coefficient(self):
        with pytest.raises(TypeError):
            GradedPoly(self.TABLE, 4, {(1, 0): 0.5})


# -- TwoVarSeries -----------------------------------------------------------------


@st.composite
def series(draw, tcap, cap, unit=False):
    keys = st.tuples(st.integers(0, tcap + 1), st.integers(0, 2 * cap + 1))
    coeffs = draw(st.dictionaries(keys, coefficients, max_size=10))
    if unit:
        coeffs[(0, 0)] = Fraction(1)
    return TwoVarSeries(tcap, cap, coeffs)


caps = st.tuples(st.integers(0, 5), st.integers(0, 3))


def naive_tv_mul(a, b):
    tcap, cap = min(a.tcap, b.tcap), min(a.cap, b.cap)
    out = {}
    for (n1, j1), c1 in a.coeffs.items():
        for (n2, j2), c2 in b.coeffs.items():
            if n1 + n2 <= tcap and j1 + j2 <= 2 * cap:
                out[(n1 + n2, j1 + j2)] = out.get((n1 + n2, j1 + j2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


class TestTwoVarSeriesKernel:
    @SETTINGS
    @given(st.data(), caps, caps)
    def test_mul_matches_naive_convolution(self, data, caps1, caps2):
        a = data.draw(series(*caps1))
        b = data.draw(series(*caps2))
        product = a * b
        assert (product.tcap, product.cap) == (min(a.tcap, b.tcap), min(a.cap, b.cap))
        assert product.coeffs == naive_tv_mul(a, b)
        assert all(isinstance(c, Fraction) and c for c in product.coeffs.values())

    @SETTINGS
    @given(st.data(), caps, coefficients)
    def test_inverse(self, data, tcap_cap, lead):
        a = data.draw(series(*tcap_cap, unit=True)) * lead
        assert a * a.inverse() == TwoVarSeries.one(*tcap_cap)

    @SETTINGS
    @given(st.data(), caps)
    def test_log_of_product_is_sum_of_logs(self, data, tcap_cap):
        a = data.draw(series(*tcap_cap, unit=True))
        b = data.draw(series(*tcap_cap, unit=True))
        assert (a * b).log() == a.log() + b.log()


# -- qseries_exp -------------------------------------------------------------------


def naive_exp(x):
    """sum_k x^k / k!, which terminates because every term has positive weight."""
    result = QHalfSeries.one(x.ring, x.cap)
    power = result
    k = 1
    while True:
        power = power * x
        if power.is_zero():
            return result
        result = result + power.scale(Fraction(1, factorial(k)))
        k += 1


class TestQSeriesExp:
    @SETTINGS
    @given(st.data(), st.integers(0, 2))
    def test_matches_power_series(self, data, cap):
        table = data.draw(tables())
        truncation = data.draw(truncations)
        ring = PolyRing(table, truncation)
        coeffs = {}
        for j2 in range(2 * cap + 1):
            terms = data.draw(term_dicts(table))
            if j2 == 0:
                terms.pop((0,) * len(table), None)
            coeffs[j2] = GradedPoly(table, truncation, terms)
        x = QHalfSeries(ring, cap, coeffs)
        result = qseries_exp(x)
        assert result == naive_exp(x)
        for poly in result.coeffs.values():
            assert_poly_invariants(poly)
