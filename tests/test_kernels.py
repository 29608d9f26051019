"""Property tests: the integer-numerator kernels against naive references.

GradedPoly and TwoVarSeries arithmetic (sparse operands on both sides of each
packed-key digit width, tables of 1 to 11 generators), TwoVarSeries.inverse/
log/exp, exp_truncated/log_truncated and qseries_exp are checked against
convolutions and power series written out here term by term in Fraction
arithmetic;
QHalfSeries products against the coefficientwise product, the single-term
substitution (on polynomials and on q-series) against term-by-term
substitution (`oracles.naive_substitute`), the cached Adams operations
against the Newton recursions on Chern characters, and the theta quotients,
built from their closed-form logarithms, against their defining products
multiplied out (paired and unpaired), logarithms included.  The
substitution rejects every image that is not one term over the form's own
table.  Every GradedPoly, QHalfSeries
and TwoVarSeries result is also checked to be a canonical int form: positive
denominator, no zero numerator, gcd 1, sorted, and each stored degree (or
t-power) and q-exponent equal to the one read off the key; digit widths are
crossed at 255/256 and 65535/65536.  The arithmetic the three classes
share through `algebra.IntForm` is checked on each of them, and every cap or
truncation must be an int.  Moving a form onto another shape (`_reshaped`:
truncations, cuts, promotions) is checked against the value rebuilt from its
view through the public constructor, across the 8/16-bit digit boundary.
"""

import operator
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly.algebra import (
    GeneratorTable,
    GradedPoly,
    exp_truncated,
    log_truncated,
    pontryagin_table,
)
from anomaly.bundles import VirtualBundle, tangent_complexification, theta_series
from anomaly.qseries import RATIONALS, NonUnitError, PolyRing, QHalfSeries, merge_rings, qseries_exp
import anomaly.theta as theta
from anomaly.theta import (
    THETA_QUOTIENT_KINDS,
    TwoVarSeries,
    _tv_half_cosh,
    _tv_half_sinh,
    _tv_half_sinh_ratio,
    theta_quotient,
)
from anomaly.verifier import impose_condition
from oracles import naive_substitute

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


def assert_int_form(den, items):
    """A canonical int form: den > 0, nonzero numerators, gcd 1, sorted."""
    assert isinstance(den, int) and den > 0
    nums = [num for _, _, _, num in items]
    assert all(isinstance(num, int) and num for num in nums)
    assert gcd(den, *nums) == 1
    assert items == sorted(items)
    assert len({key for _, _, key, _ in items}) == len(items)


def assert_poly_invariants(p):
    assert_int_form(p.den, p.items)
    layout = p.table.layout(p.truncation)
    for g, side, key, _ in p.items:
        expts = layout.unpack(key)
        assert side == 0
        assert g == p.table.monomial_degree(expts) <= p.truncation
        assert key == layout.pack(expts)  # nothing above the degree digit
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


@st.composite
def poly_triples(draw):
    table = draw(tables())
    return tuple(GradedPoly(table, draw(truncations), draw(term_dicts(table))) for _ in range(3))


@st.composite
def single_terms(draw, table, keep=lambda d: True):
    """A nonzero coefficient times one monomial whose degree d passes `keep`,
    truncated at or above that degree."""
    monomials = [e for e in product(range(4), repeat=len(table)) if keep(degree(table, e))]
    expts = draw(st.sampled_from(monomials))
    truncation = max(draw(truncations), degree(table, expts))
    return GradedPoly(table, truncation, {expts: draw(coefficients)})


class TestIntForm:
    @SETTINGS
    @given(poly_pairs(), coefficients, truncations, st.data())
    def test_every_operation_leaves_a_canonical_int_form(self, pair, scale, truncation, data):
        a, b = pair
        name = data.draw(st.sampled_from(a.table.names))
        monomial = data.draw(single_terms(a.table))
        results = [
            a + b, a - b, a * b, a * scale, scale * a, a / scale, a + scale, -a,
            a.truncate(truncation), a.homogeneous_component(truncation),
            a.substitute({name: monomial}),
        ]
        for result in results:
            assert_poly_invariants(result)

    @SETTINGS
    @given(poly_triples())
    def test_values_built_two_ways_compare_equal(self, triple):
        a, b, c = triple
        left, right = (a + b) * c, a * c + b * c
        assert (left.den, left.items) == (right.den, right.items)
        assert left == right
        third = a * Fraction(1, 3) * 3
        assert (third.den, third.items) == (a.den, a.items)
        assert third == a

    def test_terms_view_is_built_per_access(self):
        table = GeneratorTable([("a", 2), ("b", 4)])
        p = GradedPoly(table, 8, {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)})
        assert (p.den, [num for *_, num in p.items]) == (6, [3, 4])
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)}
        assert p.terms is not p.terms
        assert not hasattr(p, "__dict__")

    @pytest.mark.parametrize("low, high", [(254, 256), (256, 254), (256, 256), (254, 254)])
    def test_products_across_a_digit_width(self, low, high):
        """Truncation 254 packs 8-bit digits and 256 packs 16-bit ones; exponents reach 127/128."""
        table = GeneratorTable([("t", 2), ("u", 4)])
        assert table.layout(254).bits == 8 and table.layout(256).bits == 16
        a = GradedPoly(table, low, {(0, 0): 1, (127, 0): 2, (1, 63): Fraction(1, 3), (64, 31): 5})
        b = GradedPoly(table, high, {(0, 0): 3, (1, 0): 7, (0, 32): Fraction(-1, 2), (63, 32): 11, (126, 1): 13})
        for result, expected in ((a * b, naive_mul(a, b)), (a + b, naive_add(a, b)), (a - b, naive_add(a, b, -1))):
            assert result.truncation == min(low, high)
            assert result.terms == expected
            assert_poly_invariants(result)
        assert a.truncate(254).terms == {e: c for e, c in a.terms.items() if degree(table, e) <= 254}
        assert_poly_invariants(a.truncate(254))

    @pytest.mark.parametrize("cap", [127, 128])
    @pytest.mark.parametrize("truncation", [254, 256])
    def test_series_products_across_a_digit_width(self, cap, truncation):
        """2*cap and the truncation on each side of 255/256; products land exactly at both limits."""
        table = GeneratorTable([("t", 2), ("u", 4)])
        ring = PolyRing(table, truncation)
        top = truncation // 2

        def poly(terms):
            return GradedPoly(table, truncation, terms)

        a = QHalfSeries(ring, cap, {0: poly({(0, 0): 1}), 1: poly({(top - 1, 0): 2}), 2 * cap - 1: poly({(1, 0): 3})})
        b = QHalfSeries(ring, cap, {0: poly({(1, 0): 5, (0, 1): 1}), 1: poly({(0, 0): 7}), 2 * cap: poly({(0, 0): 1})})
        for product in (a * b, b * a):
            assert product.coeffs == naive_series_mul(a, b)
            assert product.coefficient(2 * cap).terms == {(0, 0): 1, (1, 0): 21}
            assert product.coefficient(1).terms == {(0, 0): 7, (top, 0): 10}  # t^(top-1)*u is past it
            assert_series_invariants(product)
        lower = QHalfSeries(PolyRing(table, 254), cap, {1: GradedPoly(table, 254, {(0, 0): 1})})
        assert (a * lower).coeffs == naive_series_mul(a, lower)
        assert_series_invariants(a * lower)


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

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            GradedPoly(self.TABLE, 4, {(-1, 1): Fraction(1)})


class TestShapesAreInts:
    """A float, bool or string cap or truncation is an error, not cut to an int."""

    TABLE = GeneratorTable([("a", 2), ("b", 4)])

    @pytest.mark.parametrize("truncation", [8.9, 8.0, True, "8", 3, -2], ids=repr)
    def test_graded_poly_truncation(self, truncation):
        with pytest.raises(ValueError):
            GradedPoly(self.TABLE, truncation)

    @pytest.mark.parametrize("truncation", [4.0, True, 3, -2, 10.5, 9, "12"], ids=repr)
    def test_truncate_and_substitute(self, truncation):
        p = GradedPoly(self.TABLE, 8, {(1, 0): 1, (0, 1): 2})
        with pytest.raises(ValueError):
            p.truncate(truncation)
        with pytest.raises(TypeError):  # substitute takes no truncation: the images give the result's
            p.substitute({"a": GradedPoly.generator(self.TABLE, "b", 8)}, truncation)

    @pytest.mark.parametrize("truncation", [8.5, 8.0, True, "8", 3, -2], ids=repr)
    def test_poly_ring_truncation(self, truncation):
        with pytest.raises(ValueError):
            PolyRing(self.TABLE, truncation)

    @pytest.mark.parametrize("cap", [2.7, 2.0, True, "3", -1], ids=repr)
    def test_qhalfseries_cap(self, cap):
        with pytest.raises(ValueError):
            QHalfSeries(RATIONALS, cap)

    @pytest.mark.parametrize("tcap, cap", [(2.5, 1), (2, True), (True, 1), (2, 1.0), ("2", 1), (-1, 1)], ids=repr)
    def test_two_var_caps(self, tcap, cap):
        with pytest.raises(ValueError):
            TwoVarSeries(tcap, cap)
        with pytest.raises(ValueError):
            theta_quotient("A", tcap, cap)

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, -1], ids=repr)
    def test_quotient_products_and_evaluations(self, cap):
        """Both build their q-series through the trusted constructor, so they check the cap first."""
        table = pontryagin_table(10, line=True)
        with pytest.raises(ValueError):
            theta.line_quotient_evaluation(theta_quotient("L", 5, 2), table, 10, cap)
        with pytest.raises(ValueError):
            theta.symmetric_quotient_product(theta_quotient("A", 5, 2), table, "pX", 10, cap)


# -- packed keys ----------------------------------------------------------------------

# The kernel packs each key into one int, one digit per component, as wide as
# the truncation (GradedPoly) or the t-cap (TwoVarSeries) needs: 8 bits up to
# 255, 16 bits up to 65535, then 32 or 64; the doubled q-exponent j2 of a
# series is the unbounded top digit.  Caps on both sides of those boundaries,
# tables of 1 to 11 generators (1: the genus series of `genera`; 11: one more
# than the widest catalog table, spin_v at dimension 20), as polynomials and as
# q-series coefficients, and products exactly at the caps.
KEY_LENGTHS = (1, 2, 6, 11)
POLY_TRUNCATIONS = (0, 2, 10, 254, 256, 65534, 65536)
T_CAPS = (0, 1, 5, 255, 256, 65535, 65536)
Q_CAPS = (0, 1, 3, 128)
PAST = (1, 256, 65536)  # how far a stray term lies past a cap


@st.composite
def composition(draw, total, parts):
    """`parts` nonnegative ints summing to `total`."""
    if parts == 0:
        return ()
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1, max_size=parts - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@st.composite
def keyed_products(draw, truncations=st.sampled_from(POLY_TRUNCATIONS)):
    """Two sparse polynomials over a table of degree-2 generators.

    Every term of the first has a partner in the second whose product lies
    exactly at the smaller truncation; a few terms lie past it and must be
    dropped, never carried into a neighbouring digit.
    """
    length = draw(st.sampled_from(KEY_LENGTHS))
    table = GeneratorTable((f"g{i}", 2) for i in range(1, length + 1))
    truncations = (draw(truncations), draw(truncations))
    half = min(truncations) // 2  # an exponent sum at the smaller truncation
    a, b = {}, {}
    for _ in range(draw(st.integers(1, 4))):
        top = draw(composition(half, length))
        key = tuple(draw(st.integers(0, c)) for c in top)
        a[key] = draw(coefficients)
        b[tuple(c - k for c, k in zip(top, key))] = draw(coefficients)
    for _ in range(draw(st.integers(0, 2))):
        past = list(draw(composition(half, length)))
        past[draw(st.integers(0, length - 1))] += draw(st.sampled_from(PAST))
        (a if draw(st.booleans()) else b)[tuple(past)] = draw(coefficients)
    return GradedPoly(table, truncations[0], a), GradedPoly(table, truncations[1], b)


@st.composite
def series_products(draw, truncations=st.sampled_from(POLY_TRUNCATIONS)):
    """Two q-series with the polynomials of `keyed_products` as coefficients,
    over the ring at the smaller truncation: flat keys with j2 on top, some
    products exactly at q^cap and one term past it."""
    a, b = draw(keyed_products(truncations))
    ring = PolyRing(a.table, min(a.truncation, b.truncation))
    a, b = a.truncate(ring.truncation), b.truncate(ring.truncation)
    cap = draw(st.sampled_from(Q_CAPS))
    j2 = draw(st.integers(0, 2 * cap))
    return QHalfSeries(ring, cap, {0: b, j2: a}), QHalfSeries(ring, cap, {2 * cap - j2: b, 2 * cap + 1: a})


@st.composite
def two_var_products(draw, tcaps=st.sampled_from(T_CAPS)):
    """Two sparse two-variable series, their products at the smaller caps as above."""
    tcaps = (draw(tcaps), draw(tcaps))
    caps = (draw(st.sampled_from(Q_CAPS)), draw(st.sampled_from(Q_CAPS)))
    top = (min(tcaps), 2 * min(caps))
    a, b = {}, {}
    for _ in range(draw(st.integers(1, 4))):
        key = tuple(draw(st.integers(0, c)) for c in top)
        a[key] = draw(coefficients)
        b[tuple(c - k for c, k in zip(top, key))] = draw(coefficients)
    for _ in range(draw(st.integers(0, 2))):
        past = list(top)
        past[draw(st.integers(0, 1))] += draw(st.sampled_from(PAST))
        (a if draw(st.booleans()) else b)[tuple(past)] = draw(coefficients)
    return TwoVarSeries(tcaps[0], caps[0], a), TwoVarSeries(tcaps[1], caps[1], b)


def assert_two_var_invariants(s):
    """A canonical int form keyed n | j2 << bits, bits the digit width of the t-cap."""
    assert_int_form(s.den, s.items)
    bits = 8
    while s.tcap >= 1 << bits:
        bits *= 2
    for n, j2, key, _ in s.items:
        assert 0 <= n <= s.tcap and 0 <= j2 <= 2 * s.cap
        assert key == n | j2 << bits


def naive_tv_add(a, b, sign=1):
    tcap, cap = min(a.tcap, b.tcap), min(a.cap, b.cap)
    out = {}
    for (n, j2), c in [*a.coeffs.items(), *((k, sign * c) for k, c in b.coeffs.items())]:
        if n <= tcap and j2 <= 2 * cap:
            out[(n, j2)] = out.get((n, j2), 0) + c
    return {k: c for k, c in out.items() if c}


class TestPackedKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(keyed_products(), series_products(), two_var_products()))
    def test_product_matches_naive_convolution(self, pair):
        a, b = pair
        product = a * b
        if isinstance(a, GradedPoly):
            assert product.terms == naive_mul(a, b)
            assert_poly_invariants(product)
        elif isinstance(a, QHalfSeries):
            assert product.coeffs == naive_series_mul(a, b)
            assert_series_invariants(product)
        else:
            assert product.coeffs == naive_tv_mul(a, b)
            assert_two_var_invariants(product)

    @pytest.mark.parametrize("tcap_a, tcap_b", [(255, 256), (256, 255), (65535, 65536), (65536, 65535)])
    def test_sums_at_a_digit_boundary(self, tcap_a, tcap_b):
        """One operand's keys are a digit width wider than the other's: they are
        re-packed, and products and sums land exactly at the smaller t-cap."""
        top = min(tcap_a, tcap_b)
        a = TwoVarSeries(tcap_a, 2, {(0, 0): 1, (top, 0): 2, (top // 2, 3): Fraction(1, 3), (tcap_a, 4): 5})
        b = TwoVarSeries(tcap_b, 2, {(0, 0): 3, (0, 1): 7, (top - top // 2, 1): Fraction(-1, 2), (tcap_b, 0): 11})
        for product in (a * b, b * a):
            assert product.coeffs == naive_tv_mul(a, b)
            assert product.coefficient(top, 4) == Fraction(-1, 6) + (15 if tcap_a == top else 0)
            assert_two_var_invariants(product)
        for result, expected in ((a + b, naive_tv_add(a, b)), (a - b, naive_tv_add(a, b, -1))):
            assert result.coeffs == expected
            assert_two_var_invariants(result)

    @pytest.mark.parametrize("low, high", [(65534, 65536), (65536, 65534), (65536, 65536), (65534, 65534)])
    def test_sparse_poly_products_across_a_wide_digit(self, low, high):
        """Truncation 65534 packs 16-bit digits and 65536 packs 32-bit ones; exponents reach 32767/32768."""
        table = GeneratorTable([("t", 2), ("u", 4)])
        assert table.layout(65534).bits == 16 and table.layout(65536).bits == 32
        a = GradedPoly(table, low, {(0, 0): 1, (32767, 0): 2, (1, 16383): Fraction(1, 3), (16384, 8191): 5})
        b = GradedPoly(table, high, {(0, 0): 3, (1, 0): 7, (0, 8192): Fraction(-1, 2), (16383, 8192): 11, (32766, 1): 13})
        for result, expected in ((a * b, naive_mul(a, b)), (a + b, naive_add(a, b)), (a - b, naive_add(a, b, -1))):
            assert result.truncation == min(low, high)
            assert result.terms == expected
            assert_poly_invariants(result)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverse_through_the_weight_recurrence(self, data):
        """The recurrence runs over the series' own key layout; a * a^(-1) = 1."""
        a, _ = data.draw(two_var_products(st.sampled_from([0, 2, 5, 127, 128, 255, 256])))
        # Terms of weight at least a quarter of the top keep the inverse small.
        floor = (a.tcap + 2 * a.cap) // 4
        coeffs = {(n, j2): c for (n, j2), c in a.coeffs.items() if n + j2 > floor}
        coeffs[(0, 0)] = data.draw(coefficients)
        a = TwoVarSeries(a.tcap, a.cap, coeffs)
        inverse = a.inverse()
        assert naive_tv_mul(a, inverse) == {(0, 0): 1}
        assert_two_var_invariants(inverse)


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


def naive_tv_exp(x):
    """sum_k x^k / k!, the powers by `naive_tv_mul`; x^k vanishes past k = tcap + 2*cap."""
    total, power = {(0, 0): Fraction(1)}, TwoVarSeries.one(x.tcap, x.cap)
    for k in range(1, x.tcap + 2 * x.cap + 1):
        power = TwoVarSeries(x.tcap, x.cap, naive_tv_mul(power, x))
        for key, c in power.coeffs.items():
            total[key] = total.get(key, 0) + c / factorial(k)
    return {key: c for key, c in total.items() if c}


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
        assert_two_var_invariants(product)

    @SETTINGS
    @given(st.data(), caps, coefficients)
    def test_inverse(self, data, tcap_cap, lead):
        a = data.draw(series(*tcap_cap, unit=True)) * lead
        assert a * a.inverse() == TwoVarSeries.one(*tcap_cap)

    @SETTINGS
    @given(st.data(), caps)
    def test_exp_matches_power_series(self, data, tcap_cap):
        x = data.draw(series(*tcap_cap))
        x = x - TwoVarSeries(*tcap_cap, {(0, 0): x.coefficient(0, 0)})
        e = x.exp()
        assert e.coeffs == naive_tv_exp(x)
        assert_two_var_invariants(e)
        assert TwoVarSeries(e.tcap, e.cap, e.coeffs).log() == x

    def test_exp_keeps_its_argument_as_its_log(self):
        x = TwoVarSeries(6, 2, {(2, 0): Fraction(1, 3), (1, 1): -2, (0, 2): 5})
        assert x.exp().log() is x

    def test_exp_rejects_a_constant_term(self):
        with pytest.raises(ValueError):
            TwoVarSeries(4, 2, {(0, 0): Fraction(1, 2), (2, 0): Fraction(1)}).exp()

    @SETTINGS
    @given(st.data(), caps)
    def test_log_of_product_is_sum_of_logs(self, data, tcap_cap):
        a = data.draw(series(*tcap_cap, unit=True))
        b = data.draw(series(*tcap_cap, unit=True))
        assert (a * b).log() == a.log() + b.log()

    def test_log_is_kept_on_the_series(self):
        quotient = theta_quotient("A", 4, 2)
        assert quotient.log() is quotient.log()
        assert quotient.log() == TwoVarSeries(quotient.tcap, quotient.cap, quotient.coeffs).log()

    def test_inverse_rejects_zero_constant(self):
        a = TwoVarSeries(4, 2, {(1, 0): Fraction(1), (0, 2): Fraction(3)})
        with pytest.raises(NonUnitError):
            a.inverse()

    def test_log_rejects_constant_other_than_one(self):
        for lead in (0, 2, Fraction(1, 2)):
            a = TwoVarSeries(4, 2, {(0, 0): Fraction(lead), (2, 0): Fraction(1)})
            with pytest.raises(ValueError):
                a.log()


# -- exp_truncated / log_truncated ---------------------------------------------------


@st.composite
def line_tables(draw):
    """Tables with the degree-2 class cL next to up to two other generators."""
    degrees = draw(st.lists(st.sampled_from([4, 6]), max_size=2))
    return GeneratorTable([("cL", 2)] + [(f"g{i}", d) for i, d in enumerate(degrees, 1)])


@st.composite
def nilpotent_polys(draw):
    """A polynomial with zero constant term over a table with cL."""
    table = draw(line_tables())
    terms = draw(term_dicts(table))
    terms.pop((0,) * len(table), None)
    return GradedPoly(table, draw(truncations), terms)


def naive_exp_poly(x):
    """sum_k x^k / k!, stopping at the first zero power."""
    result = GradedPoly.one(x.table, x.truncation)
    power = result
    k = 1
    while True:
        power = power * x / k
        if power.is_zero():
            return result
        result = result + power
        k += 1


def naive_log_poly(x):
    """sum_k (-1)^(k-1) y^k / k with y = x - 1, stopping at the first zero power."""
    y = x - 1
    result = GradedPoly.zero(x.table, x.truncation)
    power = GradedPoly.one(x.table, x.truncation)
    k = 1
    while True:
        power = power * y
        if power.is_zero():
            return result
        result = result + power * Fraction((-1) ** (k - 1), k)
        k += 1


class TestExpLogKernel:
    @SETTINGS
    @given(nilpotent_polys())
    def test_exp_matches_power_series(self, x):
        result = exp_truncated(x)
        assert result.truncation == x.truncation
        assert result.terms == naive_exp_poly(x).terms
        assert_poly_invariants(result)

    @SETTINGS
    @given(nilpotent_polys())
    def test_log_matches_power_series(self, y):
        x = 1 + y
        result = log_truncated(x)
        assert result.truncation == x.truncation
        assert result.terms == naive_log_poly(x).terms
        assert_poly_invariants(result)


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


# -- QHalfSeries products ----------------------------------------------------------


@st.composite
def poly_series(draw, table):
    """A q-series over PolyRing(table, t) with its own truncation and cap.

    Half-integer powers are drawn as freely as integer ones; keys past 2*cap
    must be dropped by the constructor.
    """
    truncation = draw(truncations)
    cap = draw(st.integers(0, 3))
    keys = draw(st.sets(st.integers(0, 2 * cap + 1), max_size=5))
    coeffs = {j2: GradedPoly(table, truncation, draw(term_dicts(table))) for j2 in keys}
    return QHalfSeries(PolyRing(table, truncation), cap, coeffs)


@st.composite
def poly_series_pairs(draw):
    table = draw(tables())
    return draw(poly_series(table)), draw(poly_series(table))


@st.composite
def rational_series_pairs(draw):
    def one():
        cap = draw(st.integers(0, 4))
        keys = st.integers(0, 2 * cap + 1)
        return QHalfSeries(RATIONALS, cap, draw(st.dictionaries(keys, coefficients, max_size=6)))

    return one(), one()


def naive_series_mul(a, b):
    """The product one q-coefficient pair at a time, in the merged ring."""
    ring = merge_rings(a.ring, b.ring)
    cap = min(a.cap, b.cap)
    out = {}
    for j1, c1 in a.coeffs.items():
        for j2, c2 in b.coeffs.items():
            if j1 + j2 <= 2 * cap:
                prod = c1 * c2
                out[j1 + j2] = out[j1 + j2] + prod if j1 + j2 in out else prod
    coerced = {j: ring.coerce(c) for j, c in out.items()}
    return {j: c for j, c in coerced.items() if not ring.is_zero(c)}


def assert_series_invariants(s):
    assert_int_form(s.den, s.items)
    layout = s.ring.layout
    for g, j2, key, _ in s.items:
        assert 0 <= j2 <= 2 * s.cap
        assert key >> layout.sshift == j2
        if isinstance(s.ring, PolyRing):
            assert g == s.ring.table.monomial_degree(layout.unpack(key)) <= s.ring.truncation
        else:
            assert (g, key) == (0, j2 << layout.sshift)
    for j2, value in s.coeffs.items():
        assert 0 <= j2 <= 2 * s.cap
        if isinstance(s.ring, PolyRing):
            assert value.terms, f"empty q-power {j2} stored"
            assert (value.table, value.truncation) == (s.ring.table, s.ring.truncation)
            assert_poly_invariants(value)
        else:
            assert isinstance(value, Fraction) and value != 0


series_pairs = st.one_of(poly_series_pairs(), rational_series_pairs())


class TestQHalfSeriesProduct:
    @SETTINGS
    @given(series_pairs)
    def test_mul_matches_coefficientwise_product(self, pair):
        a, b = pair
        product = a * b
        assert product.ring == merge_rings(a.ring, b.ring)
        assert product.cap == min(a.cap, b.cap)
        assert product.coeffs == naive_series_mul(a, b)
        assert_series_invariants(product)

    @SETTINGS
    @given(st.one_of(poly_series_pairs(), rational_series_pairs()), st.data())
    def test_distributes_over_sums(self, pair, data):
        a, b = pair
        c = data.draw(poly_series(a.ring.table)) if isinstance(a.ring, PolyRing) else data.draw(rational_series_pairs())[0]
        left, right = (a + b) * c, a * c + b * c
        assert (left.den, left.items) == (right.den, right.items)
        assert_series_invariants(left)
        assert_series_invariants(a - b)
        assert_series_invariants(a.tau_shift_half())

    @SETTINGS
    @given(series_pairs)
    def test_forced_cancellation_stores_nothing(self, pair):
        a, s = pair
        difference = (a + s) * (a - s) - (a * a - s * s)
        assert difference.coeffs == {}
        assert_series_invariants((a + s) * (a - s))
        assert (a * (s - s)).coeffs == {}


# -- substitution ------------------------------------------------------------------


class TestSubstitute:
    @SETTINGS
    @given(st.data(), st.booleans())
    def test_single_term_images_match_the_product_substitution(self, data, same_degree):
        """Key rewriting against products, with images of the mapped generator's
        degree (as the case conditions) or of another one, whose terms past the
        truncation must be dropped."""
        table = data.draw(tables())
        f = GradedPoly(table, data.draw(truncations), data.draw(term_dicts(table)))
        names = data.draw(st.sets(st.sampled_from(table.names), min_size=1))
        images = {}
        for name in sorted(names):
            wanted = table.degrees[table.index(name)]
            images[name] = data.draw(single_terms(table, lambda d: (d == wanted) == same_degree))
        result = f.substitute(images)
        assert result == naive_substitute(f, images, table)
        assert_poly_invariants(result)

    def test_single_term_substitution_is_simultaneous(self):
        """Swapping two generators reads every exponent from the original key."""
        table = GeneratorTable([("a", 4), ("b", 4), ("c", 2)])
        a, b, c = (GradedPoly.generator(table, name, 12) for name in ("a", "b", "c"))
        f = a * b * b + 3 * a + c
        swapped = f.substitute({"a": b, "b": 2 * a, "c": c * c * Fraction(1, 2)})
        assert swapped == 4 * b * a * a + 3 * b + c * c / 2
        assert swapped == naive_substitute(f, {"a": b, "b": 2 * a, "c": c * c * Fraction(1, 2)}, table)
        zero = GradedPoly.zero(table, 12)
        assert f.substitute({"c": zero}) == a * b * b + 3 * a
        assert f.substitute({"a": zero, "b": c ** 8}) == c
        assert f.substitute({"b": GradedPoly.generator(table, "a", 256)}) == a ** 3 + 3 * a + c

    @SETTINGS
    @given(st.data())
    def test_series_substitution_rewrites_every_coefficient(self, data):
        table = data.draw(tables())
        x = data.draw(poly_series(table))
        name = data.draw(st.sampled_from(table.names))
        image = data.draw(single_terms(table))
        image = GradedPoly(table, max(image.truncation, x.ring.truncation), image.terms)
        result = x.substitute({name: image})
        expected = {j2: naive_substitute(p, {name: image}, table) for j2, p in x.coeffs.items()}
        assert result.coeffs == {j2: p for j2, p in expected.items() if not p.is_zero()}
        assert_series_invariants(result)

    @pytest.mark.parametrize("case, image", [("spin_v", "3*pV1"), ("spinc_l", "cL^2"), ("spin_v_line", "3*cL^2")])
    def test_impose_condition_is_one_rewrite_per_series(self, case, image):
        """The case conditions against the per-coefficient product substitution."""
        dim = 12
        table = pontryagin_table(dim, aux=case == "spin_v", line=case != "spin_v")
        coeff, _, mono = image.rpartition("*")
        target = GradedPoly(table, dim, {table.parse_monomial(mono): int(coeff or 1)})
        x = theta_series("theta1", tangent_complexification(table, dim), cap=2)
        imposed = impose_condition(x, case)
        assert imposed.ring == x.ring and imposed.cap == x.cap
        assert imposed.coeffs == {
            j2: naive_substitute(p, {"pX1": target}, table) for j2, p in x.coeffs.items()
        }
        form = x.coefficient(2)
        assert impose_condition(form, case) == naive_substitute(form, {"pX1": target}, table)
        with pytest.raises(ValueError):
            x.substitute({"pX1": target + 1})

    @pytest.mark.parametrize("image_truncation", [254, 256, 600])
    @pytest.mark.parametrize("truncation", [254, 256])
    def test_images_across_a_digit_width(self, truncation, image_truncation):
        """Truncation 254 packs 8-bit digits, 256 and 600 pack 16-bit ones: an
        image's monomial is laid onto the polynomial's keys, an image past the
        result's truncation vanishes, and the result drops to the smaller
        truncation and its key layout."""
        table = GeneratorTable([("a", 2), ("b", 4)])
        f = GradedPoly(table, truncation, {(0, 63): 1, (126, 0): 3, (1, 1): Fraction(1, 2), (2, 0): 5})
        for terms in ({(2, 0): 5}, {(0, 0): 5}, {(0, 1): -2}, {(100, 0): 1}, {(300, 0): 1}, {}):
            image = GradedPoly(table, image_truncation, terms)
            result = f.substitute({"b": image})
            assert result.truncation == min(truncation, image_truncation)
            assert result == naive_substitute(f, {"b": image}, table)
            assert_poly_invariants(result)

    def test_images_other_than_one_term_over_the_own_table_are_rejected(self):
        """The substitution contract, on a polynomial and on a q-series: a
        multi-term image, an image over another table or an image that is not
        a polynomial is a ValueError naming its generator, and so is a series
        image truncated below the ring."""
        table = pontryagin_table(8, aux=True)
        pX1, pV1 = (GradedPoly.generator(table, name, 8) for name in ("pX1", "pV1"))
        f = pX1 * pX1 + pV1
        x = QHalfSeries(PolyRing(table, 8), 2, {0: f, 2: pX1})
        other = GradedPoly.generator(pontryagin_table(8, aux=True, line=True), "pV1", 8)
        for form in (f, x):
            for image in (pV1 + 1, 3 * pV1 * pV1 - pX1, other, Fraction(3)):
                with pytest.raises(ValueError, match="'pX1'"):
                    form.substitute({"pX1": image})
        low = 3 * pV1.truncate(4)
        with pytest.raises(ValueError, match="'pX1'"):
            x.substitute({"pX1": low})
        assert f.substitute({"pX1": low}) == pV1.truncate(4)  # a polynomial's truncation drops to the image's
        with pytest.raises(ValueError, match="'pX1'"):
            QHalfSeries(RATIONALS, 2, {0: 1, 2: 5}).substitute({"pX1": pV1})


# -- Adams operations and the lambda-ring powers -------------------------------------


@st.composite
def bundles(draw):
    table = draw(tables())
    truncation = draw(truncations)
    terms = draw(term_dicts(table))
    terms.pop((0,) * len(table), None)
    return table, truncation, draw(st.integers(-3, 4)), GradedPoly(table, truncation, terms)


def naive_powers(table, truncation, rank, reduced, top):
    """ch of lambda^k and S^k for k <= top, by the Newton recursions on ch."""
    def psi(i):
        terms = {e: c * Fraction(i) ** (degree(table, e) // 2) for e, c in reduced.terms.items()}
        return GradedPoly(table, truncation, terms) + rank

    one = GradedPoly.one(table, truncation)
    lam, sym = [one], [one]
    for n in range(1, top + 1):
        acc = GradedPoly.zero(table, truncation)
        for i in range(1, n + 1):
            acc = acc + (-1) ** (i - 1) * psi(i) * lam[n - i]
        lam.append(acc / n)
    for n in range(1, top + 1):
        acc = GradedPoly.zero(table, truncation)
        for i in range(1, n + 1):
            acc = acc + (-1) ** (i - 1) * lam[i] * sym[n - i]
        sym.append(acc)
    return lam, sym


class TestAdamsCache:
    @SETTINGS
    @given(bundles(), st.lists(st.integers(1, 5), max_size=6))
    def test_powers_after_adams_match_the_recursion(self, bundle, warm_up):
        table, truncation, rank, reduced = bundle
        warm = VirtualBundle(table, truncation, rank, reduced)
        for k in warm_up:
            psi = warm.adams(k)
            assert psi is warm.adams(k)
            assert psi.rank == rank
            assert psi.reduced.terms == {
                e: c * k ** (degree(table, e) // 2) for e, c in reduced.terms.items()
            }
        fresh = VirtualBundle(table, truncation, rank, reduced)
        lam, sym = naive_powers(table, truncation, rank, reduced, 4)
        for k in range(5):
            assert warm.lambda_power(k).ch() == lam[k] == fresh.lambda_power(k).ch()
            assert warm.sym_power(k).ch() == sym[k] == fresh.sym_power(k).ch()


# -- theta quotients: the product oracle ---------------------------------------------
#
# theta_quotient builds each quotient from its closed-form logarithm.  These
# oracles multiply the defining products out factor by factor instead.


def _tv_exp_factor(eps: int, sign: int, j2: int, tcap, cap) -> TwoVarSeries:
    """1 + eps * e^(sign*t) * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        for n in range(tcap + 1):
            coeffs[(n, j2)] = Fraction(eps * sign ** n, factorial(n))
    return TwoVarSeries(tcap, cap, coeffs)


def _tv_q_factor(eps: int, j2: int, tcap, cap) -> TwoVarSeries:
    """1 + eps * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        coeffs[(0, j2)] = coeffs.get((0, j2), Fraction(0)) + eps
    return TwoVarSeries(tcap, cap, coeffs)


def product_quotient(kind, tcap, cap):
    """The quotient as running products, the two factors at each q-power paired first."""
    num = TwoVarSeries.one(tcap, cap)
    den = TwoVarSeries.one(tcap, cap)
    if kind == "A":
        den = _tv_half_sinh_ratio(tcap, cap)
        for j in range(1, cap + 1):
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            num = num * (f * f)
            den = den * (_tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap))
    elif kind == "B1":
        num = _tv_half_cosh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * (_tv_exp_factor(+1, +1, 2 * j, tcap, cap) * _tv_exp_factor(+1, -1, 2 * j, tcap, cap))
            f = _tv_q_factor(+1, 2 * j, tcap, cap)
            den = den * (f * f)
    elif kind in ("B2", "B3"):
        eps = -1 if kind == "B2" else +1
        for j2 in range(1, 2 * cap + 1, 2):
            num = num * (_tv_exp_factor(eps, +1, j2, tcap, cap) * _tv_exp_factor(eps, -1, j2, tcap, cap))
            f = _tv_q_factor(eps, j2, tcap, cap)
            den = den * (f * f)
    else:
        num = _tv_half_sinh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * (_tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap))
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            den = den * (f * f)
    return num * den.inverse()


def unpaired_quotient(kind, tcap, cap):
    """The quotient as running products, every factor multiplied in in turn."""
    num = TwoVarSeries.one(tcap, cap)
    den = TwoVarSeries.one(tcap, cap)
    if kind == "A":
        den = _tv_half_sinh_ratio(tcap, cap)
        for j in range(1, cap + 1):
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            num = num * f * f
            den = den * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
    elif kind == "B1":
        num = _tv_half_cosh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * _tv_exp_factor(+1, +1, 2 * j, tcap, cap) * _tv_exp_factor(+1, -1, 2 * j, tcap, cap)
            f = _tv_q_factor(+1, 2 * j, tcap, cap)
            den = den * f * f
    elif kind in ("B2", "B3"):
        eps = -1 if kind == "B2" else +1
        for j2 in range(1, 2 * cap + 1, 2):
            num = num * _tv_exp_factor(eps, +1, j2, tcap, cap) * _tv_exp_factor(eps, -1, j2, tcap, cap)
            f = _tv_q_factor(eps, j2, tcap, cap)
            den = den * f * f
    else:
        num = _tv_half_sinh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            den = den * f * f
    return num * den.inverse()


@pytest.mark.parametrize("kind", THETA_QUOTIENT_KINDS)
@pytest.mark.parametrize("tcap, cap", [(0, 0), (3, 1), (6, 2), (10, 3), (5, 3), (11, 7)])
def test_theta_quotient_matches_unpaired_order(kind, tcap, cap):
    assert theta_quotient(kind, tcap, cap) == unpaired_quotient(kind, tcap, cap)


@pytest.mark.parametrize("kind", THETA_QUOTIENT_KINDS)
@pytest.mark.parametrize("tcap, cap", [(0, 0), (3, 1), (6, 2), (11, 7)])
def test_theta_quotient_matches_paired_products(kind, tcap, cap):
    assert theta_quotient(kind, tcap, cap) == product_quotient(kind, tcap, cap)


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "B3"])
@pytest.mark.parametrize("tcap, cap", [(0, 0), (4, 2), (6, 4), (11, 7)])
def test_closed_form_log_is_the_log_of_the_products(kind, tcap, cap):
    quotient = theta_quotient(kind, tcap, cap)
    assert quotient.log() == product_quotient(kind, tcap, cap).log()
    assert quotient.log() is quotient.log()


def test_the_line_quotient_has_no_logarithm():
    with pytest.raises(ValueError):
        theta_quotient("L", 6, 2).log()


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "B3", "L"])
def test_a_perturbed_divisor_sum_is_caught(kind, monkeypatch):
    """Negative control: one divisor-sum coefficient off by 1/(2m)! fails both checks."""
    closed_form = theta._divisor_sum_log

    def perturbed(*args):
        coeffs = closed_form(*args)
        coeffs[(4, 4)] += Fraction(1, 24)
        return coeffs

    monkeypatch.setattr(theta, "_divisor_sum_log", perturbed)
    tcap, cap = 6, 3
    quotient = theta_quotient.__wrapped__(kind, tcap, cap)
    oracle = product_quotient(kind, tcap, cap)
    assert quotient != oracle
    if kind != "L":
        assert quotient.log() != oracle.log()


# -- input errors --------------------------------------------------------------------


class TestTwoVarSeriesInputErrors:
    SERIES = TwoVarSeries(4, 2, {(0, 0): Fraction(1), (2, 1): Fraction(1, 2)})

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "x", None, QHalfSeries.one(RATIONALS, 2)])
    def test_add_and_sub_need_a_series(self, other):
        with pytest.raises(TypeError):
            self.SERIES + other
        with pytest.raises(TypeError):
            self.SERIES - other
        with pytest.raises(TypeError):
            other + self.SERIES

    @pytest.mark.parametrize("other", [0.5, "x", None, QHalfSeries.one(RATIONALS, 2)])
    def test_mul_needs_a_scalar_or_a_series(self, other):
        with pytest.raises(TypeError):
            self.SERIES * other
        with pytest.raises(TypeError):
            other * self.SERIES

    def test_public_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            TwoVarSeries(2, 2, {(0, 0): 0.1})
        assert TwoVarSeries(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 3)}).coeffs == {(0, 0): 1, (1, 1): Fraction(1, 3)}

    def test_scalars_still_multiply(self):
        assert (self.SERIES * 2).coeffs == {(0, 0): 2, (2, 1): 1}
        assert (Fraction(1, 2) * self.SERIES).coeffs == {(0, 0): Fraction(1, 2), (2, 1): Fraction(1, 4)}


# -- the shared IntForm arithmetic -----------------------------------------------------


int_forms = st.one_of(
    poly_pairs().map(operator.itemgetter(0)),
    series_pairs.map(operator.itemgetter(0)),
    caps.flatmap(lambda tcap_cap: series(*tcap_cap)),
)


class TestSharedArithmetic:
    """GradedPoly, QHalfSeries and TwoVarSeries run one copy of their arithmetic."""

    TABLE = GeneratorTable([("a", 2), ("b", 4)])

    @SETTINGS
    @given(int_forms)
    def test_negation_difference_and_scalars(self, x):
        assert -(-x) == x
        assert (x - x).is_zero()
        assert (x * 3) * Fraction(1, 3) == x
        assert 3 * x == x * 3
        assert_int_form((x * Fraction(-2, 3)).den, (x * Fraction(-2, 3)).items)

    def test_made_results_start_with_empty_caches(self):
        q = QHalfSeries(RATIONALS, 2, {0: 1, 1: Fraction(1, 2)})
        assert q.coeffs and q._coeffs is not None
        t = TwoVarSeries(4, 2, {(0, 0): 1, (2, 1): Fraction(1, 2)})
        assert t.log()._logarithm is None and t._logarithm is not None
        p = GradedPoly(self.TABLE, 8, {(0, 0): 1, (1, 0): 2})
        for x in (p, q, t):
            for result in (-x, x + x, x * x, x * 2, x.tau_shift_half(), type(x)._make(*x._shape, 1, [])):
                assert type(result) is type(x)
                assert all(getattr(result, name) is None for name in type(x)._KEPT)
        assert GradedPoly._KEPT == ()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=lambda op: op.__name__)
    def test_mixed_classes_do_not_combine(self, op):
        poly = GradedPoly.one(self.TABLE, 4)
        forms = (poly, QHalfSeries.one(PolyRing(self.TABLE, 4), 2), TwoVarSeries.one(4, 2))
        for a, b in permutations(forms, 2):
            with pytest.raises(TypeError):
                op(a, b)
        assert poly != forms[1] and forms[1] != forms[2]


# -- moving a form onto another shape -------------------------------------------------

# Sizes on both sides of the 8/16-bit digit boundary: truncation 254 packs
# 8-bit digits and 256 16-bit ones; so do t-caps 255 and 256.
SHAPE_TRUNCATIONS = st.sampled_from((0, 2, 10, 254, 256))
SHAPE_T_CAPS = (0, 1, 5, 255, 256)


def widened(table):
    """`table` reversed, after one new generator h."""
    return GeneratorTable((("h", 2),) + table.generators[::-1])


def embedded(p, truncation):
    """`p` rebuilt from its view on `widened(p.table)`, truncated at `truncation`."""
    return GradedPoly(widened(p.table), truncation, {(0,) + expts[::-1]: c for expts, c in p.terms.items()})


class TestShapeMove:
    """`IntForm._reshaped`, and the truncations, cuts and promotions through it,
    against the value rebuilt from its view through the public constructor."""

    @SETTINGS
    @given(st.data())
    def test_graded_poly(self, data):
        low, high = sorted(data.draw(st.tuples(SHAPE_TRUNCATIONS, SHAPE_TRUNCATIONS)))
        p, _ = data.draw(keyed_products(st.just(high)))
        moved = p._reshaped(p.table, low)
        assert moved == GradedPoly(p.table, low, p.terms) == p.truncate(low)
        cut = p.cut(widened(p.table), low)  # by name, onto a larger table: the embedding
        assert cut == embedded(p, low)
        for result in (moved, cut):
            assert_poly_invariants(result)

    @SETTINGS
    @given(st.data())
    def test_poly_series(self, data):
        low, high = sorted(data.draw(st.tuples(SHAPE_TRUNCATIONS, SHAPE_TRUNCATIONS)))
        s, _ = data.draw(series_products(st.just(high)))
        ring = PolyRing(s.ring.table, low)
        cap = data.draw(st.integers(0, s.cap))
        moved = s._reshaped(ring, cap)
        assert moved == QHalfSeries(ring, cap, s.coeffs)
        assert s.cut(ring) == QHalfSeries(ring, s.cap, s.coeffs)
        target = PolyRing(widened(s.ring.table), low)
        relaid = s._reshaped(target, cap)
        assert relaid == QHalfSeries(target, cap, {j2: embedded(c, low) for j2, c in s.coeffs.items()})
        for result in (moved, relaid):
            assert_series_invariants(result)

    @SETTINGS
    @given(rational_series_pairs(), tables(), SHAPE_TRUNCATIONS, st.data())
    def test_rational_series_and_promote(self, pair, table, truncation, data):
        s = pair[0]
        cap = data.draw(st.integers(0, s.cap))
        moved = s._reshaped(RATIONALS, cap)
        assert moved == QHalfSeries(RATIONALS, cap, s.coeffs)
        ring = PolyRing(table, truncation)
        promoted = s.promote(ring)
        assert promoted == QHalfSeries(ring, s.cap, {j2: ring.coerce(c) for j2, c in s.coeffs.items()})
        for result in (moved, promoted):
            assert_series_invariants(result)

    @SETTINGS
    @given(st.data())
    def test_two_var_series(self, data):
        high = data.draw(st.sampled_from(SHAPE_T_CAPS))
        low = data.draw(st.sampled_from([tcap for tcap in SHAPE_T_CAPS if tcap <= high]))
        v = data.draw(series(high, data.draw(st.integers(0, 4))))
        cap = data.draw(st.integers(0, v.cap))
        moved = v._reshaped(low, cap)
        assert moved == TwoVarSeries(low, cap, v.coeffs)
        assert_two_var_invariants(moved)
