"""Property tests: the integer-numerator kernels against naive references.

GradedPoly arithmetic and that of the theta quotients' series over the one
generator t (sparse operands on both sides of each packed-key digit width,
tables of 1 to 11 generators), exp_truncated and qseries_exp (also over the
t table) are checked against convolutions and power
series written out term by term in Fraction arithmetic, here and in
`oracles` (the series exps, solved by q-power, also over RATIONALS, with
pure q terms, and against exp(x + y) = exp(x) * exp(y));
QHalfSeries products against the coefficientwise product, the single-term
substitution (on polynomials and on q-series) against term-by-term
substitution (`oracles.naive_substitute`), the cached Adams operations
against the Newton recursions on Chern characters, and the theta quotients,
the exps of their closed-form logarithms, against their defining products
multiplied out (paired and unpaired; `quotient * den == num`, so no series
is inverted), and A's Bernoulli q^0 logarithm, and
B1's read off it at 2t, against the term-by-term logarithms of the
factorial series.  The
substitution rejects every image that is not one term over the form's own
table.  Every GradedPoly and QHalfSeries result, over the t table too, is
also checked to be a canonical int form: positive denominator, no zero
numerator, gcd 1, sorted, and each stored degree and q-exponent equal to the
one read off the key; digit widths are crossed at 255/256 and 65535/65536
(t-caps 127/128 and 32767/32768).  The arithmetic the two classes share
through `algebra.IntForm` is checked on each of them, and every cap or
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
    pontryagin_table,
)
from anomaly.bundles import tangent_complexification, theta_series
from anomaly.qseries import RATIONALS, PolyRing, QHalfSeries, qseries_exp
import anomaly.theta as theta
from anomaly.theta import (
    THETA_QUOTIENT_KINDS,
    _log_a,
    _quotient_log,
    quotient_series,
    theta_quotient,
)
from anomaly.verifier import impose_condition
from oracles import bundle, naive_exp_poly, naive_log_poly, naive_substitute, t_coeffs, t_series

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
    def test_quotient_caps(self, tcap, cap):
        with pytest.raises(ValueError):
            theta_quotient("A", tcap, cap)

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, -1], ids=repr)
    def test_quotient_products_and_evaluations(self, cap):
        """Both build their q-series through the trusted constructor, so they check the cap first."""
        table = pontryagin_table(10, line=True)
        with pytest.raises(ValueError):
            theta.line_quotient_evaluation(quotient_series("L", 5, 2), table, 10, cap)
        with pytest.raises(ValueError):
            qseries_exp(theta._bridged_log(theta_quotient("A", 5, 2), table, "pX", 10, cap))


# -- packed keys ----------------------------------------------------------------------

# The kernel packs each key into one int, one digit per component, as wide as
# the truncation needs: 8 bits up to 255, 16 bits up to 65535, then 32 or 64,
# so a series over the t table, at truncation 2 * t-cap, crosses at t-caps
# 127/128 and 32767/32768; the doubled q-exponent j2 of a series is the
# unbounded top digit.  Caps on both sides of those boundaries,
# tables of 1 to 11 generators (1: the genus series of `genera`; 11: one more
# than the widest catalog table, spin_v at dimension 20), as polynomials and as
# q-series coefficients, and products exactly at the caps.
KEY_LENGTHS = (1, 2, 6, 11)
POLY_TRUNCATIONS = (0, 2, 10, 254, 256, 65534, 65536)
T_CAPS = (0, 1, 5, 127, 128, 32767, 32768)
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
    """Two sparse series over the t table, their products at the smaller caps as above."""
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
    return t_series(tcaps[0], caps[0], a), t_series(tcaps[1], caps[1], b)


def t_cap(s):
    """The t-cap of a series over the t table: t^n sits at degree 2n."""
    return s.ring.truncation // 2


def assert_two_var_invariants(s):
    """A canonical q-series over the t table: each term's degree is twice its t-power,
    keyed n | 2n << bits | j2 << 2 * bits, bits the digit width of the truncation."""
    assert s.ring.table == theta._T
    assert_series_invariants(s)
    bits = s.layout.bits
    assert 2 * t_cap(s) < 1 << bits
    for g, j2, key, _ in s.items:
        assert key == g // 2 | g << bits | j2 << 2 * bits


def naive_tv_add(a, b, sign=1):
    tcap, cap = min(t_cap(a), t_cap(b)), min(a.cap, b.cap)
    out = {}
    for (n, j2), c in [*t_coeffs(a).items(), *((k, sign * c) for k, c in t_coeffs(b).items())]:
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
        elif a.ring.table != theta._T:
            assert product.coeffs == naive_series_mul(a, b)
            assert_series_invariants(product)
        else:
            assert t_coeffs(product) == naive_tv_mul(a, b)
            assert_two_var_invariants(product)

    @pytest.mark.parametrize("tcap_a, tcap_b", [(127, 128), (128, 127), (32767, 32768), (32768, 32767)])
    def test_sums_at_a_digit_boundary(self, tcap_a, tcap_b):
        """One operand's keys are a digit width wider than the other's: they are
        re-packed, and products and sums land exactly at the smaller t-cap."""
        top = min(tcap_a, tcap_b)
        a = t_series(tcap_a, 2, {(0, 0): 1, (top, 0): 2, (top // 2, 3): Fraction(1, 3), (tcap_a, 4): 5})
        b = t_series(tcap_b, 2, {(0, 0): 3, (0, 1): 7, (top - top // 2, 1): Fraction(-1, 2), (tcap_b, 0): 11})
        assert a.layout.bits != b.layout.bits
        for product in (a * b, b * a):
            assert t_coeffs(product) == naive_tv_mul(a, b)
            assert t_coeffs(product)[(top, 4)] == Fraction(-1, 6) + (15 if tcap_a == top else 0)
            assert_two_var_invariants(product)
        for result, expected in ((a + b, naive_tv_add(a, b)), (a - b, naive_tv_add(a, b, -1))):
            assert t_coeffs(result) == expected
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
    def test_exp_through_the_recurrences(self, data):
        """The weight and q-power recurrences run over the series' own key layout: exp(x) * exp(-x) = 1."""
        a, _ = data.draw(two_var_products(st.sampled_from([0, 2, 5, 127, 128, 255, 256])))
        # Terms of weight at least a quarter of the top keep the exp small.
        floor = (t_cap(a) + 2 * a.cap) // 4
        x = t_series(t_cap(a), a.cap, {(n, j2): c for (n, j2), c in t_coeffs(a).items() if n + j2 > floor})
        e = qseries_exp(x)
        assert naive_tv_mul(e, qseries_exp(-x)) == {(0, 0): 1}
        assert_two_var_invariants(e)


# -- series over the t table ---------------------------------------------------------


@st.composite
def series(draw, tcap, cap):
    keys = st.tuples(st.integers(0, tcap + 1), st.integers(0, 2 * cap + 1))
    return t_series(tcap, cap, draw(st.dictionaries(keys, coefficients, max_size=10)))


caps = st.tuples(st.integers(0, 5), st.integers(0, 3))


def naive_tv_mul(a, b):
    tcap, cap = min(t_cap(a), t_cap(b)), min(a.cap, b.cap)
    out = {}
    for (n1, j1), c1 in t_coeffs(a).items():
        for (n2, j2), c2 in t_coeffs(b).items():
            if n1 + n2 <= tcap and j1 + j2 <= 2 * cap:
                out[(n1 + n2, j1 + j2)] = out.get((n1 + n2, j1 + j2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_tv_exp(x):
    """sum_k x^k / k!, the powers by `naive_tv_mul`; x^k vanishes past k = tcap + 2*cap."""
    tcap = t_cap(x)
    total, power = {(0, 0): Fraction(1)}, t_series(tcap, x.cap, {(0, 0): 1})
    for k in range(1, tcap + 2 * x.cap + 1):
        power = t_series(tcap, x.cap, naive_tv_mul(power, x))
        for key, c in t_coeffs(power).items():
            total[key] = total.get(key, 0) + c / factorial(k)
    return {key: c for key, c in total.items() if c}


class TestTSeriesKernel:
    @SETTINGS
    @given(st.data(), caps, caps)
    def test_mul_matches_naive_convolution(self, data, caps1, caps2):
        a = data.draw(series(*caps1))
        b = data.draw(series(*caps2))
        product = a * b
        assert (t_cap(product), product.cap) == (min(t_cap(a), t_cap(b)), min(a.cap, b.cap))
        assert t_coeffs(product) == naive_tv_mul(a, b)
        assert all(isinstance(c, Fraction) and c for c in t_coeffs(product).values())
        assert_two_var_invariants(product)

    @SETTINGS
    @given(st.data(), caps)
    def test_exp_matches_power_series(self, data, tcap_cap):
        x = data.draw(series(*tcap_cap))
        x = x - t_series(*tcap_cap, {(0, 0): t_coeffs(x).get((0, 0), 0)})
        e = qseries_exp(x)
        assert t_coeffs(e) == naive_tv_exp(x)
        assert_two_var_invariants(e)

    @SETTINGS
    @given(st.data(), caps)
    def test_exp_of_pure_q_terms(self, data, tcap_cap):
        """t^0 * q^(j/2) terms: the t^0 slice past q^0 steps by q-power alone."""
        tcap, cap = tcap_cap
        pure = data.draw(st.dictionaries(st.integers(1, 2 * cap + 1).map(lambda j2: (0, j2)), coefficients, max_size=4))
        x = data.draw(series(tcap, cap)) + t_series(tcap, cap, pure)
        x = x - t_series(tcap, cap, {(0, 0): t_coeffs(x).get((0, 0), 0)})
        e = qseries_exp(x)
        assert t_coeffs(e) == naive_tv_exp(x)
        assert_two_var_invariants(e)

    def test_exp_rejects_a_constant_term(self):
        with pytest.raises(ValueError):
            qseries_exp(t_series(4, 2, {(0, 0): Fraction(1, 2), (2, 0): Fraction(1)}))

    def test_the_logarithm_is_memoized_and_exps_to_the_quotient(self):
        log = theta_quotient("A", 4, 2)
        assert theta_quotient("A", 4, 2) is log
        assert qseries_exp(log) == quotient_series("A", 4, 2)


# -- exp_truncated ------------------------------------------------------------------


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


class TestExpLogKernel:
    @SETTINGS
    @given(nilpotent_polys())
    def test_exp_matches_power_series(self, x):
        result = exp_truncated(x)
        assert result.truncation == x.truncation
        assert result.terms == naive_exp_poly(x).terms
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


@st.composite
def nilpotent_series(draw, table=None, cap=None):
    """A q-series with zero constant term at q^0: a random coefficient at every
    q-power through the cap, over a drawn table (or `table`, RATIONALS for the
    empty one)."""
    table = draw(tables()) if table is None else table
    truncation = draw(truncations) if table else 0
    cap = draw(st.integers(0, 4)) if cap is None else cap
    coeffs = {}
    for j2 in range(2 * cap + 1):
        terms = draw(term_dicts(table)) if table else {(): draw(coefficients)}
        if j2 == 0:
            terms.pop((0,) * len(table), None)
        coeffs[j2] = GradedPoly(table, truncation, terms)
    return QHalfSeries(PolyRing(table, truncation), cap, coeffs)


class TestQSeriesExp:
    """exp is solved by q-power after the q^0 slice's own exp: these reach
    several side steps, slices of several degrees, and series with no degree."""

    @SETTINGS
    @given(nilpotent_series())
    def test_matches_power_series(self, x):
        result = qseries_exp(x)
        assert result == naive_exp(x)
        assert_series_invariants(result)

    @SETTINGS
    @given(nilpotent_series(GeneratorTable(())))
    def test_rational_series_match_power_series(self, x):
        """Over RATIONALS every grade is 0: the q^0 slice is empty and every
        step is a q-power."""
        assert x.ring == RATIONALS
        result = qseries_exp(x)
        assert result == naive_exp(x)
        assert_series_invariants(result)

    @SETTINGS
    @given(st.data(), st.integers(1, 4))
    def test_slices_of_several_degrees_and_pure_q_terms(self, data, cap):
        """A q^0 slice with terms of several degrees, and q-powers whose
        coefficients are constants (pure q terms) or mix a constant with
        higher degrees."""
        table = GeneratorTable([("a", 2), ("b", 4), ("c", 6)])
        truncation = 12
        a, b, c = (GradedPoly.generator(table, name, truncation) for name in ("a", "b", "c"))
        slice0 = data.draw(coefficients) * a + data.draw(coefficients) * b + data.draw(coefficients) * a * c
        coeffs = {0: slice0}
        for j2 in data.draw(st.sets(st.integers(1, 2 * cap), min_size=1)):
            constant = GradedPoly.constant(table, truncation, data.draw(coefficients))
            coeffs[j2] = constant + (data.draw(coefficients) * b * b if data.draw(st.booleans()) else 0)
        x = QHalfSeries(PolyRing(table, truncation), cap, coeffs)
        result = qseries_exp(x)
        assert result == naive_exp(x)
        assert result.coefficient(0) == exp_truncated(slice0)
        assert_series_invariants(result)

    @SETTINGS
    @given(st.data())
    def test_exp_of_a_sum_is_the_product_of_exps(self, data):
        x = data.draw(nilpotent_series())
        y = data.draw(nilpotent_series(x.ring.table, x.cap))
        ring = meet_ring(x, y)
        x, y = x.cut(ring), y.cut(ring)
        assert qseries_exp(x + y) == qseries_exp(x) * qseries_exp(y)


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


def meet_ring(a, b):
    """The ring that two series meet in: their one table, at the smaller truncation."""
    assert a.ring.table == b.ring.table
    return a.ring if a.ring.truncation <= b.ring.truncation else b.ring


def naive_series_mul(a, b):
    """The product one q-coefficient pair at a time, in the ring they meet in."""
    ring = meet_ring(a, b)
    cap = min(a.cap, b.cap)
    out = {}
    for j1, c1 in a.coeffs.items():
        for j2, c2 in b.coeffs.items():
            if j1 + j2 <= 2 * cap:
                prod = c1 * c2
                out[j1 + j2] = out[j1 + j2] + prod if j1 + j2 in out else prod
    coerced = {j: ring.coerce(c) for j, c in out.items()}
    return {j: c for j, c in coerced.items() if not c.is_zero()}


def assert_series_invariants(s):
    assert_int_form(s.den, s.items)
    layout = s.ring.layout
    for g, j2, key, _ in s.items:
        assert 0 <= j2 <= 2 * s.cap
        assert key >> layout.sshift == j2
        assert (key >> layout.gshift) & layout.mask == g  # over the empty table: key == j2 << sshift, g == 0
        assert g == s.ring.table.monomial_degree(layout.unpack(key)) <= s.ring.truncation
    for j2, value in s.coeffs.items():
        assert 0 <= j2 <= 2 * s.cap
        assert value.terms, f"empty q-power {j2} stored"
        assert (value.table, value.truncation) == (s.ring.table, s.ring.truncation)
        assert_poly_invariants(value)


series_pairs = st.one_of(poly_series_pairs(), rational_series_pairs())


class TestQHalfSeriesProduct:
    @SETTINGS
    @given(series_pairs)
    def test_mul_matches_coefficientwise_product(self, pair):
        a, b = pair
        product = a * b
        assert product.ring == meet_ring(a, b)
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
    def test_powers_after_adams_match_the_recursion(self, args, warm_up):
        table, truncation, rank, reduced = args
        warm = bundle(table, truncation, rank, reduced)
        for k in warm_up:
            psi = warm.adams(k)
            assert psi is warm.adams(k)
            assert psi.rank == rank
            assert psi.reduce().ch().terms == {
                e: c * k ** (degree(table, e) // 2) for e, c in reduced.terms.items()
            }
        fresh = bundle(table, truncation, rank, reduced)
        lam, sym = naive_powers(table, truncation, rank, reduced, 4)
        for k in range(5):
            assert warm.lambda_power(k).ch() == lam[k] == fresh.lambda_power(k).ch()
            assert warm.sym_power(k).ch() == sym[k] == fresh.sym_power(k).ch()


# -- theta quotients: the product oracle ---------------------------------------------
#
# quotient_series builds each quotient from its closed-form logarithm.  These
# oracles multiply the defining products out factor by factor instead.


def _tv_exp_factor(eps: int, sign: int, j2: int, tcap, cap) -> QHalfSeries:
    """1 + eps * e^(sign*t) * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        for n in range(tcap + 1):
            coeffs[(n, j2)] = Fraction(eps * sign ** n, factorial(n))
    return t_series(tcap, cap, coeffs)


def _tv_q_factor(eps: int, j2: int, tcap, cap) -> QHalfSeries:
    """1 + eps * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        coeffs[(0, j2)] = coeffs.get((0, j2), Fraction(0)) + eps
    return t_series(tcap, cap, coeffs)


def tv_sinh_ratio(tcap, cap) -> QHalfSeries:
    """sinh(t/2)/(t/2) = sum_m t^(2m) / (4^m (2m+1)!)."""
    return t_series(tcap, cap, {(2 * m, 0): Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(tcap // 2 + 1)})


def tv_cosh(tcap, cap) -> QHalfSeries:
    """cosh(t/2) = sum_m t^(2m) / (4^m (2m)!)."""
    return t_series(tcap, cap, {(2 * m, 0): Fraction(1, 4**m * factorial(2 * m)) for m in range(tcap // 2 + 1)})


def tv_sinh(tcap, cap) -> QHalfSeries:
    """sinh(t/2) = sum_m t^(2m+1) / (2^(2m+1) (2m+1)!)."""
    return t_series(
        tcap, cap, {(2 * m + 1, 0): Fraction(1, 2 ** (2 * m + 1) * factorial(2 * m + 1)) for m in range((tcap + 1) // 2)}
    )


def product_quotient(kind, tcap, cap):
    """The quotient's (numerator, denominator) as running products, the two
    factors at each q-power paired first."""
    num = den = t_series(tcap, cap, {(0, 0): 1})
    if kind == "A":
        den = tv_sinh_ratio(tcap, cap)
        for j in range(1, cap + 1):
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            num = num * (f * f)
            den = den * (_tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap))
    elif kind == "B1":
        num = tv_cosh(tcap, cap)
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
        num = tv_sinh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * (_tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap))
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            den = den * (f * f)
    return num, den


def unpaired_quotient(kind, tcap, cap):
    """The quotient's (numerator, denominator) as running products, every
    factor multiplied in in turn."""
    num = den = t_series(tcap, cap, {(0, 0): 1})
    if kind == "A":
        den = tv_sinh_ratio(tcap, cap)
        for j in range(1, cap + 1):
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            num = num * f * f
            den = den * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
    elif kind == "B1":
        num = tv_cosh(tcap, cap)
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
        num = tv_sinh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            den = den * f * f
    return num, den


# Every denominator has t=0 slice 1, a unit, so quotient * den == num pins the quotient.


@pytest.mark.parametrize("kind", THETA_QUOTIENT_KINDS)
@pytest.mark.parametrize("tcap, cap", [(0, 0), (3, 1), (6, 2), (10, 3), (5, 3), (11, 7)])
def test_theta_quotient_matches_unpaired_order(kind, tcap, cap):
    num, den = unpaired_quotient(kind, tcap, cap)
    assert quotient_series(kind, tcap, cap) * den == num


@pytest.mark.parametrize("kind", THETA_QUOTIENT_KINDS)
@pytest.mark.parametrize("tcap, cap", [(0, 0), (3, 1), (6, 2), (11, 7)])
def test_theta_quotient_matches_paired_products(kind, tcap, cap):
    num, den = product_quotient(kind, tcap, cap)
    assert quotient_series(kind, tcap, cap) * den == num


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "B3"])
@pytest.mark.parametrize("tcap, cap", [(0, 0), (4, 2), (6, 4), (11, 7)])
def test_closed_form_log_is_the_log_of_the_products(kind, tcap, cap):
    log = theta_quotient(kind, tcap, cap)
    num, den = product_quotient(kind, tcap, cap)
    assert qseries_exp(log) * den == num
    assert theta_quotient(kind, tcap, cap) is log


def test_the_line_quotient_has_no_logarithm():
    with pytest.raises(ValueError, match="quotient_series"):
        theta_quotient("L", 6, 2)


# The q^0 logarithms as polynomials in t2 = t^2, so that `naive_log_poly` can take them.
T2 = GeneratorTable([("t2", 2)])


def as_t2_poly(series: QHalfSeries) -> GradedPoly:
    """An even q^0 series in t, cut at t-cap 2M, as the polynomial in t2 of degree at most 2M."""
    top = t_cap(series) // 2
    coeffs = t_coeffs(series)
    assert all(j2 == 0 and n % 2 == 0 for n, j2 in coeffs)
    return GradedPoly(T2, 2 * top, {(n // 2,): c for (n, _), c in coeffs.items()})


@pytest.mark.parametrize("tcap", range(41))
def test_the_bernoulli_logs_are_the_logs_of_the_factorial_series(tcap):
    """A's q^0 logarithm, a Bernoulli sum, is minus the term-by-term logarithm
    of the factorial series sinh(t/2)/(t/2), and log A(t) - log A(2t) at q^0,
    B1's, is the term-by-term log cosh(t/2), through t-cap 40; B2 and B3
    have none."""
    sinh_ratio, cosh = (as_t2_poly(f(tcap, 0)) for f in (tv_sinh_ratio, tv_cosh))
    for kind, expected in (("A", -naive_log_poly(sinh_ratio)), ("B1", naive_log_poly(cosh))):
        assert as_t2_poly(_quotient_log(kind, tcap, 0)) == expected
    assert _quotient_log("A", tcap, 0) is _log_a(tcap, 0)
    assert _quotient_log("B2", tcap, 0).is_zero() and theta_quotient("B3", tcap, 0).is_zero()


def test_the_bernoulli_numbers():
    """B_0..B_12 and B_odd = 0 past B_1, the values of any table."""
    expected = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
                Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730)]
    assert [theta._bernoulli(n) for n in range(13)] == expected
    assert all(theta._bernoulli(n) == 0 for n in range(3, 60, 2))


def perturbed_log_a(monkeypatch, n, j2):
    """Patch A's closed-form logarithm, which every quotient reads, off by 1/24 at t^n q^(j2/2)."""
    closed_form = theta._log_a

    def perturbed(tcap, cap):
        return closed_form(tcap, cap) + t_series(tcap, cap, {(n, j2): Fraction(1, 24)})

    monkeypatch.setattr(theta, "_log_a", perturbed)


@pytest.mark.parametrize("kind", ["A", "B1", "B2", "B3", "L"])
def test_a_perturbed_divisor_sum_is_caught(kind, monkeypatch, fresh_memos):
    """Negative control: one divisor-sum coefficient of A's logarithm off by
    1/(2m)! fails the product check of every quotient, since each reads it."""
    perturbed_log_a(monkeypatch, 4, 4)
    tcap, cap = 6, 3
    num, den = product_quotient(kind, tcap, cap)
    assert quotient_series(kind, tcap, cap) * den != num


@pytest.mark.parametrize("kind", ["A", "B1", "L"])
def test_a_perturbed_bernoulli_sum_is_caught(kind, monkeypatch, fresh_memos):
    """Negative control: A's q^0 logarithm off at t^4 fails the product check
    of A, of L = (t/2)/A, and of B1, whose q^0 logarithm is A's at t less
    16 times it."""
    perturbed_log_a(monkeypatch, 4, 0)
    tcap, cap = 6, 3
    num, den = product_quotient(kind, tcap, cap)
    assert quotient_series(kind, tcap, cap) * den != num


# -- input errors --------------------------------------------------------------------


class TestTSeriesInputErrors:
    SERIES = t_series(4, 2, {(0, 0): Fraction(1), (2, 1): Fraction(1, 2)})

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

    def test_scalars_still_multiply(self):
        assert t_coeffs(self.SERIES * 2) == {(0, 0): 2, (2, 1): 1}
        assert t_coeffs(Fraction(1, 2) * self.SERIES) == {(0, 0): Fraction(1, 2), (2, 1): Fraction(1, 4)}


# -- the shared IntForm arithmetic -----------------------------------------------------


int_forms = st.one_of(
    poly_pairs().map(operator.itemgetter(0)),
    series_pairs.map(operator.itemgetter(0)),
    caps.flatmap(lambda tcap_cap: series(*tcap_cap)),
)


class TestSharedArithmetic:
    """GradedPoly and QHalfSeries, over a root table or the t table, run one copy of their arithmetic."""

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
        t = qseries_exp(t_series(4, 2, {(2, 1): Fraction(1, 2)}))
        p = GradedPoly(self.TABLE, 8, {(0, 0): 1, (1, 0): 2})
        for x in (p, q, t):
            for result in (-x, x + x, x * x, x * 2, x.tau_shift_half(), type(x)._make(*x._shape, 1, [])):
                assert type(result) is type(x)
                assert all(getattr(result, name) is None for name in type(x)._KEPT)
        assert GradedPoly._KEPT == ()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=lambda op: op.__name__)
    def test_mixed_classes_do_not_combine(self, op):
        poly = GradedPoly.one(self.TABLE, 4)
        forms = (poly, QHalfSeries.one(PolyRing(self.TABLE, 4), 2), t_series(4, 2, {(0, 0): 1}))
        for a, b in permutations(forms, 2):
            with pytest.raises(TypeError):
                op(a, b)
        assert poly != forms[1] and forms[1] != forms[2]


# -- moving a form onto another shape -------------------------------------------------

# Sizes on both sides of the 8/16-bit digit boundary: truncation 254 packs
# 8-bit digits and 256 16-bit ones; so do t-caps 127 and 128.
SHAPE_TRUNCATIONS = st.sampled_from((0, 2, 10, 254, 256))
SHAPE_T_CAPS = (0, 1, 5, 127, 128)


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
        constants = {j2: ring.coerce(c.constant_term) for j2, c in s.coeffs.items()}
        assert promoted == QHalfSeries(ring, s.cap, constants)
        for result in (moved, promoted):
            assert_series_invariants(result)

    @SETTINGS
    @given(st.data())
    def test_t_series(self, data):
        high = data.draw(st.sampled_from(SHAPE_T_CAPS))
        low = data.draw(st.sampled_from([tcap for tcap in SHAPE_T_CAPS if tcap <= high]))
        v = data.draw(series(high, data.draw(st.integers(0, 4))))
        cap = data.draw(st.integers(0, v.cap))
        moved = v._reshaped(PolyRing(theta._T, 2 * low), cap)
        assert moved == t_series(low, cap, t_coeffs(v))
        assert_two_var_invariants(moved)
