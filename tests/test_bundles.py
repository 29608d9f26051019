"""Virtual bundles, lambda-ring operations, theta-power bundle series (as ch)."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly.algebra import GeneratorTable, GradedPoly, exp_truncated, pontryagin_table
from anomaly.bundles import (
    VirtualBundle,
    _lam_factor,
    _sym_factor,
    aux_complexification,
    line_real_complexification,
    spinor_bundle,
    tangent_complexification,
    theta_series,
)
from anomaly.genera import spinor_ch
from anomaly.qseries import PolyRing, QHalfSeries

SETTINGS = settings(max_examples=60, deadline=None)


def random_bundle(rng, table, truncation, *, rank_span=6, rank=None):
    """A random virtual bundle from a random Chern character; a random rank unless given."""
    if rank is None:
        rank = rng.randint(-rank_span, rank_span)
    ch = GradedPoly.constant(table, truncation, rank)
    names = list(table.names)
    for _ in range(4):
        expts = tuple(rng.randint(0, 2) for _ in names)
        if table.monomial_degree(expts) == 0 or table.monomial_degree(expts) > truncation:
            continue
        ch = ch + GradedPoly(table, truncation, {expts: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    assert ch.constant_term == rank
    return VirtualBundle(table, truncation, rank, ch - rank)


# Tables with one, two and three generator degrees (the last with cL).
BUNDLE_TABLES = (pontryagin_table(8), pontryagin_table(8, aux=True), pontryagin_table(10, line=True))


@st.composite
def bundle_arguments(draw, table):
    """Constructor arguments `(table, truncation, rank, reduced)` over `table`: a random even
    truncation, a random rank and a random reduced character."""
    truncation = draw(st.sampled_from(range(0, max(table.degrees) + 3, 2)))
    exponents = st.tuples(*[st.integers(0, 2) for _ in range(len(table))])
    coefficients = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    terms.pop((0,) * len(table), None)
    return table, truncation, draw(st.integers(-4, 4)), GradedPoly(table, truncation, terms)


def virtual_bundles(table):
    """A virtual bundle over `table` at a random even truncation, with a random rank and reduced character."""
    return bundle_arguments(table).map(lambda args: VirtualBundle(*args))


@st.composite
def bundle_pairs(draw):
    """Two virtual bundles over one table, each at its own truncation."""
    table = draw(st.sampled_from(BUNDLE_TABLES))
    return draw(virtual_bundles(table)), draw(virtual_bundles(table))


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


class TestOneCharacterPerBundle:
    """A bundle is its Chern character; the rank and the reduced part are read off it."""

    @SETTINGS
    @given(st.sampled_from(BUNDLE_TABLES).flatmap(bundle_arguments), st.integers(1, 4))
    def test_derived_fields_round_trip(self, args, k):
        table, truncation, rank, reduced = args
        W = VirtualBundle(table, truncation, rank, reduced)
        assert W.rank == rank and type(W.rank) is int
        assert W.reduced == reduced
        assert W.ch() == reduced + rank
        assert W.ch() is W.ch()
        assert W.truncation == W.ch().truncation == truncation
        assert W.reduce().ch() == W.ch() - rank
        assert W.adams(k).rank == rank

    def test_reduced_truncated_below_the_bundle_is_rejected(self):
        table = pontryagin_table(8)
        with pytest.raises(ValueError, match="truncated at degree 4"):
            VirtualBundle(table, 8, 1, GradedPoly.generator(table, "pX1", 4))

    def test_reduced_truncated_above_the_bundle_is_cut(self):
        table = pontryagin_table(8)
        T = tangent_complexification(table, 8)
        W = VirtualBundle(table, 4, 8, T.reduced)
        assert W.truncation == W.ch().truncation == 4
        assert W.ch() == T.ch().truncate(4)
        assert W.lambda_power(2).ch() == T.lambda_power(2).ch().truncate(4)

    def test_non_integral_rank_is_an_error(self):
        one = VirtualBundle.trivial(pontryagin_table(8), 8, 1)
        with pytest.raises(ValueError, match="non-integral rank"):
            one._signed_sum([(one, one)], 2)


class TestTrustedFactors:
    @SETTINGS
    @given(st.sampled_from(BUNDLE_TABLES).flatmap(virtual_bundles), st.integers(0, 5))
    def test_each_factor_equals_the_constructor_built_series(self, W, cap):
        """`_sym_factor` and `_lam_factor` skip the public constructor's checks;
        each equals the series that the constructor builds from the powers'
        characters, at every step (past the cap too) and sign."""
        ring = PolyRing(W.table, W.truncation)
        for n in range(1, cap + 2):
            built = QHalfSeries(ring, cap, {2 * n * k: W.sym_power(k).ch() for k in range(cap + 1)})
            assert _sym_factor(W, n, cap) == built
        for step2 in range(1, 2 * cap + 2):
            for sign in (1, -1):
                built = QHalfSeries(ring, cap, {step2 * k: sign**k * W.lambda_power(k).ch() for k in range(2 * cap + 1)})
                assert _lam_factor(W, step2, sign, cap) == built


class TestAdamsOperations:
    def test_degree_scaling(self):
        table = pontryagin_table(8)
        red = tangent_complexification(table, 8).reduce()
        psi2 = red.adams(2)
        assert psi2.ch().homogeneous_component(4) == 4 * red.ch().homogeneous_component(4)
        assert psi2.ch().homogeneous_component(8) == 16 * red.ch().homogeneous_component(8)

    @SETTINGS
    @given(bundle_pairs(), st.integers(1, 4), st.integers(1, 4))
    def test_composition_and_ring_laws(self, pair, j, k):
        """psi^k is additive and multiplicative, and psi^j psi^k = psi^(jk)."""
        x, y = pair
        assert x.adams(j).adams(k) == x.adams(j * k)
        assert (x + y).adams(k) == x.adams(k) + y.adams(k)
        assert (x * y).adams(k) == x.adams(k) * y.adams(k)

    def test_on_sum_of_line_bundles(self):
        # over formal roots, psi^k sends each line factor exp(t) to exp(k*t)
        roots = GeneratorTable([("t1", 2), ("t2", 2), ("t3", 2)])
        trunc = 8
        ts = [GradedPoly.generator(roots, f"t{i}", trunc) for i in range(1, 4)]
        ch = sum((exp_truncated(t) for t in ts), GradedPoly.zero(roots, trunc))
        assert ch.constant_term == 3
        bundle = VirtualBundle(roots, trunc, 3, ch - 3)
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
        ch = sum(lines, GradedPoly.zero(roots, trunc))
        assert ch.constant_term == 3
        bundle = VirtualBundle(roots, trunc, 3, ch - 3)
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

    @SETTINGS
    @given(bundle_pairs(), st.integers(1, 5))
    def test_lambda_additivity(self, pair, n):
        """lambda_t(x + y) = lambda_t(x) lambda_t(y): lam^n(x + y) = sum_i lam^i(x) lam^(n-i)(y)."""
        x, y = pair
        combined = VirtualBundle.zero(x.table, min(x.truncation, y.truncation))
        for i in range(n + 1):
            combined = combined + x.lambda_power(i) * y.lambda_power(n - i)
        assert (x + y).lambda_power(n) == combined

    @SETTINGS
    @given(st.sampled_from(BUNDLE_TABLES).flatmap(virtual_bundles), st.integers(1, 5))
    def test_sym_inverts_lambda(self, x, n):
        """S_t(x) lambda_{-t}(x) = 1: sum_i (-1)^i lam^i(x) S^(n-i)(x) = 0 for n >= 1."""
        acc = VirtualBundle.zero(x.table, x.truncation)
        for i in range(n + 1):
            acc = acc + x.lambda_power(i) * x.sym_power(n - i) * ((-1) ** i)
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


class TestForeignOperands:
    T = tangent_complexification(pontryagin_table(8), 8)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "x", None, GradedPoly.one(pontryagin_table(8), 8)])
    def test_add_and_sub_need_a_bundle(self, other):
        with pytest.raises(TypeError):
            self.T + other
        with pytest.raises(TypeError):
            self.T - other
        with pytest.raises(TypeError):
            other + self.T

    @pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, "x", None, GradedPoly.one(pontryagin_table(8), 8)])
    def test_mul_needs_an_int_or_a_bundle(self, other):
        with pytest.raises(TypeError):
            self.T * other
        with pytest.raises(TypeError):
            other * self.T

    def test_ints_and_bundles_still_combine(self):
        assert (self.T * 2).ch() == 2 * self.T.ch()
        assert (3 * self.T).rank == 24
        assert (self.T - self.T).is_zero()


class TestMemoizedBundles:
    def test_constructors_return_one_bundle_equal_to_a_fresh_build(self):
        table = pontryagin_table(12, aux=True)
        line = pontryagin_table(14, line=True)
        for constructor, args in (
            (tangent_complexification, (table, 12)),
            (aux_complexification, (table, 12)),
            (line_real_complexification, (line, 14)),
            (spinor_bundle, (table, 12)),
        ):
            memo = constructor(*args)
            memo.lambda_power(3)  # cached powers do not enter equality
            assert constructor(*args) is memo
            assert memo == constructor.__wrapped__(*args)
        assert tangent_complexification(pontryagin_table(12, aux=True), 12) is tangent_complexification(table, 12)

    def test_the_spinor_bundle_is_its_character(self):
        table = pontryagin_table(12)
        delta = spinor_bundle(table, 12)
        assert delta.rank == 2**6
        assert delta.ch() == spinor_ch(table, 12)

    def test_reduce_is_kept_and_is_the_bundle_itself_at_rank_zero(self):
        T = tangent_complexification(pontryagin_table(8), 8)
        red = T.reduce()
        assert red is T.reduce()
        assert red == VirtualBundle(T.table, 8, 0, T.reduced)
        assert red.reduce() is red
        V = aux_complexification(pontryagin_table(8, aux=True), 8)
        assert V.rank == 0 and V.reduce() is V


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
        with pytest.raises(ValueError):
            theta_series("sectors", self.TX, cap=2)  # missing the spinor bundle


# -- oracles: the per-term recursions and the sequential product --------------------
#
# The engine sums each power in one accumulator and multiplies the theta factors
# sparsest first.  These oracles keep the plain forms: one VirtualBundle product
# and sum per term of the Newton recursions, and a running product times each
# factor in turn, in the order the factors are written.


def newton_powers(W, top):
    """lam^n(W) and S^n(W) for n <= top, one VirtualBundle product and sum per term."""
    one = VirtualBundle.trivial(W.table, W.truncation, 1)
    lam, sym = [one], [one]
    for n in range(1, top + 1):
        acc = VirtualBundle.zero(W.table, W.truncation)
        for i in range(1, n + 1):
            contrib = W.adams(i) * lam[n - i]
            acc = acc + (contrib if i % 2 else -contrib)
        rank, rem = divmod(acc.rank, n)
        assert not rem
        lam.append(VirtualBundle(W.table, W.truncation, rank, acc.reduced / n))
    for n in range(1, top + 1):
        acc = VirtualBundle.zero(W.table, W.truncation)
        for i in range(1, n + 1):
            contrib = lam[i] * sym[n - i]
            acc = acc + (contrib if i % 2 else -contrib)
        sym.append(acc)
    return lam, sym


def sequential_theta(kind, TX, V, cap, powers):
    """theta_series as a running product times each factor in turn.

    `powers` maps a reduced bundle's id to its `newton_powers`, at least
    2*cap deep.
    """
    if kind == "theta2+theta3":
        return sequential_theta("theta2", TX, V, cap, powers) + sequential_theta("theta3", TX, V, cap, powers)
    if kind == "sectors":  # Θ1⊗Δ + 2^(d/2)(Θ2 + Θ3), with V = Δ of rank 2^(d/2)
        theta23 = sequential_theta("theta2+theta3", TX, V, cap, powers)
        return sequential_theta("theta1", TX, V, cap, powers).scale(V.ch()) + theta23 * V.rank
    T = TX.reduce()

    def factor(W, step2, sign, lam_or_sym):
        ch = {k * step2: lam_or_sym[k].ch() * sign**k for k in range(2 * cap // step2 + 1)}
        return QHalfSeries(PolyRing(W.table, W.truncation), cap, ch)

    lams = []
    if kind == "theta1":
        lams = [(T, 2 * m, +1) for m in range(1, cap + 1)]
    elif kind in ("theta2", "theta3"):
        lams = [(T, 2 * m - 1, -1 if kind == "theta2" else +1) for m in range(1, cap + 1)]
    elif kind == "thetaV":
        Vr = V.reduce()
        lams = [(Vr, 2 * m, +1) for m in range(1, cap + 1)]
        lams += [(Vr, 2 * m - 1, sign) for m in range(1, cap + 1) for sign in (+1, -1)]
    elif kind == "thetaL":
        lams = [(V.reduce(), 2 * m, -1) for m in range(1, cap + 1)]
    out = QHalfSeries.one(PolyRing(TX.table, T.truncation), cap)
    for n in range(1, cap + 1):
        out = out * factor(T, 2 * n, +1, powers[id(T)][1])
    for W, step2, sign in lams:
        out = out * factor(W, step2, sign, powers[id(W)][0])
    return out


class TestPowerOracles:
    @pytest.mark.parametrize("rank", [0, -3, -1, 2, 5], ids=repr)
    @pytest.mark.parametrize(
        "table, truncation", [(pontryagin_table(8), 8), (pontryagin_table(12, aux=True), 12)], ids=["spin8", "aux12"]
    )
    def test_powers_match_the_per_term_recursion(self, table, truncation, rank):
        rng = random.Random(1000 * truncation + rank)
        for _ in range(2):
            W = random_bundle(rng, table, truncation, rank=rank)
            lam, sym = newton_powers(W, 8)
            for k in range(9):
                assert W.lambda_power(k) == lam[k]
                assert W.sym_power(k) == sym[k]


def _oracle_inputs():
    """(kind, TX, V) as pytest params: the spin table at dims 8 and 12 (with
    V the spinor bundle for the sectors), the aux table for thetaV (once with
    V truncated below TX, so the product's ring is the smaller one) and the
    line table at dim 10 for thetaL."""
    out = []
    for dim in (8, 12):
        spin = pontryagin_table(dim)
        TX = tangent_complexification(spin, dim)
        out += [pytest.param(kind, TX, None, id=f"{kind}-spin{dim}") for kind in ("theta1", "theta2", "theta3", "theta2+theta3")]
        out.append(pytest.param("sectors", TX, spinor_bundle(spin, dim), id=f"sectors-spin{dim}"))
        aux = pontryagin_table(dim, aux=True)
        TX = tangent_complexification(aux, dim)
        out.append(pytest.param("thetaV", TX, aux_complexification(aux, dim), id=f"thetaV-aux{dim}"))
    out.append(pytest.param("thetaV", TX, aux_complexification(aux, 8), id="thetaV-aux12-V8"))
    line = pontryagin_table(10, line=True)
    out.append(pytest.param("thetaL", tangent_complexification(line, 10), line_real_complexification(line, 10), id="thetaL-line10"))
    return out


class TestThetaSeriesOracle:
    @pytest.mark.parametrize("kind, TX, V", _oracle_inputs())
    def test_every_kind_matches_the_sequential_product(self, kind, TX, V):
        powers = {}
        for W in (TX.reduce(), V.reduce() if kind in ("thetaV", "thetaL") else None):  # the sectors read no power of Δ
            if W is not None:
                powers[id(W)] = newton_powers(W, 10)
        for cap in range(6):
            assert theta_series(kind, TX, V, cap=cap) == sequential_theta(kind, TX, V, cap, powers)

    @pytest.mark.parametrize("cap", range(1, 6))
    def test_theta_v_reads_the_exterior_powers_of_v_to_the_cap(self, cap):
        """The half-step pair is one product over psi^2 V~ at whole q-steps, so
        no exterior power of V~ above lam^cap is built (2*cap through the pair)."""
        table = pontryagin_table(12, aux=True)
        TX, V = tangent_complexification.__wrapped__(table, 12), aux_complexification.__wrapped__(table, 12)
        theta_series("thetaV", TX, V, cap)
        assert V.reduce() is V and len(V._lam) == cap + 1
        assert len(V.adams(2)._lam) == cap + 1

    @pytest.mark.parametrize("dim", [8, 12])
    def test_theta2_plus_theta3_is_the_sum(self, dim):
        TX = tangent_complexification(pontryagin_table(dim), dim)
        for cap in range(6):
            both = theta_series("theta2+theta3", TX, cap=cap)
            assert both == theta_series("theta2", TX, cap=cap) + theta_series("theta3", TX, cap=cap)
            assert both.integer_powers_only()


class TestHalfPeriodShift:
    """theta_series builds every half-step exterior product with the sign -1 and
    takes the +1 product as its shift q^(1/2) -> -q^(1/2).  The oracle is the
    dropped construction: the chain of Lam_{+q^(m-1/2)} factors itself."""

    CAP = 5

    @staticmethod
    def chains(W, cap):
        one = QHalfSeries.one(PolyRing(W.table, W.truncation), cap)
        half = range(2 * cap - 1, 0, -2)
        minus = reduce(mul, [_lam_factor(W, step, -1, cap) for step in half], one)
        plus = reduce(mul, [_lam_factor(W, step, +1, cap) for step in half], one)
        return minus, plus

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_plus_chain_is_the_shift(self, dim):
        TX = tangent_complexification(pontryagin_table(dim), dim)
        minus, plus = self.chains(TX.reduce(), self.CAP)
        assert plus == minus.tau_shift_half()
        theta2 = theta_series("theta2", TX, cap=self.CAP)
        # theta2 = S * minus with S over integer q-powers, so S * plus is theta2 shifted
        assert theta_series("theta3", TX, cap=self.CAP) == theta2.tau_shift_half()
        assert theta_series("theta2+theta3", TX, cap=self.CAP) == theta2 + theta2.tau_shift_half()

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_v_plus_chain_is_the_shift(self, dim):
        aux = pontryagin_table(dim, aux=True)
        TX, V = tangent_complexification(aux, dim), aux_complexification(aux, dim)
        Vr = V.reduce()
        minus, plus = self.chains(Vr, self.CAP)
        assert plus == minus.tau_shift_half()
        one = QHalfSeries.one(PolyRing(aux, dim), self.CAP)
        whole = reduce(mul, [_lam_factor(Vr, 2 * m, +1, self.CAP) for m in range(1, self.CAP + 1)], one)
        sym = reduce(mul, [_sym_factor(TX.reduce(), n, self.CAP) for n in range(1, self.CAP + 1)], one)
        assert theta_series("thetaV", TX, V, cap=self.CAP) == sym * whole * plus * minus

    @pytest.mark.parametrize("rank", [0, -3, 2], ids=repr)
    @pytest.mark.parametrize(
        "table, truncation", [(pontryagin_table(8), 8), (pontryagin_table(12, aux=True), 12)], ids=["spin8", "aux12"]
    )
    def test_the_half_step_pair_is_psi2_at_odd_whole_steps(self, table, truncation, rank):
        """prod_m Lam_{-q^(m-1/2)}(W) (x) Lam_{+q^(m-1/2)}(W) = prod_{m odd} Lam_{-q^m}(psi^2 W),
        per Chern root (1 - x e^v)(1 + x e^v) = 1 - x^2 e^(2v), for any virtual W."""
        W = random_bundle(random.Random(100 * truncation + rank), table, truncation, rank=rank)
        one = QHalfSeries.one(PolyRing(table, truncation), self.CAP)
        minus, plus = self.chains(W, self.CAP)
        odd = range(2, 2 * self.CAP + 1, 4)
        assert reduce(mul, [_lam_factor(W.adams(2), step, -1, self.CAP) for step in odd], one) == minus * plus


class TestIntegerArguments:
    """Bools and non-int values are not ranks, powers or q-caps."""

    T = tangent_complexification(pontryagin_table(8), 8)

    @pytest.mark.parametrize("cap", [2.7, 2.0, True, False, "3", None], ids=repr)
    def test_theta_series_cap(self, cap):
        with pytest.raises(ValueError):
            theta_series("theta1", self.T, cap=cap)

    @pytest.mark.parametrize("rank", [True, False, 2.0, "2"], ids=repr)
    def test_virtual_bundle_rank(self, rank):
        with pytest.raises(ValueError):
            VirtualBundle(self.T.table, 8, rank, self.T.reduced)

    @pytest.mark.parametrize("k", [True, 2.0, "2"], ids=repr)
    def test_adams(self, k):
        with pytest.raises(ValueError):
            self.T.adams(k)

    @pytest.mark.parametrize("k", [True, False, 2.0, "2"], ids=repr)
    def test_lambda_power(self, k):
        with pytest.raises(ValueError):
            self.T.lambda_power(k)

    @pytest.mark.parametrize("k", [True, False, 2.0, "2"], ids=repr)
    def test_sym_power(self, k):
        with pytest.raises(ValueError):
            self.T.sym_power(k)

    @pytest.mark.parametrize("truncation", [8.7, 8.0, True, "8", 7], ids=repr)
    def test_virtual_bundle_truncation(self, truncation):
        with pytest.raises(ValueError):
            VirtualBundle(self.T.table, truncation, 1)
        with pytest.raises(ValueError):
            VirtualBundle(self.T.table, truncation, 1, self.T.reduced)

    @pytest.mark.parametrize("multiple", [True, False], ids=repr)
    def test_bool_multiples(self, multiple):
        with pytest.raises(ValueError):
            self.T * multiple
        with pytest.raises(ValueError):
            multiple * self.T
