"""Theta quotients, their logarithms read off A's, Jacobi's product and duplication
identities, and the root-product bridge."""

import gc
from fractions import Fraction
from math import factorial

import pytest

from anomaly import theta
from anomaly.algebra import GeneratorTable, GradedPoly, IntForm, pontryagin_table, to_pontryagin
from anomaly.genera import aux_bundle_factor
from anomaly.qseries import PolyRing, QHalfSeries, qseries_exp
from anomaly.theta import (
    _bridged_log,
    _quotient_log,
    line_quotient_evaluation,
    q_series_via_theta,
    quotient_series,
    theta_quotient,
)
from anomaly.verifier import CASE_DIMS, CaseSpec, run_cases, theta_route_integrand
from oracles import (
    divisor_sum_log,
    hyperbolic_log,
    jacobi_identity_residual,
    naive_substitute,
    q_power,
    t_coeffs,
    t_series,
)


class TestQuotientSlices:
    def test_A_constant_slice_is_ahat_factor(self):
        A = t_coeffs(quotient_series("A", 8, 2))
        golden = {0: 1, 2: Fraction(-1, 24), 4: Fraction(7, 5760), 6: Fraction(-31, 967680)}
        for n, value in golden.items():
            assert A[(n, 0)] == value
        assert (1, 0) not in A

    def test_A_first_slice(self):
        A = t_coeffs(quotient_series("A", 6, 2))
        assert A[(2, 2)] == 1
        assert A[(4, 2)] == Fraction(1, 24)
        assert A[(6, 2)] == Fraction(1, 1920)

    def test_B1_constant_slice_is_cosh(self):
        B1 = t_coeffs(quotient_series("B1", 8, 2))
        golden = {0: 1, 2: Fraction(1, 8), 4: Fraction(1, 384), 6: Fraction(1, 46080)}
        for n, value in golden.items():
            assert B1[(n, 0)] == value

    def test_B2_B3_constant_slices_are_one(self):
        for kind in ("B2", "B3"):
            quot = t_coeffs(quotient_series(kind, 6, 2))
            assert quot[(0, 0)] == 1
            for n in range(1, 7):
                assert (n, 0) not in quot

    def test_L_constant_slice_is_sinh(self):
        L = t_coeffs(quotient_series("L", 7, 2))
        golden = {1: Fraction(1, 2), 3: Fraction(1, 48), 5: Fraction(1, 3840), 7: Fraction(1, 645120)}
        for n, value in golden.items():
            assert L[(n, 0)] == value

    def test_parities(self):
        for kind, tcap, parity in (("A", 6, 0), ("B1", 6, 0), ("B2", 6, 0), ("B3", 6, 0), ("L", 7, 1)):
            assert {n % 2 for n, _ in t_coeffs(quotient_series(kind, tcap, 2))} <= {parity}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            theta_quotient("Z", 6, 2)


class TestMemoizedQuotientCapsAreChecked:
    """`theta_quotient` checks both caps on every call, also when an equal
    int key is cached."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        theta_quotient.cache_clear()
        yield
        theta_quotient.cache_clear()

    @pytest.mark.parametrize("bad", [(4.0, True), (4, True), (4.0, 1), (4, 1.0), ("4", 1)], ids=repr)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bad_caps_rejected_in_either_cache_order(self, warm, bad):
        if warm:
            expected = theta_quotient("A", 4, 1)
        with pytest.raises(ValueError, match="cap"):
            theta_quotient("A", *bad)
        if not warm:
            expected = theta_quotient("A", 4, 1)
        assert theta_quotient("A", 4, 1) is expected and expected._shape == (PolyRing(theta._T, 8), 1)


class TestHalfShiftSwap:
    def test_B2_B3_swap_through_high_order(self):
        b2 = quotient_series("B2", 10, 5)
        b3 = quotient_series("B3", 10, 5)
        assert b2.tau_shift_half() == b3
        assert b3.tau_shift_half() == b2

    def test_A_B1_invariant(self):
        for kind in ("A", "B1"):
            quot = quotient_series(kind, 6, 3)
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
            assert residual.coefficient(j2).is_zero()


def doubled(series: QHalfSeries) -> QHalfSeries:
    """series(2t, q): the t^n coefficients times 2^n."""
    coeffs = {(n, j2): c * 2**n for (n, j2), c in t_coeffs(series).items()}
    return t_series(series.ring.truncation // 2, series.cap, coeffs)


def old_closed_form(kind, tcap, cap) -> QHalfSeries:
    """log Q from its own divisor and Bernoulli sums, as the engine once wrote each kind."""
    return t_series(tcap, cap, divisor_sum_log(kind, tcap, cap) | hyperbolic_log(kind, tcap))


class TestOneClosedForm:
    """B1 and B2 take their logarithms from A's at rescaled arguments; the
    oracles are the sums the engine wrote for each kind before, and Jacobi's
    duplication formula B1 B2 B3 (t) = A(t)/A(2t) (Whittaker-Watson, ch. 21)."""

    @pytest.mark.parametrize("kind", ["A", "B1", "B2"])
    def test_each_logarithm_is_its_old_closed_form(self, kind):
        for tcap in range(17):
            for cap in range(9):
                assert _quotient_log(kind, tcap, cap) == old_closed_form(kind, tcap, cap), (tcap, cap)

    @pytest.mark.parametrize("tcap, cap", [(0, 0), (1, 8), (7, 3), (12, 5), (16, 8)])
    def test_the_duplication_formula_on_the_old_closed_forms(self, tcap, cap):
        """log B1 + log B2 + log B3 = log A(t) - log A(2t), B3's log the half-period shift of B2's."""
        b2 = old_closed_form("B2", tcap, cap)
        a = old_closed_form("A", tcap, cap)
        assert old_closed_form("B1", tcap, cap) + b2 + b2.tau_shift_half() == a - doubled(a)

    @pytest.mark.parametrize("tcap, cap", [(0, 0), (1, 8), (7, 3), (12, 5), (16, 8)])
    def test_the_duplication_formula_on_the_quotients(self, tcap, cap):
        """B1 B2 B3 (t) A(2t) = A(t), multiplied out on the quotients' coefficients."""
        quotients = {kind: quotient_series(kind, tcap, cap) for kind in ("A", "B1", "B2", "B3")}
        b = quotients["B1"] * quotients["B2"] * quotients["B3"]
        assert b * doubled(quotients["A"]) == quotients["A"]
        if tcap >= 2:  # with A(t) for A(2t) it fails: the formula reads the rescaling
            assert b * quotients["A"] != quotients["A"]


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
            quot = quotient_series(kind, trunc, cap)
            engine = qseries_exp(_bridged_log(theta_quotient(kind, trunc, cap), p_table, "pX", trunc, cap))
            subbed = QHalfSeries(root_ring, cap, {j2: naive_substitute(p, images, roots) for j2, p in engine.coeffs.items()})
            brute = QHalfSeries.one(root_ring, cap)
            for x in (x1, x2):
                factor = QHalfSeries.zero(root_ring, cap)
                for (n, j2), coeff in sorted(t_coeffs(quot).items()):
                    if j2 > 2 * cap:
                        continue
                    term = GradedPoly.constant(roots, trunc, coeff) * x ** (n // 2)
                    factor = factor + q_power(root_ring, cap, j2, term)
                brute = brute * factor
            assert subbed == brute

    def test_odd_quotient_rejected(self):
        with pytest.raises(ValueError):
            qseries_exp(_bridged_log(theta_quotient("L", 7, 2), pontryagin_table(8), "pX", 8, 2))

    @pytest.mark.parametrize(
        "log, message", [({(0, 1): 1}, "log has a pure q term"), ({(1, 0): 1, (2, 1): 1}, "not even in t")]
    )
    def test_a_logarithm_of_no_normalized_even_quotient_is_refused(self, log, message):
        with pytest.raises(ValueError, match=message):
            _bridged_log(t_series(8, 2, log), pontryagin_table(8), "pX", 8, 2)

    @pytest.mark.parametrize("tcap, qcap, cap", [(2, 1, 1), (7, 3, 3), (8, 1, 3), (8, 2, 3), (0, 0, 0)])
    def test_a_quotient_cut_below_the_claim_is_refused(self, tcap, qcap, cap):
        """t-cap 16 // 2 = 8 and q-cap `cap` are needed: a lower cut would lose
        the pX2..pX4 terms or the q-powers past its own cap."""
        with pytest.raises(ValueError, match="needs t-cap 8"):
            qseries_exp(_bridged_log(theta_quotient("A", tcap, qcap), pontryagin_table(16), "pX", 16, cap))

    @pytest.mark.parametrize("dim", [16, 24, 32])
    def test_a_quotient_cut_above_the_claim_gives_the_exact_cut(self, dim):
        """At the catalog's top and past it: t-cap dim // 2 reaches the top class."""
        table = pontryagin_table(dim)
        exact = qseries_exp(_bridged_log(theta_quotient("A", dim // 2, 2), table, "pX", dim, 2))
        assert qseries_exp(_bridged_log(theta_quotient("A", dim // 2 + 3, 4), table, "pX", dim, 2)) == exact
        assert exact.coefficient(0).coefficient(f"pX{dim // 4}") != 0


class TestLineEvaluation:
    @pytest.mark.parametrize("tcap", range(1, 13))
    def test_L_is_half_t_over_A(self, tcap):
        for cap in range(5):
            product = quotient_series("A", tcap, cap) * quotient_series("L", tcap, cap)
            assert product == t_series(tcap, cap, {(1, 0): Fraction(1, 2)})

    def test_constant_and_first_slices(self):
        table = pontryagin_table(10, line=True)
        L = quotient_series("L", 9, 2)
        series = line_quotient_evaluation(L, table, 10, 2)
        sinh_f = aux_bundle_factor(table, "sinh_half_c", 10)
        assert series.coefficient_q(0) == sinh_f
        # q^1 slice of the L quotient is -4 sinh^3(t/2)
        assert series.coefficient_q(1) == -4 * sinh_f**3
        assert series.integer_powers_only()

    @pytest.mark.parametrize("tcap, qcap", [(4, 2), (5, 1), (0, 0)])
    def test_a_quotient_cut_below_the_claim_is_refused(self, tcap, qcap):
        """cL^n has degree 2n, so degree 10 through q^2 needs t-cap 5 and q-cap 2."""
        with pytest.raises(ValueError, match="needs t-cap 5 and q-cap 2"):
            line_quotient_evaluation(quotient_series("L", tcap, qcap), pontryagin_table(10, line=True), 10, 2)


class TestCaseSeriesViaTheta:
    def test_a_recipe_naming_an_unknown_quotient_kind(self):
        sectors = (((("A", "pX"), ("B4", "pX")), False),)
        with pytest.raises(ValueError, match="unknown theta quotient kind 'B4'"):
            q_series_via_theta(pontryagin_table(8), sectors, 1, 8, 2)

    def test_spin_series_has_integer_powers(self):
        series = theta_route_integrand(CaseSpec("spin", 8, 2))
        assert series.integer_powers_only()
        # q^0 constant: the three sectors each contribute 1, scaled by 2^(dim/2)
        assert series.coefficient_q(0).constant_term == 3 * 2**4


class TestRecipeShape:
    """The theta route takes one series exp per sector and reads only the
    quotients' logarithms: the shift gives spin's third sector, so spin reads
    no B3 logarithm, and no quotient's coefficients are built."""

    @pytest.mark.parametrize(
        "case, exps, read",
        [("spin", 2, {"A", "B1", "B2"}), ("spin_v", 1, {"A", "B1", "B2", "B3"}), ("spinc_l", 1, {"A"})],
        ids=["spin", "spin_v", "spinc_l"],
    )
    def test_one_exp_per_sector_and_the_logarithms_it_reads(self, monkeypatch, case, exps, read):
        calls, kinds = [], set()

        def counted_exp(series):
            calls.append(series)
            return qseries_exp(series)

        def recorded_quotient(kind, tcap, cap):
            kinds.add(kind)
            return theta_quotient(kind, tcap, cap)

        monkeypatch.setattr(theta, "qseries_exp", counted_exp)
        monkeypatch.setattr(theta, "theta_quotient", recorded_quotient)
        for dim in CASE_DIMS[case]:
            calls.clear()
            theta_route_integrand(CaseSpec(case, dim, 3))
            assert len(calls) == exps
        assert kinds == read

    def test_the_verify_path_takes_no_two_variable_exp(self, monkeypatch, fresh_memos):
        """The 12 catalog specs, from cold memos, exponentiate only series over
        the root families' tables: the logarithms over the t table are built
        (the memo misses) and never exponentiated.  Every exp, `qseries_exp`
        among them, runs the one kernel entry `IntForm._kernel`."""
        exps, t_exps, kernel = [], [], IntForm._kernel

        def counted_kernel(form, solver):
            exps.append(form)
            if isinstance(form, QHalfSeries) and form.ring.table == theta._T:
                t_exps.append(form)
            return kernel(form, solver)

        monkeypatch.setattr(IntForm, "_kernel", counted_kernel)
        reports = run_cases([CaseSpec(case, dim, 3) for case in CASE_DIMS for dim in CASE_DIMS[case]])
        assert all(report.passed for report in reports)
        assert exps and t_exps == []
        assert theta_quotient.cache_info().misses > 0

    def test_the_line_sector_reads_A_and_multiplies_no_two_variable_series(self, monkeypatch, fresh_memos):
        """L = (t/2)/A: the spin^c sector adds minus A's logarithm at t = cL to
        its exponent, so it builds no L quotient and no two-variable product."""
        kinds, products, t_products = set(), [], []

        def recorded_quotient(kind, tcap, cap):
            kinds.add(kind)
            return theta_quotient(kind, tcap, cap)

        def counted_mul(series, other):
            products.append(other)
            if series.ring.table == theta._T:
                t_products.append(other)
            return IntForm.__mul__(series, other)

        monkeypatch.setattr(theta, "theta_quotient", recorded_quotient)
        monkeypatch.setattr(QHalfSeries, "__mul__", counted_mul)
        for dim in CASE_DIMS["spinc_l"]:
            theta_route_integrand(CaseSpec("spinc_l", dim, 3))
        assert kinds == {"A"}
        assert products and t_products == []

    @pytest.mark.parametrize("case", ["spin", "spin_v", "spinc_l"])
    def test_the_route_leaves_no_cyclic_garbage(self, case):
        """A CLI process runs with the collector off, so a cycle through the
        recipe's memoized logarithms would keep them for the whole run."""
        spec = CaseSpec(case, CASE_DIMS[case][0], 2)
        theta_route_integrand(spec)
        gc.collect()
        gc.disable()
        try:
            theta_route_integrand(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()


def b3_log_oracle(tcap, cap):
    """log B3 from its own closed form, the construction the engine dropped: its
    t^(2m) q^(j2/2) coefficient is 2/(2m)! times
    sum_{d | j2, j2/d odd} (-1)^(d+1) d^(2m-1)."""
    coeffs = {}
    for j2 in range(1, 2 * cap + 1):
        divisors = [d for d in range(1, j2 + 1) if j2 % d == 0 and (j2 // d) % 2]
        for m in range(1, tcap // 2 + 1):
            total = sum((-1) ** (d + 1) * d ** (2 * m - 1) for d in divisors)
            if total:
                coeffs[(2 * m, j2)] = Fraction(2 * total, factorial(2 * m))
    return t_series(tcap, cap, coeffs)


class TestHalfPeriodShift:
    """The theta route takes B3 and the third spin sector as half-period shifts
    of B2 and of the second sector; the oracle is the dropped B3 divisor sum."""

    CAP = 5

    def test_B3_quotient_matches_its_own_divisor_sum(self):
        for tcap in (6, 10):
            oracle = b3_log_oracle(tcap, self.CAP)
            assert quotient_series("B3", tcap, self.CAP) == qseries_exp(oracle)
            assert theta_quotient("B3", tcap, self.CAP) == oracle

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_third_sector_is_the_shift(self, dim):
        table, tcap, cap = pontryagin_table(dim), dim // 2, self.CAP
        log_a = _bridged_log(theta_quotient("A", tcap, cap), table, "pX", dim, cap)
        sector2 = qseries_exp(log_a + _bridged_log(theta_quotient("B2", tcap, cap), table, "pX", dim, cap))
        sector3 = qseries_exp(log_a + _bridged_log(b3_log_oracle(tcap, cap), table, "pX", dim, cap))
        assert sector3 == sector2.tau_shift_half()
        sector1 = qseries_exp(log_a + _bridged_log(theta_quotient("B1", tcap, cap), table, "pX", dim, cap))
        route = to_pontryagin(theta_route_integrand(CaseSpec("spin", dim, cap)))  # built over power sums
        assert route == (sector1 + sector2 + sector3).scale(2 ** (dim // 2))

    @pytest.mark.parametrize("dim", [8, 12, 16, 20])
    def test_spin_v_B3_log_is_the_shift(self, dim):
        table, tcap, cap = pontryagin_table(dim, aux=True), dim // 2, self.CAP

        def bridged(quotient, family):
            return _bridged_log(quotient, table, family, dim, cap)

        b2 = bridged(theta_quotient("B2", tcap, cap), "pV")
        b3 = bridged(b3_log_oracle(tcap, cap), "pV")
        assert b3 == b2.tau_shift_half()
        log = bridged(theta_quotient("A", tcap, cap), "pX") + bridged(theta_quotient("B1", tcap, cap), "pV") + b2 + b3
        assert to_pontryagin(theta_route_integrand(CaseSpec("spin_v", dim, cap))) == qseries_exp(log)
