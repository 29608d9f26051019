"""Case assembly, identity catalog, divisibility moduli, manifold evaluation."""

import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import pytest

import anomaly.algebra as algebra
import anomaly.verifier as verifier
from anomaly.algebra import GeneratorTable, GradedPoly, exp_truncated, pontryagin_table, power_sum_table, to_pontryagin
from anomaly.bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
    tangent_complexification,
    theta_series,
)
from anomaly.qseries import RATIONALS, PolyRing, QHalfSeries, qseries_exp
from anomaly.theta import _bridged_log, line_quotient_evaluation, quotient_series, theta_quotient
from anomaly.verifier import (
    CASE_DIMS,
    COROLLARIES,
    IDENTITIES,
    CaseConditionError,
    CaseSpec,
    IdentityEntry,
    IdentityResult,
    ManifoldData,
    ManifoldDataError,
    NonIntegralSolveError,
    RouteMismatchError,
    UnknownIdentityError,
    assemble_Q,
    bundle_route_integrand,
    case_admits,
    case_weight,
    check_case_condition,
    corollaries_for,
    corollary_modulus,
    divisibility_modulus,
    eisenstein_fit,
    evaluate_report,
    identities_for,
    impose_condition,
    report_jsonable,
    run_cases,
    theta_route_integrand,
    verify_identity,
)
from oracles import (
    PRINTED_VARIANTS,
    evaluate_manifold,
    in_power_sums,
    relation_forms,
    relation_sum,
    verify_identity_as_printed,
)

ALL_CASES = [(case, dim) for case in CASE_DIMS for dim in CASE_DIMS[case]]

HP2 = ManifoldData(8, {"pX1^2": Fraction(4), "pX2": Fraction(7)})
SPINC10 = ManifoldData(10, {"cL^5": Fraction(1), "pX2*cL": Fraction(2), "pX1*cL^3": Fraction(3), "pX1^2*cL": Fraction(4)})


class TestCaseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CaseSpec("spin_w", 8)
        with pytest.raises(ValueError):
            CaseSpec("spin", 10)
        with pytest.raises(ValueError):
            CaseSpec("spinc_l", 8)
        with pytest.raises(ValueError):
            CaseSpec("spin", 8, -1)

    def test_a_route_is_not_a_field(self):
        """Every case builds and compares both routes: there is no route to choose."""
        with pytest.raises(TypeError):
            CaseSpec("spin", 8, 3, "theta")

    @pytest.mark.parametrize("dim, qcap", [(8.0, 3), (True, 3), (8, True), (8, False), (8, 2.5), (8, "3")], ids=repr)
    def test_dim_and_qcap_are_ints(self, dim, qcap):
        """A float or bool is rejected at input, not cut or read deep in a route."""
        with pytest.raises(ValueError):
            CaseSpec("spin", dim, qcap)

    def test_weights(self):
        assert CaseSpec("spin", 8).weight == 4
        assert CaseSpec("spin", 20).weight == 10
        assert CaseSpec("spin_v", 12).weight == 6
        assert CaseSpec("spinc_l", 10).weight == 4
        assert CaseSpec("spinc_l", 22).weight == 10

    def test_a_dimension_is_admitted_where_its_weight_has_a_basis(self):
        """Past the catalog too: every even weight >= 4 has a modular basis."""
        assert CaseSpec("spin", 24).weight == 12
        assert CaseSpec("spin_v", 48).weight == 24
        assert CaseSpec("spinc_l", 26).weight == 12
        for case, dim in [("spin", 26), ("spinc_l", 24), ("spin", 0), ("spin", -8)]:
            assert not case_admits(case, dim)
            with pytest.raises(ValueError, match="supports dimensions"):
                CaseSpec(case, dim)
        assert not case_admits("spin_v_line", 8)

    def test_weight_2_is_rejected_before_the_basis(self, monkeypatch):
        """spin 4 has weight 2, where M_2 = 0: the spec refuses it, so no
        run reaches `modular_basis`'s ValueError."""
        monkeypatch.setattr(verifier, "modular_basis", lambda weight, cap: pytest.fail("reached the basis"))
        with pytest.raises(ValueError, match="supports dimensions 8, 12, 16, ..., got 4"):
            CaseSpec("spin", 4)
        with pytest.raises(ValueError, match="supports dimensions 10, 14, 18, ..., got 6"):
            CaseSpec("spinc_l", 6)

    def test_entry_weights_use_the_case_formula(self):
        for entry in IDENTITIES.values():
            assert entry.weight == case_weight(entry.case, entry.dim)
        assert case_weight("spin_v_line", 16) == 8

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            CaseSpec("spin", 8).dim = 12

    def test_replace_validates(self):
        assert CaseSpec("spin", 8)._replace(dim=12) == CaseSpec("spin", 12)
        with pytest.raises(ValueError, match="supports dimensions"):
            CaseSpec("spin", 8)._replace(dim=9)

    def test_equal_specs_hash_equal(self):
        a, b = CaseSpec("spin_v", 12, 2), CaseSpec("spin_v", 12, qcap=2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, CaseSpec("spin_v", 12, 3)}) == 2

    def test_tables(self):
        assert "pV1" in CaseSpec("spin_v", 8).table()
        assert "cL" in CaseSpec("spinc_l", 10).table()
        assert "pV1" not in CaseSpec("spin", 8).table()

    def test_table_is_the_interned_instance(self):
        assert CaseSpec("spin", 8).table() is pontryagin_table(8)
        assert CaseSpec("spin_v", 12).table() is pontryagin_table(12, aux=True)
        assert CaseSpec("spinc_l", 10).table() is pontryagin_table(10, line=True)


def theta_product(table, case, dim, cap, tcap):
    """The theta-route integrand with its quotients expanded to `tcap`."""

    def product(kind, family="pX"):
        return qseries_exp(_bridged_log(theta_quotient(kind, tcap, cap), table, family, dim, cap))

    A = product("A")
    if case == "spin":
        B1, B2, B3 = (product(kind) for kind in ("B1", "B2", "B3"))
        return (A * (B1 + B2 + B3)).scale(2 ** (dim // 2))
    if case == "spin_v":
        for kind in ("B1", "B2", "B3"):
            A = A * product(kind, "pV")
        return A
    return A * line_quotient_evaluation(quotient_series("L", tcap, cap), table, dim, cap)


@pytest.mark.parametrize("case,dim", ALL_CASES)
class TestRoutesAndFits:
    def test_routes_agree(self, case, dim):
        spec = CaseSpec(case, dim, 2)
        assert bundle_route_integrand(spec) == theta_route_integrand(spec)

    def test_theta_t_cap_is_exact_at_half_the_dimension(self, case, dim):
        """t^n is a degree-2n class: t-cap dim // 2 reaches every degree, and
        a quotient cut one lower is refused, not read as a wrong series.
        """
        spec = CaseSpec(case, dim, 2)
        bundle = to_pontryagin(bundle_route_integrand(spec))
        table = spec.table()
        at_cap = theta_product(table, case, dim, 2, dim // 2)
        assert at_cap == to_pontryagin(theta_route_integrand(spec))
        assert at_cap == bundle
        with pytest.raises(ValueError):
            theta_product(table, case, dim, 2, dim // 2 - 1)

    def test_fit_is_exact(self, case, dim):
        spec = CaseSpec(case, dim, 2)
        fit = eisenstein_fit(assemble_Q(spec), spec.weight)
        assert fit.passed
        (lam,) = fit.lam
        assert not lam.is_zero()


# sha256 of the top-degree render of the spin case past the catalog at order
# 3, recorded before the bundle route's products were reordered.
SPIN_WIDE_DIGESTS = {
    24: "a2748884f3d76afb2ebb0c209731fd481fff22c43e4936bb071ca334435bc120",
    28: "edf2f468a254cb113e32b2c68b64a685b6085a13e88298dd2614dfc14d17abf1",
}

# The cases past the catalog at weights 12, 14 and 16, with d = dim M_k: the
# fit's lam has d forms, read off q^0..q^(d-1), so it compares from order d on.
PAST_THE_CATALOG = [(case, dim) for case in ("spin", "spin_v") for dim in (24, 28, 32)]
PAST_THE_CATALOG += [("spinc_l", dim) for dim in (26, 30, 34)]
BASIS_SIZE = {12: 2, 14: 1, 16: 2}


class TestSpinPastTheCatalog:
    @pytest.mark.parametrize("dim", sorted(SPIN_WIDE_DIGESTS))
    def test_top_render_is_pinned(self, dim):
        top = assemble_Q(CaseSpec("spin", dim, 3))
        assert hashlib.sha256(top.render().encode("utf-8")).hexdigest() == SPIN_WIDE_DIGESTS[dim]


class TestPastTheCatalog:
    @pytest.mark.parametrize("case, dim", PAST_THE_CATALOG)
    def test_routes_agree_and_the_fit_passes_from_order_d(self, case, dim):
        """Routes and fit only: no identity and no modulus.  The fit passes
        exactly at the orders that compare a coefficient; below order d it
        reports insufficient order."""
        d = BASIS_SIZE[case_weight(case, dim)]
        reports = run_cases([CaseSpec(case, dim, order) for order in range(8)])
        for order, report in enumerate(reports):
            assert report.route_ok, order
            assert report.fit_ok == (order >= d) == report.passed, order
            assert (report.fit_residual == "insufficient order: no q-coefficient compared") == (order < d), order
            assert report.lam.count(", ") == d - 1
            assert report.identities == [] and report.moduli == []

    @pytest.mark.parametrize("case, dim", [("spin_v", 24), ("spin_v", 28), ("spinc_l", 26), ("spinc_l", 30)])
    def test_the_fit_fails_without_the_case_condition(self, monkeypatch, case, dim):
        """Negative control: the integrand is modular only under its condition."""
        monkeypatch.setitem(verifier._FAMILIES, case, verifier._FAMILIES[case]._replace(condition=None))
        spec = CaseSpec(case, dim, 5)
        fit = eisenstein_fit(assemble_Q(spec), spec.weight)
        assert fit.compared > 0 and not fit.passed

    def test_weight_24_fits_three_forms(self):
        """d = 3 at weight 24: order 3 compares q^3 alone, and order 2 nothing."""
        fit = eisenstein_fit(assemble_Q(CaseSpec("spin", 48, 3)), 24)
        assert len(fit.lam) == 3 and fit.compared == 1 and fit.passed
        fit = eisenstein_fit(assemble_Q(CaseSpec("spin", 48, 2)), 24)
        assert fit.compared == 0 and not fit.passed

    def test_a_past_dimension_has_no_catalog_entries(self):
        assert identities_for("spin", 24) == [] and corollaries_for("spin", 24) == []
        assert identities_for("spinc_l", 26) == [] and corollaries_for("spin_v", 48) == []

    def test_a_group_without_entries_builds_no_index_forms(self, monkeypatch):
        """The catalog dimension's entries build the forms, at its own top;
        a group past the catalog builds none."""
        index_forms = verifier._index_forms
        tops = []

        def recording(entries, coordinates):
            assert entries
            forms = index_forms(entries, coordinates)
            tops.append(forms[0])
            return forms

        monkeypatch.setattr(verifier, "_index_forms", recording)
        reports = run_cases([CaseSpec("spin", 24, 2), CaseSpec("spin_v", 28, 2), CaseSpec("spin", 20, 2)])
        assert tops == [20]
        assert all(report.passed for report in reports)
        assert [len(report.identities) for report in reports] == [0, 0, 2]
        assert reports[2] == run_cases([CaseSpec("spin", 20, 2)])[0]


class TestPowerSharing:
    def test_spin_case_builds_each_power_once(self, monkeypatch):
        """theta1, theta2, theta3 and the identities share one set of powers of T~."""
        builds = Counter()

        def counting(name):
            method = getattr(VirtualBundle, name)
            slot = "_lam" if name == "lambda_power" else "_sym"

            def wrapper(bundle, k):
                cache = getattr(bundle, slot)
                value = (bundle.table, frozenset(bundle.ch().terms.items()))
                for built in range(1 if cache is None else len(cache), k + 1):
                    builds[name, value, built] += 1
                return method(bundle, k)

            monkeypatch.setattr(VirtualBundle, name, wrapper)

        counting("lambda_power")
        counting("sym_power")
        tangent_complexification.cache_clear()
        spec = CaseSpec("spin", 20, 3)
        bundle_route_integrand(spec)
        assert builds and max(builds.values()) == 1
        first = dict(builds)
        TX = tangent_complexification(power_sum_table(20), 20)  # the routes' table
        for kind in ("theta1", "theta2", "theta3"):
            theta_series(kind, TX, cap=3)
        for entry in identities_for("spin", 20):
            assert verify_identity(entry.ident).passed
        assert builds == first


class TestInsufficientOrder:
    @pytest.mark.parametrize("case,dim", [("spin", 8), ("spin_v", 12), ("spinc_l", 10)])
    def test_order_zero_fit_compares_nothing_and_fails(self, case, dim):
        fit = eisenstein_fit(assemble_Q(CaseSpec(case, dim, 0)), case_weight(case, dim))
        assert fit.compared == 0
        assert fit.residual.is_zero()
        assert not fit.passed

    def test_order_zero_report(self):
        report = run_cases([CaseSpec("spin", 8, 0)])[0]
        assert report.route_ok
        assert not report.fit_ok
        assert report.fit_residual == "insufficient order: no q-coefficient compared"
        assert not report.passed

    def test_order_one_compares_one_coefficient(self):
        fit = eisenstein_fit(assemble_Q(CaseSpec("spin", 8, 1)), 4)
        assert fit.compared == 1
        assert fit.passed


def perturb_theta_route(monkeypatch, edits, coordinates="pontryagin"):
    """Make the theta route add `delta` to each (doubled q-exponent, monomial).

    The route's series is over a power-sum table.  A monomial in Pontryagin
    names goes in through its power-sum preimage (`oracles.in_power_sums`),
    so the converted series differs by exactly `delta` at that monomial; with
    `coordinates="power sums"` the monomial is a power-sum monomial itself.
    """
    original = verifier.theta_route_integrand

    def perturbed(spec):
        series = original(spec)
        coeffs = dict(series.coeffs)
        for j2, monomial, delta in edits:
            poly = coeffs[j2]
            if coordinates == "pontryagin":
                bump = in_power_sums(poly.table, monomial, poly.truncation)
            else:
                bump = GradedPoly(poly.table, poly.truncation, {poly.table.parse_monomial(monomial): 1})
            coeffs[j2] = poly + bump * delta
        return QHalfSeries(series.ring, series.cap, coeffs)

    monkeypatch.setattr(verifier, "theta_route_integrand", perturbed)


class TestRouteMismatch:
    SPEC = CaseSpec("spin", 8, 1)

    def test_message_names_the_differing_coefficient(self, monkeypatch):
        before = to_pontryagin(bundle_route_integrand(self.SPEC)).coefficient(2).coefficient("pX2")
        perturb_theta_route(monkeypatch, [(2, "pX2", Fraction(1, 7))])
        with pytest.raises(RouteMismatchError) as exc:
            assemble_Q(self.SPEC)
        message = str(exc.value)
        assert "at doubled q-exponents [2]" in message
        assert (
            f"first difference at q^1, monomial pX2: bundle route {before}, "
            f"theta route {before + Fraction(1, 7)}"
        ) in message

    def test_message_names_pontryagin_monomials(self, monkeypatch):
        """The routes differ by delta * s2 in power sums, which is delta *
        (pX1^2 - 2*pX2) in Pontryagin classes: the message names pX2, the
        first of the two in render order, and never a power-sum monomial."""
        before = to_pontryagin(bundle_route_integrand(self.SPEC)).coefficient(2).coefficient("pX2")
        perturb_theta_route(monkeypatch, [(2, "sX2", Fraction(1, 7))], coordinates="power sums")
        with pytest.raises(RouteMismatchError) as exc:
            assemble_Q(self.SPEC)
        message = str(exc.value)
        assert "at doubled q-exponents [2]" in message
        assert (
            f"first difference at q^1, monomial pX2: bundle route {before}, "
            f"theta route {before - Fraction(2, 7)}"
        ) in message
        assert "sX" not in message

    def test_first_difference_follows_q_then_render_order(self, monkeypatch):
        perturb_theta_route(
            monkeypatch,
            [(2, "pX1^2", Fraction(1)), (0, "pX2", Fraction(1)), (2, "pX1", Fraction(1)), (0, "pX1^2", Fraction(1))],
        )
        with pytest.raises(RouteMismatchError) as exc:
            assemble_Q(self.SPEC)
        assert "at doubled q-exponents [0, 2]" in str(exc.value)
        # render order: degree first, then exponent tuples, so pX2 = (0, 1) before pX1^2 = (2, 0)
        assert "first difference at q^0, monomial pX2:" in str(exc.value)

    def test_run_case_reports_the_mismatch(self, monkeypatch):
        perturb_theta_route(monkeypatch, [(2, "pX1", Fraction(-3, 2))])
        report = run_cases([self.SPEC])[0]
        assert not report.route_ok and not report.passed
        assert "first difference at q^1, monomial pX1:" in report.route_detail


def family_cut(series, case, top, dim, extra_halvings=0):
    """The route integrand `series` of `case` at dimension `top`, over its
    power-sum table, cut to `dim`, rank-scaled for spin."""
    halvings = (top - dim) // 2 if case == "spin" else 0
    cut = series.cut(PolyRing(verifier._FAMILIES[case].power_sum_table(dim), dim))
    return cut * Fraction(1, 2 ** (halvings + extra_halvings))


class TestFamilyCut:
    """Each family's integrand at its top dimension, cut, is the integrand at every lower dimension."""

    @pytest.mark.parametrize("order", [0, 3, 7])
    @pytest.mark.parametrize("case", sorted(CASE_DIMS))
    @pytest.mark.parametrize("route", [bundle_route_integrand, theta_route_integrand], ids=["bundle", "theta"])
    def test_cut_of_the_top_equals_the_direct_build(self, route, case, order):
        top, *lower = sorted(CASE_DIMS[case], reverse=True)
        series = route(CaseSpec(case, top, order))
        for dim in lower:
            assert family_cut(series, case, top, dim) == route(CaseSpec(case, dim, order)), dim

    @pytest.mark.parametrize("route", [bundle_route_integrand, theta_route_integrand], ids=["bundle", "theta"])
    def test_spin_cut_needs_the_full_rank_factor(self, route):
        series = route(CaseSpec("spin", 20, 2))
        for dim in (8, 12, 16):
            wrong = family_cut(series, "spin", 20, dim, extra_halvings=-1)  # 2^((20 - dim)/2 - 1)
            assert wrong != route(CaseSpec("spin", dim, 2))
            assert wrong == family_cut(series, "spin", 20, dim) * 2

    def test_each_family_is_built_once_at_its_top(self, monkeypatch):
        built = []
        for name in ("bundle_route_integrand", "theta_route_integrand"):
            original = getattr(verifier, name)

            def counting(spec, original=original, name=name):
                built.append((name, spec.case, spec.dim))
                return original(spec)

            monkeypatch.setattr(verifier, name, counting)
        specs = [CaseSpec(case, dim, 1) for case, dim in ALL_CASES]
        reports = run_cases(specs)
        assert [(r.case, r.dim) for r in reports] == ALL_CASES
        assert all(r.passed for r in reports)
        assert sorted(built) == sorted(
            (name, case, max(CASE_DIMS[case]))
            for name in ("bundle_route_integrand", "theta_route_integrand")
            for case in CASE_DIMS
        )
        built.clear()
        run_cases([CaseSpec("spin", 8, 1)])  # a lone spec is its own top
        assert sorted(built) == [("bundle_route_integrand", "spin", 8), ("theta_route_integrand", "spin", 8)]

    def test_a_perturbed_top_shows_at_every_dimension(self, monkeypatch):
        """A delta at q^1 * pX2 in the theta route's top series reaches each cut, rank-scaled."""
        delta = Fraction(1, 7)
        perturb_theta_route(monkeypatch, [(2, "pX2", delta)])
        reports = run_cases([CaseSpec("spin", dim, 1) for dim in CASE_DIMS["spin"]])
        for report in reports:
            dim = report.dim
            before = to_pontryagin(bundle_route_integrand(CaseSpec("spin", dim, 1))).coefficient(2).coefficient("pX2")
            after = before + delta / 2 ** ((20 - dim) // 2)
            assert not report.route_ok and not report.passed
            assert f"disagree for spin dim {dim} at doubled q-exponents [2]" in report.route_detail
            assert (
                f"first difference at q^1, monomial pX2: bundle route {before}, theta route {after}"
            ) in report.route_detail


    def test_equal_tops_are_compared_once(self, monkeypatch):
        """Equal top series have equal cuts: each lower dimension cuts one route only."""
        cuts = []
        original = QHalfSeries.cut

        def counting(series, ring):
            cuts.append(ring.truncation)
            return original(series, ring)

        monkeypatch.setattr(QHalfSeries, "cut", counting)
        reports = run_cases([CaseSpec("spin", dim, 1) for dim in CASE_DIMS["spin"]])
        assert all(r.route_ok and r.route_detail == "bundle == theta" for r in reports)
        assert sorted(cuts) == [8, 12, 16]

    def test_agreeing_routes_cut_only_the_top_degree(self, monkeypatch):
        """Only the degree-d part of a top reaches a lower dimension d, so its cut
        re-keys the terms the extraction reads and no others."""
        grades = []
        original = QHalfSeries.cut

        def recording(series, ring):
            grades.append((ring.truncation, {item[0] for item in series.items}))
            return original(series, ring)

        monkeypatch.setattr(QHalfSeries, "cut", recording)
        reports = run_cases([CaseSpec(case, dim, 2) for case, dim in ALL_CASES])
        assert all(r.passed for r in reports)
        lower = sorted((case, dim) for case, dim in ALL_CASES if dim != max(CASE_DIMS[case]))
        assert len(grades) == len(lower)
        assert all(seen == {dim} for dim, seen in grades)

    def test_a_mismatch_above_the_lower_dimensions_stays_at_the_top(self, monkeypatch):
        """Tops that differ only in a degree-20 term: both routes are cut and
        compared at every dimension, so 8-16 agree and 20 names the term."""
        delta = Fraction(1, 7)
        perturb_theta_route(monkeypatch, [(2, "pX5", delta)])
        reports = run_cases([CaseSpec("spin", dim, 1) for dim in CASE_DIMS["spin"]])
        for report in reports[:-1]:
            assert report.route_ok and report.passed, report.dim
        top = reports[-1]
        before = to_pontryagin(bundle_route_integrand(CaseSpec("spin", 20, 1))).coefficient(2).coefficient("pX5")
        assert not top.route_ok and not top.passed
        assert top.route_detail == (
            "bundle and theta routes disagree for spin dim 20 at doubled q-exponents [2]; "
            f"first difference at q^1, monomial pX5: bundle route {before}, theta route {before + delta}"
        )
        assert run_cases([CaseSpec("spin", 20, 1)])[0].route_detail == top.route_detail


class TestConditionMatters:
    """Each route integrand's top degree, fitted with no case condition imposed."""

    @pytest.mark.parametrize("case,dim", [("spin_v", 8), ("spinc_l", 10)])
    def test_fit_fails_without_condition(self, case, dim):
        spec = CaseSpec(case, dim, 2)
        for integrand in (bundle_route_integrand, theta_route_integrand):
            top = integrand(spec).homogeneous_component(dim)
            assert not eisenstein_fit(top, spec.weight).passed
            assert eisenstein_fit(impose_condition(top, case), spec.weight).passed

    def test_spin_needs_no_condition(self):
        spec = CaseSpec("spin", 8, 2)
        for integrand in (bundle_route_integrand, theta_route_integrand):
            assert eisenstein_fit(integrand(spec).homogeneous_component(8), 4).passed

    def test_impose_condition_substitutions(self):
        spec = CaseSpec("spin_v", 8, 2)
        table = spec.table()
        from anomaly.algebra import GradedPoly

        pX1 = GradedPoly.generator(table, "pX1", 8)
        pV1 = GradedPoly.generator(table, "pV1", 8)
        assert impose_condition(pX1, "spin_v") == 3 * pV1
        assert impose_condition(pX1, "spin") == pX1
        lt = CaseSpec("spinc_l", 10).table()
        c = GradedPoly.generator(lt, "cL", 10)
        pl = GradedPoly.generator(lt, "pX1", 10)
        assert impose_condition(pl, "spinc_l") == c * c
        assert impose_condition(pl, "spin_v_line") == 3 * c * c
        with pytest.raises(ValueError):
            impose_condition(pl, "mystery")


class TestIdentityCatalog:
    def test_catalog_shape(self):
        theorem_ids = [i for i, e in IDENTITIES.items() if e.case != "spin_v_line"]
        line_ids = [i for i, e in IDENTITIES.items() if e.case == "spin_v_line"]
        assert len(theorem_ids) == 20
        assert len(line_ids) == 6
        assert len(COROLLARIES) == 20
        assert "Thm1.1-(1.1)" in IDENTITIES
        assert "Thm1.7-(1.14)" in IDENTITIES
        assert "Cor1.10-a" in IDENTITIES
        assert "Cor1.2-a" in COROLLARIES
        assert "Cor1.28-a" in COROLLARIES

    def test_identities_for_selection(self):
        spin8 = [e.ident for e in identities_for("spin", 8)]
        assert spin8 == ["Thm1.1-(1.1)", "Thm1.1-(1.2)"]
        spinv8 = [e.ident for e in identities_for("spin_v", 8)]
        assert spinv8 == ["Thm1.9-q1", "Thm1.9-q2", "Cor1.10-a", "Cor1.10-b"]
        spinc10 = [e.ident for e in identities_for("spinc_l", 10)]
        assert spinc10 == ["Thm1.21-q1", "Thm1.21-q2"]

    def test_every_catalog_pair_selects_its_entries(self):
        identities, corollaries = {}, {}
        for case in CASE_DIMS:
            for dim in CASE_DIMS[case]:
                identities[case, dim] = [e.ident for e in identities_for(case, dim)]
                corollaries[case, dim] = [c.ident for c in corollaries_for(case, dim)]
        assert identities == {
            ("spin", 8): ["Thm1.1-(1.1)", "Thm1.1-(1.2)"],
            ("spin", 12): ["Thm1.3-(1.5)", "Thm1.3-(1.6)"],
            ("spin", 16): ["Thm1.5-(1.9)", "Thm1.5-(1.10)"],
            ("spin", 20): ["Thm1.7-(1.13)", "Thm1.7-(1.14)"],
            ("spin_v", 8): ["Thm1.9-q1", "Thm1.9-q2", "Cor1.10-a", "Cor1.10-b"],
            ("spin_v", 12): ["Thm1.12-q1", "Thm1.12-q2", "Cor1.13-a", "Cor1.13-b"],
            ("spin_v", 16): ["Thm1.15-q1", "Cor1.16-a"],
            ("spin_v", 20): ["Thm1.18-q1", "Cor1.19-a"],
            ("spinc_l", 10): ["Thm1.21-q1", "Thm1.21-q2"],
            ("spinc_l", 14): ["Thm1.23-q1", "Thm1.23-q2"],
            ("spinc_l", 18): ["Thm1.25-q1"],
            ("spinc_l", 22): ["Thm1.27-q1"],
        }
        assert corollaries == {
            ("spin", 8): ["Cor1.2-a", "Cor1.2-b"],
            ("spin", 12): ["Cor1.4-a", "Cor1.4-b"],
            ("spin", 16): ["Cor1.6-a", "Cor1.6-b"],
            ("spin", 20): ["Cor1.8-a", "Cor1.8-b"],
            ("spin_v", 8): ["Cor1.11-a", "Cor1.11-b"],
            ("spin_v", 12): ["Cor1.14-a", "Cor1.14-b"],
            ("spin_v", 16): ["Cor1.17-a"],
            ("spin_v", 20): ["Cor1.20-a"],
            ("spinc_l", 10): ["Cor1.22-a", "Cor1.22-b"],
            ("spinc_l", 14): ["Cor1.24-a", "Cor1.24-b"],
            ("spinc_l", 18): ["Cor1.26-a"],
            ("spinc_l", 22): ["Cor1.28-a"],
        }

    @pytest.mark.parametrize(
        "case, dim", [("spinc", 10), ("spin", 9), ("spin", 10), ("spinc_l", 8), ("spin_v_line", 8), ("spin_v_line", 16)]
    )
    def test_a_case_with_no_entries_is_an_input_error(self, case, dim):
        """spin_v_line labels catalog entries of spin_v; it is not a case."""
        with pytest.raises(ValueError, match="no catalog identity"):
            identities_for(case, dim)
        with pytest.raises(ValueError, match="no catalog identity"):
            corollaries_for(case, dim)

    def test_notes_default_to_empty(self):
        assert IdentityEntry("Thm1.1-(1.1)", "spin", 8, 1).notes == ()
        assert IdentityResult("Thm1.1-(1.1)", True, None, -240).notes == ()
        assert IDENTITIES["Thm1.1-(1.1)"] == IdentityEntry("Thm1.1-(1.1)", "spin", 8, 1)

    @pytest.mark.parametrize("ident", sorted(IDENTITIES))
    def test_every_identity_verifies(self, ident):
        result = verify_identity(ident)
        assert result.passed, f"{ident} residual: {result.residual.render()}"

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            verify_identity("Thm9.9-(9.9)")

    def test_proportionality_constants(self):
        assert verify_identity("Thm1.1-(1.1)").constant == 240
        assert verify_identity("Thm1.1-(1.2)").constant == 2160
        assert verify_identity("Thm1.3-(1.5)").constant == -504
        assert verify_identity("Thm1.5-(1.9)").constant == 480
        assert verify_identity("Thm1.7-(1.13)").constant == -264
        assert verify_identity("Thm1.7-(1.14)").constant == -135432

    def test_a_non_integral_basis_coefficient_is_an_error(self, monkeypatch):
        """The integrality check raises, so it also holds under python -O."""

        def skewed_basis(weight, cap):
            return (QHalfSeries(RATIONALS, cap, {0: Fraction(1), 2: Fraction(1, 2)}),)

        monkeypatch.setattr(verifier, "modular_basis", skewed_basis)
        with pytest.raises(ArithmeticError, match="not an integer"):
            verify_identity("Thm1.1-(1.1)")
        with pytest.raises(ArithmeticError, match="not an integer"):
            relation_forms(IDENTITIES["Thm1.1-(1.1)"])


CATALOG_COMBOS = {
    "spin-delta": verifier._SPIN_DELTA,
    "spin-plain": verifier._SPIN_PLAIN,
    "V": verifier._V_COMBO,
    "L": verifier._L_COMBO,
}


def _transcription_sides(sector, dim, n, combos=CATALOG_COMBOS):
    """ch of a theta series' q^n coefficient, and the ch of its catalog combo.

    spin-delta: theta1 against _SPIN_DELTA; spin-plain: theta2 + theta3
    against 2 * _SPIN_PLAIN; V: thetaV against _V_COMBO; L: thetaL against
    _L_COMBO, with the line bundle in the combo's V slot.
    """
    if sector.startswith("spin"):
        table = pontryagin_table(dim)
        TX = tangent_complexification(table, dim)
        bundles = {"T": TX.reduce()}
        if sector == "spin-delta":
            series, scale = theta_series("theta1", TX, cap=n), 1
        else:
            series, scale = theta_series("theta2", TX, cap=n) + theta_series("theta3", TX, cap=n), 2
    else:
        table = pontryagin_table(dim, aux=sector == "V", line=sector == "L")
        TX = tangent_complexification(table, dim)
        V = aux_complexification(table, dim) if sector == "V" else line_real_complexification(table, dim)
        bundles = {"T": TX.reduce(), "V": V.reduce()}
        series, scale = theta_series("theta" + sector, TX, V, cap=n), 1
    return series.coefficient_q(n), verifier._combo_ch(combos[sector][n], bundles) * scale


class TestCatalogTranscription:
    """The hand-entered bundle combos are the theta products' q^n coefficients."""

    @pytest.mark.parametrize("sector", sorted(CATALOG_COMBOS))
    @pytest.mark.parametrize("dim", [12, 14])
    @pytest.mark.parametrize("n", [1, 2])
    def test_combo_is_the_theta_coefficient(self, sector, dim, n):
        theta_side, combo_side = _transcription_sides(sector, dim, n)
        assert theta_side == combo_side

    @pytest.mark.parametrize("sector, n, term", [("spin-delta", 2, 2), ("spin-plain", 1, 1), ("V", 2, 5), ("L", 2, 3)])
    def test_a_perturbed_combo_fails(self, sector, n, term):
        """Negative control: one combo term's coefficient raised by one."""
        terms = list(CATALOG_COMBOS[sector][n])
        coefficient, atoms = terms[term]
        terms[term] = (coefficient + 1, atoms)
        perturbed = {**CATALOG_COMBOS, sector: {**CATALOG_COMBOS[sector], n: tuple(terms)}}
        theta_side, combo_side = _transcription_sides(sector, 12, n, perturbed)
        assert theta_side != combo_side


# Sums of line bundles over formal Chern roots: T has the roots t1..t3 and V
# the roots u1..u4, so each power and product has a closed form (one exp per
# sum of roots) that uses neither the lambda-ring recursions nor `_combo_ch`.
ROOTS = GeneratorTable([(name, 2) for name in ("t1", "t2", "t3", "u1", "u2", "u3", "u4")])
ROOT_TRUNCATION = 6
BASE_ROOTS = {"T": ("t1", "t2", "t3"), "V": ("u1", "u2", "u3", "u4")}


@lru_cache(maxsize=None)
def exp_of_roots(roots: tuple) -> GradedPoly:
    """ch of one line bundle: exp of the sum of `roots` (a sorted tuple, repeats allowed)."""
    zero = GradedPoly.zero(ROOTS, ROOT_TRUNCATION)
    return exp_truncated(sum((GradedPoly.generator(ROOTS, r, ROOT_TRUNCATION) for r in roots), zero))


def atom_root_sums(atom: str) -> list:
    """The line summands of an atom, each as its tuple of roots: the roots
    themselves, or their k-subsets (LkX) or k-multisets (SkX)."""
    if atom in BASE_ROOTS:
        return [(r,) for r in BASE_ROOTS[atom]]
    pick = combinations if atom[0] == "L" else combinations_with_replacement
    return list(pick(BASE_ROOTS[atom[-1]], int(atom[1:-1])))


def combo_by_roots(combo) -> GradedPoly:
    """ch of a combo summed line by line: a term's lines are the sums of one line of each atom."""
    acc = GradedPoly.zero(ROOTS, ROOT_TRUNCATION)
    for coeff, atoms in combo:
        for lines in product(*[atom_root_sums(atom) for atom in atoms]):
            acc = acc + exp_of_roots(tuple(sorted(sum(lines, ())))) * coeff
    return acc


def root_bundles() -> dict:
    return {name: VirtualBundle._of(combo_by_roots(((1, (name,)),))) for name in BASE_ROOTS}


class TestComboCharacters:
    """`_combo_ch` reads each atom as the power it names, a term as the
    tensor product of its atoms and a combo as the sum of its terms."""

    @pytest.mark.parametrize("atom", ["T", "V", "L2T", "L3T", "L4T", "S2T", "S3T", "L2V", "L3V", "L4V", "S2V"])
    def test_an_atom_is_the_power_it_names(self, atom):
        assert verifier._combo_ch(((1, (atom,)),), root_bundles()) == combo_by_roots(((1, (atom,)),))

    @pytest.mark.parametrize("atoms", [("T", "T"), ("T", "V"), ("L2V", "T"), ("V", "V", "T"), ("L2V", "L2V")], ids="*".join)
    def test_a_term_is_the_tensor_product_of_its_atoms(self, atoms):
        assert verifier._combo_ch(((1, atoms),), root_bundles()) == combo_by_roots(((1, atoms),))

    @pytest.mark.parametrize("sector", sorted(CATALOG_COMBOS))
    @pytest.mark.parametrize("n", [1, 2])
    def test_a_catalog_combo_is_its_sum_of_lines(self, sector, n):
        combo = CATALOG_COMBOS[sector][n]
        assert verifier._combo_ch(combo, root_bundles()) == combo_by_roots(combo)

    def test_coefficients_scale_their_terms_at_the_tangent_truncation(self):
        bundles = root_bundles()
        ch = verifier._combo_ch(((3, ("T",)), (-2, ("V",))), bundles)
        assert ch == bundles["T"].ch() * 3 - bundles["V"].ch() * 2
        assert ch.constant_term == 3 * 3 - 2 * 4
        assert verifier._combo_ch((), bundles) == GradedPoly.zero(ROOTS, ROOT_TRUNCATION)


# The catalog top of each identity case's family (spin_v_line rides with
# spin_v), and the arguments of its `pontryagin_table`.
FAMILY_TOPS = {"spin": 20, "spin_v": 20, "spin_v_line": 20, "spinc_l": 22}
ENTRY_TABLES = {"spin": {}, "spin_v": {"aux": True}, "spin_v_line": {"line": True}, "spinc_l": {"line": True}}


@lru_cache(maxsize=None)
def family_forms(case):
    """The index forms of every identity of `case`'s family, built at its catalog top."""
    family = "spin_v" if case == "spin_v_line" else case
    entries = [e for dim in CASE_DIMS[family] for e in identities_for(family, dim)]
    return verifier._index_forms(entries, verifier._Family.power_sum_table)  # as run_cases builds them


def family_sum(entry, halve_spinor_ratio=False):
    """The relation summed over the family top's forms (`oracles.relation_sum`),
    each divided by its rank ratio, or by half of it, for `halve_spinor_ratio`."""
    e = verifier._basis_coefficient(entry.weight, entry.q_power)
    terms = verifier._relation_terms(entry, family_forms(entry.case), e)
    if halve_spinor_ratio:
        terms = [(coeff, label, form, ratio // 2 if ratio > 1 else ratio) for coeff, label, form, ratio in terms]
    return relation_sum(terms, entry.case)


class TestFamilyIdentityForms:
    """Each family's index forms, built once at its top, cut to every identity of the family."""

    @pytest.mark.parametrize("ident", sorted(IDENTITIES))
    def test_top_forms_give_the_direct_forms(self, ident):
        entry = IDENTITIES[ident]
        forms = family_forms(entry.case)
        assert forms[0] == FAMILY_TOPS[entry.case]
        e = verifier._basis_coefficient(entry.weight, entry.q_power)
        direct = relation_forms(entry)
        for (coeff, label, form, ratio), (coeff0, label0, form0) in zip(
            verifier._relation_terms(entry, forms, e), direct, strict=True
        ):
            assert (coeff, label) == (coeff0, label0)
            assert form.table is power_sum_table(forms[0], **ENTRY_TABLES[entry.case])
            assert form0.table is pontryagin_table(entry.dim, **ENTRY_TABLES[entry.case])
            assert to_pontryagin(form).cut(form0.table, entry.dim) / ratio == form0, label
        batch, lone = verify_identity(ident, forms), verify_identity(ident)
        assert batch.passed and batch == lone
        assert batch.residual.table is lone.residual.table
        assert batch.residual.render() == lone.residual.render()

    @pytest.mark.parametrize("ident", sorted(i for i, e in IDENTITIES.items() if e.case == "spin" and e.dim < 20))
    def test_spin_needs_the_full_rank_ratio(self, ident):
        """Negative control: the spinor terms divided by 2^((20 - d)/2 - 1) do not balance."""
        entry = IDENTITIES[ident]
        assert family_sum(entry).is_zero()
        assert not family_sum(entry, halve_spinor_ratio=True).is_zero()

    @pytest.mark.parametrize("ident", sorted(PRINTED_VARIANTS))
    def test_printed_variants_fail_on_the_family_forms(self, ident):
        forms = family_forms(IDENTITIES[ident].case)
        assert verify_identity(ident, forms).passed
        assert not verify_identity_as_printed(ident, forms).passed

    def test_a_full_run_builds_each_form_and_table_once(self, monkeypatch, fresh_memos):
        combos = []
        combo_ch = verifier._combo_ch

        def counting(combo, bundles):
            combos.append((bundles["T"].table, combo))
            return combo_ch(combo, bundles)

        monkeypatch.setattr(verifier, "_combo_ch", counting)  # fresh_memos: every table counts from scratch
        tables = []
        init = algebra.GeneratorTable.__init__

        def counting_init(table, generators):
            init(table, generators)
            tables.append(table.generators)

        monkeypatch.setattr(algebra.GeneratorTable, "__init__", counting_init)
        reports = run_cases([CaseSpec(case, dim, 1) for case, dim in ALL_CASES])
        assert all(r.passed for r in reports)
        assert len(combos) == len(set(combos)) == 10
        # the family tops: spin 20 (5 generators), spin_v 20 (10), line 20 and spinc_l 22 (6)
        assert {len(table) for table, _ in combos} == {5, 6, 10}
        assert all(table.pontryagin is not None for table, _ in combos)
        # 12 Pontryagin tables (spin, aux and line at 8-20; spinc_l shares the line tables)
        # and the power-sum tables of the three family tops
        assert len(tables) == len(set(tables)) == 15
        assert sorted(len(t) for t in tables if t[0][0].startswith("s")) == [5, 6, 10]

    def test_a_lone_spec_builds_nothing_above_its_dimension(self, monkeypatch):
        dims, truncations = [], []
        table, sums, combo_ch = verifier.pontryagin_table, verifier.power_sum_table, verifier._combo_ch
        monkeypatch.setattr(verifier, "pontryagin_table", lambda dim, **kw: dims.append(dim) or table(dim, **kw))
        monkeypatch.setattr(verifier, "power_sum_table", lambda dim, **kw: dims.append(dim) or sums(dim, **kw))
        monkeypatch.setattr(
            verifier, "_combo_ch", lambda combo, bundles: truncations.append(bundles["T"].truncation) or combo_ch(combo, bundles)
        )
        assert run_cases([CaseSpec("spin", 8)])[0].passed
        assert dims and set(dims) == {8}
        assert truncations == [8] * 4


class TestPrintedVariantsFail:
    def test_registered_variants(self):
        assert set(PRINTED_VARIANTS) == {"Thm1.7-(1.13)", "Thm1.7-(1.14)", "Thm1.15-q1"}

    @pytest.mark.parametrize("ident", sorted(PRINTED_VARIANTS))
    def test_uncorrected_forms_fail(self, ident):
        assert verify_identity(ident).passed
        assert not verify_identity_as_printed(ident).passed

    def test_no_variant_registered(self):
        with pytest.raises(UnknownIdentityError):
            verify_identity_as_printed("Thm1.1-(1.1)")


EXPECTED_MODULI = {
    # spin: dims 8/12/16/20
    "Cor1.2-a": 8,
    "Cor1.2-b": 16,
    "Cor1.4-a": 4,
    "Cor1.4-b": 8,
    "Cor1.6-a": 16,
    "Cor1.6-b": 32,
    "Cor1.8-a": 4,
    "Cor1.8-b": 8,
    # auxiliary bundle specialized to a line: dims 8/12/16/20
    "Cor1.11-a": 240,
    "Cor1.11-b": 2160,
    "Cor1.14-a": 504,
    "Cor1.14-b": 16632,
    "Cor1.17-a": 480,
    "Cor1.20-a": 264,
    # line-bundle case: dims 10/14/18/22
    "Cor1.22-a": 240,
    "Cor1.22-b": 2160,
    "Cor1.24-a": 504,
    "Cor1.24-b": 16632,
    "Cor1.26-a": 480,
    "Cor1.28-a": 264,
}


class TestDivisibility:
    def test_full_modulus_table(self):
        computed = {ident: corollary_modulus(ident) for ident in COROLLARIES}
        assert computed == EXPECTED_MODULI

    def test_relation_solving_errors(self):
        with pytest.raises(UnknownIdentityError):
            divisibility_modulus("Thm0.0", "ind(D)")
        with pytest.raises(UnknownIdentityError, match="terms"):
            divisibility_modulus("Thm1.1-(1.1)", "ind(nothing)")
        # the relation cannot be solved integrally for the largest coefficient
        with pytest.raises(NonIntegralSolveError):
            divisibility_modulus("Thm1.1-(1.1)", "ind(D)")
        with pytest.raises(UnknownIdentityError):
            corollary_modulus("Cor0.0-z")

    def test_relation_balance_matches_basis(self):
        # the relation coefficients must sum against HP2 values to zero
        entry = IDENTITIES["Thm1.1-(1.1)"]
        terms = relation_forms(entry)
        balance = sum(coeff * evaluate_manifold(HP2, form) for coeff, _, form in terms)
        assert balance == 0


class TestManifoldData:
    def test_from_json(self):
        data = ManifoldData.from_json('{"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}}')
        assert data.dim == 8
        assert data.numbers["pX2"] == 7

    def test_malformed_inputs(self):
        with pytest.raises(ManifoldDataError):
            ManifoldData.from_mapping([1, 2])
        with pytest.raises(ManifoldDataError):
            ManifoldData.from_mapping({"numbers": {}})
        with pytest.raises(ManifoldDataError):
            ManifoldData.from_mapping({"dim": 8, "numbers": {"pX2": 7}})
        with pytest.raises(ManifoldDataError):
            ManifoldData.from_mapping({"dim": 8, "numbers": {"pX2": "7/0"}})
        with pytest.raises(ManifoldDataError):
            ManifoldData.from_mapping({"dim": "8", "numbers": {}})

    def test_boolean_dim_is_not_an_integer(self):
        for flag in (True, False):
            with pytest.raises(ManifoldDataError, match='integer "dim"'):
                ManifoldData.from_mapping({"dim": flag, "numbers": {}})

    @pytest.mark.parametrize("case,dim", [(c, d) for c, d in ALL_CASES if c != "spin_v"])
    def test_numbers_at_the_digit_bound_render_in_every_dimension(self, case, dim):
        """Every monomial of degree dim gets 1 over a power of its own prime, the
        powers as long as MAX_NUMBER_DIGITS allows in all: each index value,
        whose denominator is about their product, stays printable."""
        table = CaseSpec(case, dim).table()
        monomials = [()]
        for degree in table.degrees:
            monomials = [m + (e,) for m in monomials for e in range(dim // degree + 1)]
        keys = [table.monomial_string(m) for m in monomials if table.monomial_degree(m) == dim]
        width = verifier.MAX_NUMBER_DIGITS // len(keys) - 1
        numbers = {}
        for key, prime in zip(keys, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)):
            power = prime
            while len(str(power * prime)) <= width:
                power *= prime
            numbers[key] = f"-1/{power}"
        spare = verifier.MAX_NUMBER_DIGITS - sum(len(v) - 2 for v in numbers.values())
        numbers[keys[0]] = "1" * spare + numbers[keys[0]][1:]
        report = evaluate_report(ManifoldData.from_mapping({"dim": dim, "numbers": numbers}))
        longest = max(len(row["value"]) for row in report["indices"] + report["checks"])
        assert longest > verifier.MAX_NUMBER_DIGITS
        with pytest.raises(ManifoldDataError, match="digits in all"):
            ManifoldData.from_mapping({"dim": dim, "numbers": {**numbers, keys[0]: "1" + numbers[keys[0]]}})

    def test_evaluate_errors(self):
        from anomaly.algebra import pontryagin_table
        from anomaly.genera import ahat_form

        table = pontryagin_table(8)
        form = ahat_form(table, 8).homogeneous_component(8)
        missing = ManifoldData(8, {"pX1^2": Fraction(4)})
        with pytest.raises(ManifoldDataError, match="missing"):
            evaluate_manifold(missing, form)
        wrong_dim = ManifoldData(12, {"pX1^2": Fraction(4), "pX2": Fraction(7)})
        with pytest.raises(ManifoldDataError, match="dimension"):
            evaluate_manifold(wrong_dim, form)
        hp2 = ManifoldData(8, {"pX1^2": Fraction(4), "pX2": Fraction(7)})
        with pytest.raises(ManifoldDataError, match="degree-4 term but the manifold has dimension 8"):
            evaluate_manifold(hp2, ahat_form(table, 8).homogeneous_component(4))


def condition_numbers(dim, rng, coeff=1):
    """Random integer numbers of every monomial of degree dim over the spinc_l
    table that meet pX1 = coeff * cL^2: a monomial pX1^a * y gets coeff^a
    times the number of cL^(2a) * y, and the monomials without pX1 are free."""
    table = CaseSpec("spinc_l", dim).table()
    p1, cl = table.index("pX1"), table.index("cL")
    monomials = [()]
    for degree in table.degrees:
        monomials = [m + (e,) for m in monomials for e in range(dim // degree + 1)]
    values = {}
    for m in sorted(monomials, key=lambda m: m[p1]):  # each image, pX1-free, comes first
        if table.monomial_degree(m) != dim:
            continue
        if m[p1] == 0:
            values[m] = rng.randint(-10**6, 10**6)
        else:
            image = list(m)
            image[p1], image[cl] = 0, m[cl] + 2 * m[p1]
            values[m] = coeff ** m[p1] * values[tuple(image)]
    return {table.monomial_string(m): str(v) for m, v in values.items()}


class TestCaseCondition:
    """Numbers that break pX1 = c*m are refused before any form is paired;
    numbers that meet it balance every identity, modulo the condition."""

    @pytest.mark.parametrize("dim", CASE_DIMS["spinc_l"])
    def test_numbers_that_meet_the_condition_balance_every_identity(self, dim):
        rng = random.Random(dim)
        for _ in range(3):
            data = ManifoldData.from_mapping({"dim": dim, "numbers": condition_numbers(dim, rng)})
            check_case_condition(data)
            report = evaluate_report(data)
            assert report["case"] == "spinc_l" and len(report["identities"]) == len(identities_for("spinc_l", dim))
            assert all(row["balanced"] for row in report["identities"])

    @pytest.mark.parametrize("dim", CASE_DIMS["spinc_l"])
    def test_each_broken_equality_trips_the_check(self, dim):
        numbers = condition_numbers(dim, random.Random(dim))
        keys = [key for key in numbers if "pX1" in key]
        assert keys
        for key in keys:
            broken = {**numbers, key: str(int(numbers[key]) + 1)}
            with pytest.raises(CaseConditionError, match=rf"<{re.escape(key)}> = {broken[key]}, but <"):
                check_case_condition(ManifoldData.from_mapping({"dim": dim, "numbers": broken}))

    def test_the_first_broken_equality_is_named(self):
        data = ManifoldData.from_mapping(
            {"dim": 10, "numbers": {"pX1^2*cL": "0", "pX2*cL": "0", "pX1*cL^3": "0", "cL^5": "1"}}
        )
        message = "the numbers break the spinc_l condition pX1 = cL^2: <pX1*cL^3> = 0, but <cL^5> = 1"
        with pytest.raises(CaseConditionError) as err:
            check_case_condition(data)
        assert str(err.value) == message

    def test_a_condition_coefficient_scales_the_right_side(self, monkeypatch):
        row = verifier._FAMILIES["spinc_l"]
        monkeypatch.setitem(verifier._FAMILIES, "spinc_l", row._replace(condition=("cL^2", 3)))
        numbers = condition_numbers(10, random.Random(3), coeff=3)
        check_case_condition(ManifoldData.from_mapping({"dim": 10, "numbers": numbers}))
        numbers["pX1*cL^3"] = str(int(numbers["cL^5"]))
        with pytest.raises(CaseConditionError, match=r"pX1 = 3\*cL\^2: <pX1\*cL\^3> = (-?\d+), but 3\*<cL\^5> = "):
            check_case_condition(ManifoldData.from_mapping({"dim": 10, "numbers": numbers}))

    def test_a_missing_number_is_left_to_the_pairing(self):
        data = ManifoldData(10, {"pX1*cL^3": Fraction(1), "pX2*cL": Fraction(1)})
        check_case_condition(data)
        with pytest.raises(ManifoldDataError, match="missing"):
            evaluate_report(data)

    def test_spin_has_no_condition(self):
        check_case_condition(HP2)
        check_case_condition(ManifoldData(8, {"pX1^2": Fraction(4), "pX2": Fraction(8)}))


class TestQuaternionicPlane:
    """HP^2: pX1^2 = 4, pX2 = 7; spin, Ahat-genus 0, signature 1."""

    def test_headline_indices(self):
        report = evaluate_report(HP2)
        values = {row["label"]: row["value"] for row in report["indices"]}
        assert values["Â-genus"] == "0"
        assert values["ind(D⊗Δ)"] == "1"

    def test_identity_balances_and_divisibility(self):
        report = evaluate_report(HP2)
        assert all(row["balanced"] for row in report["identities"])
        checks = {row["corollary"]: row for row in report["checks"]}
        assert checks["Cor1.2-a"]["value"] == "-8"
        assert checks["Cor1.2-a"]["modulus"] == 8
        assert checks["Cor1.2-a"]["ok"]
        assert checks["Cor1.2-b"]["value"] == "112"
        assert checks["Cor1.2-b"]["modulus"] == 16
        assert checks["Cor1.2-b"]["ok"]

    def test_index_values_from_relation(self):
        entry = IDENTITIES["Thm1.1-(1.1)"]
        values = {label: evaluate_manifold(HP2, form) for _, label, form in relation_forms(entry)}
        assert values["ind(D⊗Δ⊗T̃)"] == -8
        assert values["ind(D⊗(T̃+Λ²T̃))"] == 8
        assert values["ind(D⊗Δ)"] == 1
        assert values["ind(D)"] == 0

    def test_failing_divisibility_detected(self):
        bad = ManifoldData(8, {"pX1^2": Fraction(4), "pX2": Fraction(8)})
        report = evaluate_report(bad)
        assert all(row["balanced"] for row in report["identities"])  # polynomial identity always balances
        assert not all(row["ok"] for row in report["checks"])  # but integrality fails

    def test_dimension_out_of_catalog(self):
        with pytest.raises(ManifoldDataError):
            evaluate_report(ManifoldData(6, {}))

    @pytest.mark.parametrize(
        "data, factors",
        [
            (HP2, {"ahat": 1, "spinor": 1}),
            (SPINC10, {"exp_half_c": 1}),  # spinc_l's relations have no Â term
        ],
        ids=["hp2", "spinc10"],
    )
    def test_each_factor_form_is_built_once(self, monkeypatch, data, factors):
        """The index rows and the identity balances read one set of index forms."""
        built = Counter()
        factor_form = verifier._factor_form

        def counting(table, factor, dim):
            built[factor] += 1
            return factor_form(table, factor, dim)

        monkeypatch.setattr(verifier, "_factor_form", counting)
        evaluate_report(data)
        assert built == factors


class TestReports:
    def test_run_case_spin8(self):
        report = run_cases([CaseSpec("spin", 8, 2)])[0]
        assert report.passed
        assert report.route_ok and report.fit_ok
        assert [r.ident for r in report.identities] == ["Thm1.1-(1.1)", "Thm1.1-(1.2)"]
        assert report.moduli == [
            ("Cor1.2-a", "ind(D⊗Δ⊗T̃)", 8),
            ("Cor1.2-b", "ind(D⊗Δ⊗(2T̃+Λ²T̃+T̃⊗T̃+S²T̃))", 16),
        ]
        assert report.lam == "2/15*pX2 + 1/60*pX1^2"

    def test_spin_v_report_notes_complexification(self):
        report = run_cases([CaseSpec("spin_v", 8, 2)])[0]
        assert any("complexification" in note for note in report.notes)

    def test_jsonable_structure_and_determinism(self):
        reports = run_cases([CaseSpec("spin", 8, 2)])
        payload = report_jsonable(reports)
        assert payload["passed"]
        case = payload["cases"][0]
        assert case["identities"][0] == {
            "id": "Thm1.1-(1.1)",
            "status": "pass",
            "residual": "0",
            "constant": 240,
            "notes": [],
        }
        assert case["moduli"]["Cor1.2-a"]["modulus"] == 8
        text1 = json.dumps(payload, sort_keys=True)
        text2 = json.dumps(report_jsonable(run_cases([CaseSpec("spin", 8, 2)])), sort_keys=True)
        assert text1 == text2
