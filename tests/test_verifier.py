"""Case assembly, identity catalog, divisibility moduli, manifold evaluation."""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

import anomaly.algebra as algebra
import anomaly.verifier as verifier
from anomaly.algebra import GradedPoly, pontryagin_table
from anomaly.bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
    tangent_complexification,
    theta_series,
)
from anomaly.qseries import RATIONALS, PolyRing, QHalfSeries
from anomaly.theta import line_quotient_evaluation, symmetric_quotient_product, theta_quotient
from anomaly.verifier import (
    CASE_DIMS,
    COROLLARIES,
    IDENTITIES,
    PRINTED_VARIANTS,
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
    case_weight,
    corollaries_for,
    corollary_modulus,
    divisibility_modulus,
    eisenstein_fit,
    evaluate_manifold,
    evaluate_report,
    identities_for,
    impose_condition,
    index_relation_forms,
    report_jsonable,
    run_case,
    run_cases,
    theta_route_integrand,
    verify_identity,
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
        with pytest.raises(ValueError):
            CaseSpec("spin", 8, 3, "shortcut")

    @pytest.mark.parametrize("dim, qcap", [(8.0, 3), (True, 3), (8, True), (8, False), (8, 2.5), (8, "3")], ids=repr)
    def test_dim_and_qcap_are_ints(self, dim, qcap):
        """A float or bool is rejected at input, not cut or read deep in a route."""
        with pytest.raises(ValueError):
            CaseSpec("spin", dim, qcap, "theta")

    def test_weights(self):
        assert CaseSpec("spin", 8).weight == 4
        assert CaseSpec("spin", 20).weight == 10
        assert CaseSpec("spin_v", 12).weight == 6
        assert CaseSpec("spinc_l", 10).weight == 4
        assert CaseSpec("spinc_l", 22).weight == 10

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
        with pytest.raises(ValueError, match="route"):
            CaseSpec("spin", 8)._replace(route="shortcut")

    def test_equal_specs_hash_equal(self):
        a, b = CaseSpec("spin_v", 12, 2), CaseSpec("spin_v", 12, 2, "both")
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
    A = symmetric_quotient_product(theta_quotient("A", tcap, cap), table, "pX", dim, cap)
    if case == "spin":
        B1, B2, B3 = (
            symmetric_quotient_product(theta_quotient(kind, tcap, cap), table, "pX", dim, cap)
            for kind in ("B1", "B2", "B3")
        )
        return (A * (B1 + B2 + B3)).scale(2 ** (dim // 2))
    if case == "spin_v":
        for kind in ("B1", "B2", "B3"):
            A = A * symmetric_quotient_product(theta_quotient(kind, tcap, cap), table, "pV", dim, cap)
        return A
    return A * line_quotient_evaluation(theta_quotient("L", tcap, cap), table, dim, cap)


@pytest.mark.parametrize("case,dim", ALL_CASES)
class TestRoutesAndFits:
    def test_routes_agree(self, case, dim):
        spec = CaseSpec(case, dim, 2)
        assert bundle_route_integrand(spec) == theta_route_integrand(spec)

    def test_theta_t_cap_is_exact_at_half_the_dimension(self, case, dim):
        """t^n is a degree-2n class: t-cap dim // 2 reaches every degree, one less does not.

        So the route comparison can still fail when the theta route drops a
        t-power the integrand needs.
        """
        spec = CaseSpec(case, dim, 2)
        bundle = bundle_route_integrand(spec)
        table = spec.table()
        at_cap = theta_product(table, case, dim, 2, dim // 2)
        assert at_cap == theta_route_integrand(spec)
        assert at_cap == bundle
        assert theta_product(table, case, dim, 2, dim // 2 - 1) != bundle

    def test_fit_is_exact(self, case, dim):
        spec = CaseSpec(case, dim, 2)
        fit = eisenstein_fit(assemble_Q(spec), spec.weight)
        assert fit.passed
        assert not fit.lam.is_zero()


@dataclass(frozen=True)
class WideSpec:
    """The fields `assemble_Q` reads from a `CaseSpec`, which accepts only the catalog dimensions."""

    case: str
    dim: int
    qcap: int
    route: str

    def table(self):
        return pontryagin_table(self.dim)


# sha256 of the top-degree render of the spin case past the catalog at order
# 3, recorded before the bundle route's products were reordered.
SPIN_WIDE_DIGESTS = {
    24: "a2748884f3d76afb2ebb0c209731fd481fff22c43e4936bb071ca334435bc120",
    28: "edf2f468a254cb113e32b2c68b64a685b6085a13e88298dd2614dfc14d17abf1",
}


class TestSpinPastTheCatalog:
    @pytest.mark.parametrize("route", ["bundle", "theta"])
    @pytest.mark.parametrize("dim", sorted(SPIN_WIDE_DIGESTS))
    def test_top_render_is_pinned(self, dim, route):
        top = assemble_Q(WideSpec("spin", dim, 3, route))
        assert hashlib.sha256(top.render().encode("utf-8")).hexdigest() == SPIN_WIDE_DIGESTS[dim]


class TestPowerSharing:
    def test_spin_case_builds_each_power_once(self, monkeypatch):
        """theta1, theta2, theta3 and the identities share one set of powers of T~."""
        builds = Counter()

        def counting(name):
            method = getattr(VirtualBundle, name)
            slot = "_lam" if name == "lambda_power" else "_sym"

            def wrapper(bundle, k):
                cache = getattr(bundle, slot)
                value = (bundle.table, bundle.rank, frozenset(bundle.reduced.terms.items()))
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
        TX = tangent_complexification(spec.table(), 20)
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
        report = run_case(CaseSpec("spin", 8, 0))
        assert report.route_ok
        assert not report.fit_ok
        assert report.fit_residual == "insufficient order: no q-coefficient compared"
        assert not report.passed

    def test_order_one_compares_one_coefficient(self):
        fit = eisenstein_fit(assemble_Q(CaseSpec("spin", 8, 1)), 4)
        assert fit.compared == 1
        assert fit.passed


def perturb_theta_route(monkeypatch, edits):
    """Make the theta route add `delta` to each (doubled q-exponent, monomial)."""
    original = verifier.theta_route_integrand

    def perturbed(spec):
        series = original(spec)
        coeffs = dict(series.coeffs)
        for j2, monomial, delta in edits:
            poly = coeffs[j2]
            bump = {poly.table.parse_monomial(monomial): delta}
            coeffs[j2] = poly + GradedPoly(poly.table, poly.truncation, bump)
        return QHalfSeries(series.ring, series.cap, coeffs)

    monkeypatch.setattr(verifier, "theta_route_integrand", perturbed)


class TestRouteMismatch:
    SPEC = CaseSpec("spin", 8, 1)

    def test_message_names_the_differing_coefficient(self, monkeypatch):
        before = bundle_route_integrand(self.SPEC).coefficient(2).coefficient("pX2")
        perturb_theta_route(monkeypatch, [(2, "pX2", Fraction(1, 7))])
        with pytest.raises(RouteMismatchError) as exc:
            assemble_Q(self.SPEC)
        message = str(exc.value)
        assert "at doubled q-exponents [2]" in message
        assert (
            f"first difference at q^1, monomial pX2: bundle route {before}, "
            f"theta route {before + Fraction(1, 7)}"
        ) in message

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
        report = run_case(self.SPEC)
        assert not report.route_ok and not report.passed
        assert "first difference at q^1, monomial pX1:" in report.route_detail


def family_cut(series, case, top, dim, extra_halvings=0):
    """The route integrand `series` of `case` at dimension `top` cut to `dim`, rank-scaled for spin."""
    halvings = (top - dim) // 2 if case == "spin" else 0
    cut = series.cut(PolyRing(CaseSpec(case, dim).table(), dim))
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
        run_case(CaseSpec("spin", 8, 1))  # a lone spec is its own top
        assert sorted(built) == [("bundle_route_integrand", "spin", 8), ("theta_route_integrand", "spin", 8)]

    def test_a_perturbed_top_shows_at_every_dimension(self, monkeypatch):
        """A delta at q^1 * pX2 in the theta route's top series reaches each cut, rank-scaled."""
        delta = Fraction(1, 7)
        perturb_theta_route(monkeypatch, [(2, "pX2", delta)])
        reports = run_cases([CaseSpec("spin", dim, 1) for dim in CASE_DIMS["spin"]])
        for report in reports:
            dim = report.dim
            before = bundle_route_integrand(CaseSpec("spin", dim, 1)).coefficient(2).coefficient("pX2")
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

    def test_a_mismatch_above_the_lower_dimensions_stays_at_the_top(self, monkeypatch):
        """Tops that differ only in a degree-20 term: both routes are cut and
        compared at every dimension, so 8-16 agree and 20 names the term."""
        delta = Fraction(1, 7)
        perturb_theta_route(monkeypatch, [(2, "pX5", delta)])
        reports = run_cases([CaseSpec("spin", dim, 1) for dim in CASE_DIMS["spin"]])
        for report in reports[:-1]:
            assert report.route_ok and report.passed, report.dim
        top = reports[-1]
        before = bundle_route_integrand(CaseSpec("spin", 20, 1)).coefficient(2).coefficient("pX5")
        assert not top.route_ok and not top.passed
        assert top.route_detail == (
            "bundle and theta routes disagree for spin dim 20 at doubled q-exponents [2]; "
            f"first difference at q^1, monomial pX5: bundle route {before}, theta route {before + delta}"
        )
        assert run_case(CaseSpec("spin", 20, 1)).route_detail == top.route_detail


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
            return QHalfSeries(RATIONALS, cap, {0: Fraction(1), 2: Fraction(1, 2)})

        monkeypatch.setattr(verifier, "modular_basis", skewed_basis)
        with pytest.raises(ArithmeticError, match="not an integer"):
            verify_identity("Thm1.1-(1.1)")
        with pytest.raises(ArithmeticError, match="not an integer"):
            index_relation_forms(IDENTITIES["Thm1.1-(1.1)"])


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
    return series.coefficient_q(n), verifier._build_combo(combos[sector][n], bundles).ch() * scale


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


# The catalog top of each identity case's family (spin_v_line rides with
# spin_v), and the arguments of its `pontryagin_table`.
FAMILY_TOPS = {"spin": 20, "spin_v": 20, "spin_v_line": 20, "spinc_l": 22}
ENTRY_TABLES = {"spin": {}, "spin_v": {"aux": True}, "spin_v_line": {"line": True}, "spinc_l": {"line": True}}


@lru_cache(maxsize=None)
def family_forms(case):
    """The index forms of every identity of `case`'s family, built at its catalog top."""
    family = "spin_v" if case == "spin_v_line" else case
    return verifier._index_forms([e for dim in CASE_DIMS[family] for e in identities_for(family, dim)])


def family_sum(entry, halve_spinor_ratio=False):
    """The relation summed over the family top's forms, each divided by its rank
    ratio (or by half of it, for `halve_spinor_ratio`), case condition imposed."""
    e = verifier._basis_coefficient(entry.weight, entry.q_power)
    acc = None
    for coeff, _, form, ratio in verifier._relation_terms(entry, family_forms(entry.case), e):
        if halve_spinor_ratio and ratio > 1:
            ratio //= 2
        piece = form * Fraction(coeff, ratio)
        acc = piece if acc is None else acc + piece
    return impose_condition(acc, entry.case)


class TestFamilyIdentityForms:
    """Each family's index forms, built once at its top, cut to every identity of the family."""

    @pytest.mark.parametrize("ident", sorted(IDENTITIES))
    def test_top_forms_give_the_direct_forms(self, ident):
        entry = IDENTITIES[ident]
        forms = family_forms(entry.case)
        assert forms[0] == FAMILY_TOPS[entry.case]
        e = verifier._basis_coefficient(entry.weight, entry.q_power)
        direct = index_relation_forms(entry)
        for (coeff, label, form, ratio), (coeff0, label0, form0) in zip(
            verifier._relation_terms(entry, forms, e), direct, strict=True
        ):
            assert (coeff, label) == (coeff0, label0)
            assert form.table is pontryagin_table(forms[0], **ENTRY_TABLES[entry.case])
            assert form0.table is pontryagin_table(entry.dim, **ENTRY_TABLES[entry.case])
            assert form.cut(form0.table, entry.dim) / ratio == form0, label
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
        assert not verify_identity(ident, forms, **PRINTED_VARIANTS[ident]).passed

    def test_a_full_run_builds_each_form_and_table_once(self, monkeypatch):
        combos = []
        build_combo = verifier._build_combo

        def counting(combo, bundles):
            combos.append((bundles["T"].table, combo))
            return build_combo(combo, bundles)

        monkeypatch.setattr(verifier, "_build_combo", counting)
        monkeypatch.setattr(algebra, "_TABLES", {})  # count every table from scratch
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
        assert len(tables) == len(set(tables)) == 12

    def test_a_lone_spec_builds_nothing_above_its_dimension(self, monkeypatch):
        dims, truncations = [], []
        table, build_combo = verifier.pontryagin_table, verifier._build_combo
        monkeypatch.setattr(verifier, "pontryagin_table", lambda dim, **kw: dims.append(dim) or table(dim, **kw))
        monkeypatch.setattr(
            verifier, "_build_combo", lambda combo, bundles: truncations.append(bundles["T"].truncation) or build_combo(combo, bundles)
        )
        assert run_case(CaseSpec("spin", 8)).passed
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
        terms = index_relation_forms(entry)
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
        values = {label: evaluate_manifold(HP2, form) for _, label, form in index_relation_forms(entry)}
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
        report = run_case(CaseSpec("spin", 8, 2))
        assert report.passed
        assert report.route_ok and report.fit_ok
        assert [r.ident for r in report.identities] == ["Thm1.1-(1.1)", "Thm1.1-(1.2)"]
        assert report.moduli == [
            ("Cor1.2-a", "ind(D⊗Δ⊗T̃)", 8),
            ("Cor1.2-b", "ind(D⊗Δ⊗(2T̃+Λ²T̃+T̃⊗T̃+S²T̃))", 16),
        ]
        assert report.lam == "2/15*pX2 + 1/60*pX1^2"

    def test_spin_v_report_notes_complexification(self):
        report = run_case(CaseSpec("spin_v", 8, 2))
        assert any("complexification" in note for note in report.notes)

    def test_jsonable_structure_and_determinism(self):
        reports = [run_case(CaseSpec("spin", 8, 2))]
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
        text2 = json.dumps(report_jsonable([run_case(CaseSpec("spin", 8, 2))]), sort_keys=True)
        assert text1 == text2
