"""Power-sum coordinates: both routes and the index forms are built over the
power sums s_m of each root family, and `algebra.to_pontryagin` moves a
form onto the Pontryagin classes.

The differential tests build each route integrand and index form over the
Pontryagin table too, through the same table-generic functions, and compare
it with the conversion of the power-sum build.  The property tests check
that the conversion is a ring isomorphism that fixes the case conditions,
and the shape tests pin where the Newton polynomials of the power sums are
reached, so that a route that slips back to dense Pontryagin inputs fails.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomaly import algebra, bundles, genera, theta, verifier
from anomaly.algebra import (
    GeneratorTable,
    GradedPoly,
    first_classes,
    pontryagin_table,
    power_sum_in_pontryagin,
    power_sum_table,
    to_pontryagin,
)
from anomaly.bundles import tangent_complexification
from anomaly.qseries import PolyRing, QHalfSeries
from anomaly.verifier import CASE_DIMS, CaseSpec, identities_for, impose_condition, run_cases
from oracles import elementary_in_power_sums, in_power_sums

SETTINGS = settings(max_examples=60, deadline=None)
FAMILY_TABLES = {"spin": {}, "spin_v": {"aux": True}, "spinc_l": {"line": True}, "spin_v_line": {"line": True}}


class TestTables:
    def test_same_families_other_names(self):
        sums = power_sum_table(12, aux=True, line=True)
        assert sums.names == ("sX1", "sX2", "sX3", "sV1", "sV2", "sV3", "cL")
        assert sums.degrees == pontryagin_table(12, aux=True, line=True).degrees
        assert sums.pontryagin is pontryagin_table(12, aux=True, line=True)
        assert pontryagin_table(12).pontryagin is None
        assert sums != sums.pontryagin

    def test_interned(self):
        assert power_sum_table(8) is power_sum_table(11) is power_sum_table(dim=8, aux=0, line=None)
        assert power_sum_table(8, line=True) is not power_sum_table(8)

    def test_no_power_sum_reads_as_a_pontryagin_class(self):
        sums = power_sum_table(8)
        with pytest.raises(KeyError):
            sums.parse_monomial("pX2")
        with pytest.raises(KeyError):
            sums.pontryagin.parse_monomial("sX2")
        s2 = GradedPoly.generator(sums, "sX2", 8)
        with pytest.raises(ValueError, match="lacks"):
            s2.cut(sums.pontryagin, 8)

    @pytest.mark.parametrize("dim", [4, 8, 20, 64])
    def test_the_power_sums_are_the_generators(self, dim):
        sums = power_sum_table(dim, aux=True)
        for family, letter in (("pX", "X"), ("pV", "V")):
            for m in range(1, dim // 4 + 1):
                assert power_sum_in_pontryagin(sums, family, m, dim) == GradedPoly.generator(sums, f"s{letter}{m}", dim)
            assert power_sum_in_pontryagin(sums, family, dim // 4 + 1, dim).is_zero()
        with pytest.raises(ValueError, match="unknown generator family"):
            power_sum_in_pontryagin(sums, "sX", 1, dim)
        with pytest.raises(ValueError, match="missing generator"):
            power_sum_in_pontryagin(sums, "pX", dim // 4 + 1, dim + 4)

    def test_first_classes_read_alike_in_both_coordinates(self):
        sums = power_sum_table(8, aux=True, line=True)
        for monomial in ("pX1", "pV1", "cL^2", "pX1*cL"):
            assert first_classes(sums, monomial) == first_classes(sums.pontryagin, monomial)
            assert sums.monomial_string(first_classes(sums, monomial)) == monomial.replace("p", "s")
        with pytest.raises(ValueError, match="degree-2 and degree-4"):
            first_classes(sums, "pX2")

    def test_only_a_power_sum_table_converts(self):
        with pytest.raises(ValueError, match="not a power-sum table"):
            to_pontryagin(GradedPoly.generator(pontryagin_table(8), "pX1", 8))
        with pytest.raises(ValueError, match="not a power-sum table"):
            to_pontryagin(GradedPoly.generator(GeneratorTable([("sX1", 4)]), "sX1", 8))


class TestConversionGoldens:
    def test_low_degrees(self):
        sums, table = power_sum_table(16), pontryagin_table(16)
        p1, p2, p3 = (GradedPoly.generator(table, f"pX{i}", 16) for i in (1, 2, 3))
        s1, s2, s3 = (GradedPoly.generator(sums, f"sX{i}", 16) for i in (1, 2, 3))
        assert to_pontryagin(s1) == p1
        assert to_pontryagin(s2) == p1 * p1 - 2 * p2
        assert to_pontryagin(s3 - s1 * s2 / 2) == p1**3 / 2 - 2 * p1 * p2 + 3 * p3
        assert to_pontryagin(s1 * s3 + 5) == p1**4 - 3 * p1 * p1 * p2 + 3 * p1 * p3 + 5

    def test_line_class_is_fixed(self):
        sums = power_sum_table(10, line=True)
        c, s2 = GradedPoly.generator(sums, "cL", 10), GradedPoly.generator(sums, "sX2", 10)
        table = sums.pontryagin
        pc, p1, p2 = (GradedPoly.generator(table, name, 10) for name in ("cL", "pX1", "pX2"))
        assert to_pontryagin(c**3 * s2) == pc**3 * (p1 * p1 - 2 * p2)

    def test_a_series_keeps_its_q_powers_and_cap(self):
        sums = power_sum_table(8)
        ring = PolyRing(sums, 8)
        s2 = GradedPoly.generator(sums, "sX2", 8)
        series = QHalfSeries(ring, 2, {0: 1, 1: s2, 4: s2 * Fraction(1, 3)})
        converted = to_pontryagin(series)
        assert converted.ring == PolyRing(sums.pontryagin, 8) and converted.cap == 2
        image = power_sum_in_pontryagin(sums.pontryagin, "pX", 2, 8)
        assert converted == QHalfSeries(converted.ring, 2, {0: 1, 1: image, 4: image * Fraction(1, 3)})

    @pytest.mark.parametrize("dim", [8, 12, 20])
    def test_newton_inverse_round_trips(self, dim):
        """The oracle's e_k, written in power sums, converts to pX_k."""
        sums = power_sum_table(dim)
        for k in range(1, dim // 4 + 1):
            assert to_pontryagin(elementary_in_power_sums(sums, "pX", k, dim)) == GradedPoly.generator(sums.pontryagin, f"pX{k}", dim)


# -- the conversion is a ring isomorphism that fixes the case conditions -------------


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def power_sum_polys(draw, table, truncation):
    """A polynomial over `table` at `truncation`: up to six terms within it."""
    exponents = st.tuples(*[st.integers(0, truncation // degree) for degree in table.degrees])
    terms = draw(st.dictionaries(exponents, coefficients, max_size=6))
    return GradedPoly(table, truncation, terms)


@st.composite
def power_sum_series(draw, table, truncation, cap):
    """A q-series over `table` with half-integer powers up to q^cap."""
    coeffs = draw(st.dictionaries(st.integers(0, 2 * cap), power_sum_polys(table, truncation), max_size=3))
    return QHalfSeries(PolyRing(table, truncation), cap, coeffs)


@st.composite
def family_tables(draw):
    """A case family with a condition, or spin, and a power-sum table of it at a small truncation."""
    case = draw(st.sampled_from(sorted(FAMILY_TABLES)))
    dim = draw(st.sampled_from([4, 8, 12]))
    truncation = dim + draw(st.sampled_from([0, 2])) if FAMILY_TABLES[case].get("line") else dim
    return case, power_sum_table(dim, **FAMILY_TABLES[case]), truncation


class TestRingMap:
    @SETTINGS
    @given(family_tables().flatmap(lambda f: st.tuples(st.just(f), power_sum_polys(f[1], f[2]), power_sum_polys(f[1], f[2]))))
    def test_sums_and_products(self, args):
        _, a, b = args
        assert to_pontryagin(a + b) == to_pontryagin(a) + to_pontryagin(b)
        assert to_pontryagin(a * b) == to_pontryagin(a) * to_pontryagin(b)
        assert to_pontryagin(a * Fraction(-2, 3)) == to_pontryagin(a) * Fraction(-2, 3)
        assert to_pontryagin(a).is_zero() == a.is_zero()

    @SETTINGS
    @given(family_tables().flatmap(lambda f: st.tuples(st.just(f), power_sum_series(f[1], f[2], 2), power_sum_series(f[1], f[2], 2))))
    def test_series_products_and_the_half_period_shift(self, args):
        _, x, y = args
        assert to_pontryagin(x + y) == to_pontryagin(x) + to_pontryagin(y)
        assert to_pontryagin(x * y) == to_pontryagin(x) * to_pontryagin(y)
        assert to_pontryagin(x.tau_shift_half()) == to_pontryagin(x).tau_shift_half()
        for j2 in range(5):
            assert to_pontryagin(x.coefficient(j2)) == to_pontryagin(x).coefficient(j2)

    @SETTINGS
    @given(family_tables().flatmap(lambda f: st.tuples(st.just(f), power_sum_polys(f[1], f[2]))))
    def test_commutes_with_the_case_condition(self, args):
        """The condition pX1 -> image reads s1 -> image over power sums, since p1 = s1."""
        (case, _, _), x = args
        assert impose_condition(to_pontryagin(impose_condition(x, case)), case) == impose_condition(to_pontryagin(x), case)

    @pytest.mark.parametrize("aux", [False, True])
    def test_each_power_sum_goes_to_its_newton_polynomial(self, aux):
        sums = power_sum_table(24, aux=aux)
        for name, degree in sums.generators:
            family = "p" + name[1]
            image = power_sum_in_pontryagin(sums.pontryagin, family, degree // 4, 24)
            assert to_pontryagin(GradedPoly.generator(sums, name, 24)) == image


# -- differential: the Pontryagin build is the conversion of the power-sum build ---------


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case,dim", [(case, dim) for case in CASE_DIMS for dim in CASE_DIMS[case]])
def test_routes_over_pontryagin_classes_are_the_conversion(case, dim, order):
    """The table-generic route functions over the Pontryagin table compute
    what the routes computed before the power-sum coordinates; the routes'
    power-sum series convert to them."""
    spec = CaseSpec(case, dim, order)
    assert verifier._bundle_route(spec, spec.table()) == to_pontryagin(verifier.bundle_route_integrand(spec))
    assert verifier._theta_route(spec, spec.table()) == to_pontryagin(verifier.theta_route_integrand(spec))


@pytest.mark.parametrize("case", sorted(CASE_DIMS))
def test_index_forms_over_pontryagin_classes_are_the_conversion(case):
    entries = [entry for dim in CASE_DIMS[case] for entry in identities_for(case, dim)]
    top, by_pontryagin = verifier._index_forms(entries, verifier._Family.table)
    top_sums, by_sums = verifier._index_forms(entries, verifier._Family.power_sum_table)
    assert top == top_sums and by_pontryagin.keys() == by_sums.keys()
    for key, form in by_sums.items():
        assert form.table.pontryagin is not None
        assert to_pontryagin(form) == by_pontryagin[key], key


def test_the_perturbation_oracle_is_the_inverse():
    sums = power_sum_table(20, aux=True)
    for monomial in ("pX1^2*pX2", "pX5", "pV2*pX3", "1"):
        expts = sums.pontryagin.parse_monomial(monomial)
        assert to_pontryagin(in_power_sums(sums, monomial, 20)) == GradedPoly(sums.pontryagin, 20, {expts: 1})


# -- shape: the routes read the power sums as generators -----------------------------


def test_only_the_conversion_reaches_the_newton_polynomials(monkeypatch, fresh_memos):
    """A catalog run reaches `power_sum_in_pontryagin` over a Pontryagin table,
    the Newton recursion, only from `to_pontryagin`: no route, genus or index
    form computes in dense Pontryagin inputs."""
    calls = []
    original = algebra.power_sum_in_pontryagin

    def recording(table, family, m, truncation=None):
        frame, callers = sys._getframe(1), []
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        caller = next(name for name in callers if not name.startswith("<"))  # a comprehension is a frame of its own
        calls.append((table.pontryagin is None, "to_pontryagin" in callers, caller))
        return original(table, family, m, truncation)

    for module in (algebra, bundles, genera, theta):
        monkeypatch.setattr(module, "power_sum_in_pontryagin", recording)
    # fresh_memos: memoized forms, and the interned tables' kept images, would hide the calls
    reports = run_cases([CaseSpec(case, dim, 3) for case in CASE_DIMS for dim in CASE_DIMS[case]])
    assert all(report.passed for report in reports)
    newton = [(through, caller) for on_pontryagin, through, caller in calls if on_pontryagin]
    assert newton and all(through for through, _ in newton)
    routes = {caller for on_pontryagin, _, caller in calls if not on_pontryagin}
    assert routes == {"_complexification", "multiplicative_genus_eval", "_bridged_log"}


@pytest.mark.parametrize("dim, partitions", [(8, 2), (20, 7), (32, 22), (64, 231)])
def test_the_reduced_tangent_character_has_one_term_per_power_sum(dim, partitions):
    """The reduced ch(T~) is a sum of 2*s_m/(2m)!, m = 1..dim/4: dim/4 terms
    over the power sums, where its top degree alone has one term per
    partition of dim/4 over the Pontryagin classes."""
    assert len(tangent_complexification(power_sum_table(dim), dim).reduce().ch().items) == dim // 4
    dense = tangent_complexification(pontryagin_table(dim), dim).reduce().ch().homogeneous_component(dim)
    assert len(dense.items) == partitions
