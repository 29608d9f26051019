"""The reported tops against a point oracle that shares no code with the package.

`point_oracle` writes each family's integrand from the paper's per-root
products in plain `Fraction` arithmetic; `tests/test_dependencies.py` checks
that it imports nothing of `anomaly`.  Both routes share `algebra`'s
kernels and its conversion to Pontryagin classes, so the route comparison
cannot see a consistent error there; the oracle can.  For every catalog
case at order 3, and for each case at its first three dimensions past the
catalog, `assemble_Q`'s top, evaluated at p_k = e_k(w) and cL = c,
equals the oracle's value at a seeded rational point that meets the case
condition, at every q-power.  Negative controls: a doubled Newton
polynomial s_2 in the conversion, a point off its condition and a
perturbed prefactor in the oracle each break the agreement.
"""

import random
from fractions import Fraction

import pytest

import point_oracle
from anomaly import algebra
from anomaly.verifier import CASE_DIMS, CaseSpec, assemble_Q, run_cases
from point_oracle import elementary, integrand_top, random_point

# The catalog, written out: the oracle covers each family by hand.
CATALOG = [("spin", d) for d in (8, 12, 16, 20)] + [("spin_v", d) for d in (8, 12, 16, 20)]
CATALOG += [("spinc_l", d) for d in (10, 14, 18, 22)]
# Past the catalog, at weights 12, 14 and 16: routes and fit only.
PAST = [(case, d) for case in ("spin", "spin_v") for d in (24, 28, 32)] + [("spinc_l", d) for d in (26, 30, 34)]
ORDER = 3


def point_for(case, dim):
    return random_point(case, dim, random.Random(f"{case}-{dim}"))


def generator_values(point):
    """pXk = e_k(w_X), pVk = e_k(w_V) and cL = c, by generator name."""
    values = {f"pX{k}": elementary(point["X"], k) for k in range(1, len(point["X"]) + 1)}
    if "V" in point:
        values.update({f"pV{k}": elementary(point["V"], k) for k in range(1, len(point["V"]) + 1)})
    if "c" in point:
        values["cL"] = point["c"]
    return values


def evaluated_top(case, dim, point):
    """`assemble_Q`'s top at the point, one value per q^(j2/2), j2 = 0..2 ORDER."""
    top = assemble_Q(CaseSpec(case, dim, ORDER))
    values = generator_values(point)
    out = []
    for j2 in range(2 * ORDER + 1):
        poly = top.coefficient(j2)
        total = Fraction(0)
        for expts, coeff in poly.terms.items():
            for (name, _), e in zip(poly.table.generators, expts):
                coeff *= values[name] ** e
            total += coeff
        out.append(total)
    return out


def test_the_catalog_is_covered():
    assert sorted(CATALOG) == sorted((case, dim) for case in CASE_DIMS for dim in CASE_DIMS[case])


@pytest.mark.parametrize("case, dim", CATALOG + PAST)
def test_the_top_agrees_with_the_literal_products(case, dim):
    point = point_for(case, dim)
    expected = integrand_top(case, dim, ORDER, point)
    assert any(expected)
    assert evaluated_top(case, dim, point) == expected


def test_a_doubled_power_sum_in_the_conversion_is_caught(monkeypatch, fresh_memos):
    """Negative control: s_2 doubled in its Newton polynomial over the
    Pontryagin table, which only the conversion of the reported top reads.
    Both routes agree, so `verify` still passes, but every spin top moves."""
    newton = algebra.power_sum_in_pontryagin

    def doubled_s2(table, family, m, truncation):
        s = newton(table, family, m, truncation)
        return s * 2 if m == 2 and table.pontryagin is None else s

    monkeypatch.setattr(algebra, "power_sum_in_pontryagin", doubled_s2)
    assert all(report.passed for report in run_cases([CaseSpec(case, dim, ORDER) for case, dim in CATALOG]))
    for dim in CASE_DIMS["spin"]:
        point = point_for("spin", dim)
        assert evaluated_top("spin", dim, point) != integrand_top("spin", dim, ORDER, point), dim


@pytest.mark.parametrize("case, dim", [("spin_v", 12), ("spinc_l", 14)])
def test_a_point_off_its_condition_is_caught(case, dim):
    """Negative control: the reported top has its condition imposed, so it
    holds only where the point meets it; move the solved w off it."""
    point = point_for(case, dim)
    point["X"][0] += 1
    assert evaluated_top(case, dim, point) != integrand_top(case, dim, ORDER, point)


@pytest.mark.parametrize("case, dim", [("spin", 8), ("spin_v", 8), ("spinc_l", 10)])
def test_a_perturbed_prefactor_is_caught(monkeypatch, case, dim):
    """Negative control: sinh(x/2)/(x/2) read at x in place of x/2, which A's
    prefactor (and L's) reads, breaks the oracle's agreement."""
    sinh_ratio = point_oracle.sinh_ratio
    monkeypatch.setattr(point_oracle, "sinh_ratio", lambda w, scale, top: sinh_ratio(w, 2 * scale, top))
    point = point_for(case, dim)
    assert evaluated_top(case, dim, point) != integrand_top(case, dim, ORDER, point)
