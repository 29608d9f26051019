"""Every field of the case-family table reaches the report: a mutation matrix.

Each mutation replaces one field of one `verifier._FAMILIES` row and runs the
12 catalog specs at order 3 in-process.  The table states which report fields
must change, each keyed by (case, dim, field): the route comparison, the fit,
an identity's status or a corollary's modulus.  A mutation that changes
nothing fails, and so does one that changes a field the table does not list.
No memoized form is keyed by a row, so the runs share no stale cache.
"""

import pytest

from anomaly import verifier
from anomaly.verifier import CASE_DIMS, CaseSpec, run_cases

SPECS = [CaseSpec(case, dim, 3) for case in CASE_DIMS for dim in CASE_DIMS[case]]


def outcome() -> dict:
    """The report fields of one run over SPECS, keyed by (case, dim, field)."""
    fields = {}
    for report in run_cases(SPECS):
        key = report.case, report.dim
        fields[(*key, "route_ok")] = report.route_ok
        fields[(*key, "fit_ok")] = report.fit_ok
        fields.update({(*key, result.ident): result.passed for result in report.identities})
        fields.update({(*key, ident): modulus for ident, _, modulus in report.moduli})
    return fields


def flips(case: str, by_dim: dict) -> set:
    """(case, dim, field) for each space-separated field listed under each dim."""
    return {(case, dim, field) for dim, fields in by_dim.items() for field in fields.split()}


MUTATIONS = {
    "spin_v condition pX1 -> 2*pV1": (
        "spin_v",
        {"condition": ("pV1", 2)},
        # the line-bundle specialization keeps its own condition, so Cor1.10-1.19 still pass
        flips("spin_v", {
            8: "fit_ok Thm1.9-q1 Thm1.9-q2",
            12: "fit_ok Thm1.12-q1 Thm1.12-q2",
            16: "fit_ok Thm1.15-q1",
            20: "fit_ok Thm1.18-q1",
        }),
    ),
    "spin rank base 4": (
        "spin",
        {"rank_base": 4},
        # both routes are cut by the same ratio, so they agree and still fit; Â carries
        # no rank, so the identities fail below the top, where nothing is cut
        flips("spin", {
            8: "Thm1.1-(1.1) Thm1.1-(1.2)",
            12: "Thm1.3-(1.5) Thm1.3-(1.6)",
            16: "Thm1.5-(1.9) Thm1.5-(1.10)",
        }),
    ),
    "spinc_l condition pX1 -> 2*cL^2": (
        "spinc_l",
        {"condition": ("cL^2", 2)},
        flips("spinc_l", {
            10: "fit_ok Thm1.21-q1 Thm1.21-q2",
            14: "fit_ok Thm1.23-q1 Thm1.23-q2",
            18: "fit_ok Thm1.25-q1",
            22: "fit_ok Thm1.27-q1",
        }),
    ),
    "spin_v_line condition pX1 -> cL^2": (
        "spin_v_line",
        {"condition": ("cL^2", 1)},
        flips("spin_v", {8: "Cor1.10-a Cor1.10-b", 12: "Cor1.13-a Cor1.13-b", 16: "Cor1.16-a", 20: "Cor1.19-a"}),
    ),
    "spinc_l bundle factor cosh(cL/2)": (
        "spinc_l",
        {"bundle_factor": "cosh_half_c"},
        # a route mismatch leaves nothing to fit
        flips("spinc_l", {dim: "route_ok fit_ok" for dim in (10, 14, 18, 22)}),
    ),
}


@pytest.fixture(scope="module")
def baseline():
    return outcome()


def test_the_unmutated_table_passes():
    assert all(report.passed for report in run_cases(SPECS))


@pytest.mark.parametrize("case, change, expected", MUTATIONS.values(), ids=list(MUTATIONS))
def test_a_row_mutation_flips_exactly_its_fields(monkeypatch, baseline, case, change, expected):
    assert expected, "a mutation must name the fields it flips"
    monkeypatch.setitem(verifier._FAMILIES, case, verifier._FAMILIES[case]._replace(**change))
    mutated = outcome()
    assert {key for key in baseline if mutated[key] != baseline[key]} == expected
