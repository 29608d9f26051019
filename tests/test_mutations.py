"""Every field of the case-family table reaches the report: a mutation matrix.

Each row mutation replaces one field of one `verifier._FAMILIES` row (one
combination atom counts as a field), each code mutation replaces one
expression in the source of an engine function (`bundles.theta_series`,
`bundles._lam_factor`, `qseries.eisenstein`, `algebra._exp_form`,
`genera._log_coeffs`, `theta._log_a`, `theta._quotient_log`,
`theta.theta_quotient`, `verifier._relation`, `verifier._combo_ch`,
`verifier.eisenstein_fit`), and each rescaling mutation replaces one
quotient kind's entry of `theta._RESCALINGS`; each then runs the 12 catalog
specs at order 3 in-process.  One code mutation moves only a top-degree
term, so the family's tops differ and every dimension compares its own
cuts.  The tables
state which report fields must change, each keyed by (case, dim, field):
the route comparison, the fit, an identity's status or a corollary's
modulus.  A mutation that changes nothing fails, and so does one that
changes a field the table does not list.  No memoized form is keyed by a
row, and every engine memo is cleared around each code and rescaling
mutation (the `fresh_memos` fixture), so the runs share no stale cache.
"""

import inspect

import pytest

from anomaly import algebra, bundles, genera, qseries, theta, verifier
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


def q2_atom_swapped(combos: dict, old: str, new: str) -> dict:
    """The combos with the q^2 atom (old,) replaced by (new,)."""
    return {**combos, 2: tuple((coeff, (new,) if atoms == (old,) else atoms) for coeff, atoms in combos[2])}


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
        # the theta route's scale is 4^(dim/2), the bundle route's spinor rank stays 2^(dim/2),
        # so the routes differ at every dimension, leaving nothing to fit; below the top the
        # identities divide Â·ch(Δ) by the rank ratio, and Â by nothing, so they fail there
        flips("spin", {
            8: "route_ok fit_ok Thm1.1-(1.1) Thm1.1-(1.2)",
            12: "route_ok fit_ok Thm1.3-(1.5) Thm1.3-(1.6)",
            16: "route_ok fit_ok Thm1.5-(1.9) Thm1.5-(1.10)",
            20: "route_ok fit_ok",
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
    "spin theta sector B1 -> B2": (
        "spin",
        {"theta_sectors": (((("A", "pX"), ("B2", "pX")), False), ((("A", "pX"), ("B2", "pX")), True))},
        # the theta route alone reads the sectors: a route mismatch leaves nothing to fit
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "spin theta sector 2 without its shift": (
        "spin",
        {"theta_sectors": (((("A", "pX"), ("B1", "pX")), False), ((("A", "pX"), ("B2", "pX")), False))},
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "spin_v theta sector without B3": (
        "spin_v",
        {"theta_sectors": (((("A", "pX"), ("B1", "pV"), ("B2", "pV")), False),)},
        flips("spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "spin_v q^2 atom L4V -> L3V": (
        "spin_v",
        {"combos": q2_atom_swapped(verifier._V_COMBO, "L4V", "L3V")},
        # only the identity catalog reads the combos, and only dims 8 and 12 state a q^2 identity;
        # spin_v's identities have no corollaries (Cor1.10-1.20 are spin_v_line's, whose row keeps
        # its combos)
        flips("spin_v", {8: "Thm1.9-q2", 12: "Thm1.12-q2"}),
    ),
    "spin_v_line q^2 atom L4V -> L3V": (
        "spin_v_line",
        {"combos": q2_atom_swapped(verifier._V_COMBO, "L4V", "L3V")},
        # the q^2 relations fail; the corollaries Cor1.11-b and Cor1.14-b solve them for their first
        # term, whose label is rendered from the live row, and the moduli read only the coefficients
        flips("spin_v", {8: "Cor1.10-b", 12: "Cor1.13-b"}),
    ),
    "spinc_l q^2 atom L2V -> L3V": (
        "spinc_l",
        {"combos": q2_atom_swapped(verifier._L_COMBO, "L2V", "L3V")},
        # as for spin_v_line: the q^2 relations fail, and Cor1.22-b and Cor1.24-b keep their moduli
        flips("spinc_l", {10: "Thm1.21-q2", 14: "Thm1.23-q2"}),
    ),
    "spinc_l bundle factor cosh(cL/2)": (
        "spinc_l",
        {"bundle_factor": "cosh_half_c"},
        # a route mismatch leaves nothing to fit
        flips("spinc_l", {dim: "route_ok fit_ok" for dim in (10, 14, 18, 22)}),
    ),
}


# B1 is read by the spin and spin_v sectors; spinc_l reads only A.
B1_ROUTES = flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}) | flips(
    "spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}
)


# Each replaces one expression of a function, which must occur there once, and
# patches the recompiled function in as the name of the module that reads it.
CODE_MUTATIONS = {
    "thetaV folded through psi^3": (
        bundles.theta_series,
        verifier,
        "Vr.adams(2)",
        "Vr.adams(3)",
        # the identities read no theta series: only spin_v's route comparison, and so its fit
        flips("spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "sectors rank factor halved": (
        bundles.theta_series,
        verifier,
        "lam * V.rank",
        "lam * (V.rank // 2)",
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "E4 and E6 off by 24 at q^2": (
        qseries.eisenstein,
        qseries,  # modular_basis reads it, and the verifier reads modular_basis
        "Fraction(const * _sigma(k, n))",
        "Fraction(const * _sigma(k, n) + 24 * (n == 2))",
        # every fit compares q^2, and so do the q^2 identities and their "-b" corollaries;
        # the identities and moduli at q^1 read no q^2 coefficient
        flips("spin", {
            8: "fit_ok Thm1.1-(1.2) Cor1.2-b",
            12: "fit_ok Thm1.3-(1.6) Cor1.4-b",
            16: "fit_ok Thm1.5-(1.10) Cor1.6-b",
            20: "fit_ok Thm1.7-(1.14)",
        })
        | flips("spin_v", {
            8: "fit_ok Thm1.9-q2 Cor1.10-b Cor1.11-b",
            12: "fit_ok Thm1.12-q2 Cor1.13-b Cor1.14-b",
            16: "fit_ok",
            20: "fit_ok",
        })
        | flips("spinc_l", {
            10: "fit_ok Thm1.21-q2 Cor1.22-b",
            14: "fit_ok Thm1.23-q2 Cor1.24-b",
            18: "fit_ok",
            22: "fit_ok",
        }),
    ),
    "series exp side step divided by s + 1": (
        algebra._exp_form,
        qseries,  # qseries_exp reads it; the verify path takes no two-variable exp
        "lambda s, d: s * d",
        "lambda s, d: (s + 1) * d",
        # only the theta route's sector exps change: the route comparison fails, leaving nothing to fit
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spinc_l", {dim: "route_ok fit_ok" for dim in (10, 14, 18, 22)}),
    ),
    "log kernel doubles its weight-8 part": (
        genera._log_coeffs,
        genera,  # ahat_genus and cosh_genus read it
        "return tuple(b[1:])",
        "return tuple(c * (1 + (m == 4)) for m, c in enumerate(b[1:], 1))",
        # only genera's Â and cosh logs are taken by the recurrence (the theta route's logs are
        # closed forms); doubling the returned t^8 coefficient, which first reaches degree 16,
        # leaves every other coefficient as it was: the bundle route breaks from dimension 16 on,
        # and so do the listed identities, whose index forms read the same genera
        flips("spin", {16: "route_ok fit_ok Thm1.5-(1.9) Thm1.5-(1.10)", 20: "route_ok fit_ok Thm1.7-(1.13) Thm1.7-(1.14)"})
        | flips("spin_v", {16: "route_ok fit_ok Thm1.15-q1 Cor1.16-a", 20: "route_ok fit_ok"})
        | flips("spinc_l", {18: "route_ok fit_ok Thm1.25-q1", 22: "route_ok fit_ok"}),
    ),
    "A's divisor sum drops its last divisor": (
        theta._log_a,
        theta,  # _quotient_log reads it
        "range(1, n + 1)",
        "range(1, n)",
        # sigma(n) loses the divisor n, so sigma(1) = 0: every quotient reads A's logarithm, so
        # every family's route comparison fails, leaving nothing to fit
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spinc_l", {dim: "route_ok fit_ok" for dim in (10, 14, 18, 22)}),
    ),
    "A's t^10 divisor sums gain 1": (
        theta._log_a,
        theta,
        "unit * sum(d ** (2 * m - 1) for d in range(1, n + 1) if n % d == 0)",
        "unit * (sum(d ** (2 * m - 1) for d in range(1, n + 1) if n % d == 0) + (m == 5))",
        # only the t^10 part of every quotient's logarithm moves, a degree-20 class: the tops of
        # spin and spin_v at 20 and spinc_l at 22 differ there alone, so the family compares its
        # tops, finds them unequal, and each lower dimension cuts and compares both routes and agrees
        flips("spin", {20: "route_ok fit_ok"})
        | flips("spin_v", {20: "route_ok fit_ok"})
        | flips("spinc_l", {22: "route_ok fit_ok"}),
    ),
    "B3 read without its half-period shift": (
        theta.theta_quotient,
        theta,  # q_series_via_theta reads it
        'theta_quotient("B2", tcap, cap).tau_shift_half()',
        'theta_quotient("B2", tcap, cap)',
        # only spin_v's sector names B3 (spin's third sector is the shift of its second), so
        # spin_v's route comparison fails at every dimension, leaving nothing to fit
        flips("spin_v", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)}),
    ),
    "rescaling power read off the degree digit": (
        theta._quotient_log,
        theta,  # theta_quotient reads it
        "scale ** (g // 2)",
        "scale ** g",
        # t^n sits at degree g = 2n, so t -> 2t scales B1's t^n by 4^n in place of 2^n; B2's scale
        # is 1, and spinc_l reads only A, so the spin and spin_v route comparisons alone fail
        B1_ROUTES,
    ),
    "exterior factor signs the even powers": (
        bundles._lam_factor,
        bundles,  # theta_series reads it
        "k % 2 == 0",
        "k % 2 == 1",
        # each Lam_{-x} factor turns into its negative, so a product of them flips sign when it
        # has an odd number of factors: P (steps 1, 3, 5) for spin, thetaL's (2, 4, 6) for spinc_l;
        # thetaV's psi^2 product has two at order 3 (steps 2 and 6), so spin_v keeps its sign
        flips("spin", {dim: "route_ok fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spinc_l", {dim: "route_ok fit_ok" for dim in (10, 14, 18, 22)}),
    ),
    "spin q^1 target counted once": (
        verifier._relation,
        verifier,
        '(2, f"ind(D{_OX}{_DELTA}{_OX}{_T})"',
        '(1, f"ind(D{_OX}{_DELTA}{_OX}{_T})"',
        # a relation coefficient, read by no route and no fit: each spin dimension's q^1 identity
        # fails, and its "-a" corollary, which solves that relation for the target, moves modulus
        flips("spin", {
            8: "Thm1.1-(1.1) Cor1.2-a",
            12: "Thm1.3-(1.5) Cor1.4-a",
            16: "Thm1.5-(1.9) Cor1.6-a",
            20: "Thm1.7-(1.13) Cor1.8-a",
        }),
    ),
    "auxiliary and line untwisted index counted twice": (
        verifier._relation,
        verifier,
        "(-e, _UNTWISTED[factor]",
        "(-2 * e, _UNTWISTED[factor]",
        # a relation coefficient other than spin's q^1 target, read by no route and no fit: every
        # spin_v, spin_v_line and spinc_l identity fails, and each of their corollaries, whose
        # modulus is the gcd of the other coefficients, moves from |e| to 2|e|
        flips("spin_v", {
            8: "Thm1.9-q1 Thm1.9-q2 Cor1.10-a Cor1.10-b Cor1.11-a Cor1.11-b",
            12: "Thm1.12-q1 Thm1.12-q2 Cor1.13-a Cor1.13-b Cor1.14-a Cor1.14-b",
            16: "Thm1.15-q1 Cor1.16-a Cor1.17-a",
            20: "Thm1.18-q1 Cor1.19-a Cor1.20-a",
        })
        | flips("spinc_l", {
            10: "Thm1.21-q1 Thm1.21-q2 Cor1.22-a Cor1.22-b",
            14: "Thm1.23-q1 Thm1.23-q2 Cor1.24-a Cor1.24-b",
            18: "Thm1.25-q1 Cor1.26-a",
            22: "Thm1.27-q1 Cor1.28-a",
        }),
    ),
    "combo tensor product read as a sum": (
        verifier._combo_ch,
        verifier,  # _index_forms reads it
        "term * _atom_ch(atom, bundles)",
        "term + _atom_ch(atom, bundles)",
        # the combos are read by the identity catalog alone, so no route and no fit moves: each
        # identity whose combos hold a multi-atom term fails (spin's and spinc_l's q^2 ones, every
        # spin_v and spin_v_line one), and the moduli, which read only coefficients, hold
        flips("spin", {8: "Thm1.1-(1.2)", 12: "Thm1.3-(1.6)", 16: "Thm1.5-(1.10)", 20: "Thm1.7-(1.14)"})
        | flips("spin_v", {
            8: "Thm1.9-q1 Thm1.9-q2 Cor1.10-a Cor1.10-b",
            12: "Thm1.12-q1 Thm1.12-q2 Cor1.13-a Cor1.13-b",
            16: "Thm1.15-q1 Cor1.16-a",
            20: "Thm1.18-q1 Cor1.19-a",
        })
        | flips("spinc_l", {10: "Thm1.21-q2", 14: "Thm1.23-q2"}),
    ),
    "fit reads lam one q-power up": (
        verifier.eisenstein_fit,
        verifier,  # _case_report reads it
        "q_top.coefficient_q(i)",
        "q_top.coefficient_q(i + 1)",
        # every catalog weight has one basis form, so lam is read at q^1 for q^0: the residual's
        # q^0 coefficient is no longer zero, and every fit fails while routes and identities hold
        flips("spin", {dim: "fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spin_v", {dim: "fit_ok" for dim in (8, 12, 16, 20)})
        | flips("spinc_l", {dim: "fit_ok" for dim in (10, 14, 18, 22)}),
    ),
}


# Each replaces the rescalings of one quotient kind in `theta._RESCALINGS`, the
# table that `theta._quotient_log` reads on each call, as an edit of its source
# line would.
RESCALING_MUTATIONS = {
    # log B1 = log A(t) - log A(t, q^2): its t^(2m) terms lose the 4^m of t -> 2t
    "B1 t-scale 2 -> 1": ("B1", ((1, 2, 1),), B1_ROUTES),
    # log B1 = log A(t) - log A(2t, q): the q-step of A's rescaled copy is lost
    "B1 q-step q^2 -> q": ("B1", ((2, 1, 1),), B1_ROUTES),
}


def recompiled(function, old: str, new: str):
    """`function` recompiled with `old` replaced by `new`, over its module's names."""
    module = inspect.getmodule(function)
    source = inspect.getsource(function)
    assert source.count(old) == 1, f"{old!r} must occur once in {function.__name__}"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


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


@pytest.mark.parametrize("function, reader, old, new, expected", CODE_MUTATIONS.values(), ids=list(CODE_MUTATIONS))
def test_a_code_mutation_flips_exactly_its_fields(
    monkeypatch, fresh_memos, baseline, function, reader, old, new, expected
):
    assert expected, "a mutation must name the fields it flips"
    mutant = recompiled(function, old, new)
    monkeypatch.setattr(reader, function.__name__, mutant)
    mutated = outcome()
    assert {key for key in baseline if mutated[key] != baseline[key]} == expected


@pytest.mark.parametrize("kind, rescalings, expected", RESCALING_MUTATIONS.values(), ids=list(RESCALING_MUTATIONS))
def test_a_rescaling_mutation_flips_exactly_its_fields(monkeypatch, fresh_memos, baseline, kind, rescalings, expected):
    assert expected, "a mutation must name the fields it flips"
    monkeypatch.setitem(theta._RESCALINGS, kind, rescalings)
    mutated = outcome()
    assert {key for key in baseline if mutated[key] != baseline[key]} == expected
