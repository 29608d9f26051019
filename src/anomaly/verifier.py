"""Case assembly, proportionality fits, the identity catalog, divisibility
moduli, and manifold evaluation.

A case is a geometric setting (spin, spin with an auxiliary bundle, spin-c
with a line bundle), one row of the family table `_FAMILIES`, at one of its
dimensions.  The integrand q-series is assembled along two independent
routes - the bundle route (lambda-ring operations times multiplicative
characteristic forms) and the theta route (products of theta quotients) -
compared coefficient-by-coefficient, reduced to its top-degree part, and
fitted against the monic modular basis form of the case's weight.  A
dimension only truncates a family's integrand (and, for spin, scales it by
the spinor rank), so `run_cases` builds each family's routes once, at its
largest selected dimension, and each route cuts the lower dimensions out of
its own series.  The family compares its two top series once; only when they
differ does each dimension compare its own cuts.

Each stated identity, a row of the table `_STATED`, is written once, as data:
`_relation` lists its index terms, each a coefficient, a label, a factor (Â,
Â·ch(Δ), Â·det^(1/2)cosh or Â·exp(cL/2)) and a bundle combination.  From that
one list the identity is rebuilt as an exact polynomial identity, its
corollary is read as an integer relation solved for the first term (the
divisibility modulus), and a manifold's characteristic numbers are paired
with every index form.  `run_cases` builds each distinct index form once per
family, at its largest dimension; an identity at dimension d sums their
degree-d parts, the spinor factor's divided by its rank ratio, and cuts only
the residual to its own table.  A lone identity is its own top.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .algebra import GeneratorTable, GradedPoly, _is_int, _nonnegative_int, pontryagin_table
from .bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
    spinor_bundle,
    tangent_complexification,
    theta_series,
)
from .genera import ahat_form, aux_bundle_factor, spinor_ch
from .qseries import PolyRing, QHalfSeries, modular_basis
from .theta import q_series_via_theta


class RouteMismatchError(ArithmeticError):
    """The bundle route and the theta route disagree; an engine invariant broke."""


class UnknownIdentityError(KeyError):
    """No catalog entry with the requested identifier."""


class NonIntegralSolveError(ArithmeticError):
    """An index relation cannot be solved integrally for the requested target."""


class ManifoldDataError(ValueError):
    """Characteristic-number data is malformed or incomplete."""


# -- unicode pieces of the canonical index labels ------------------------------

_OX = "⊗"      # tensor sign
_DELTA = "Δ"   # capital Delta
_LAM = "Λ"     # capital Lambda
_TILDE = "̃"   # combining tilde
_SUP = {2: "²", 3: "³", 4: "⁴"}

_T = "T" + _TILDE
_V = "V" + _TILDE
_L = "L" + _TILDE


# The records of this module are named tuples: `collections` is loaded already,
# and each class builds in about 0.1 ms, so they add next to nothing to the
# start-up of a CLI process, which is a large share of a catalog run.


# -- case families ------------------------------------------------------------------

# Bundle combinations entering the stated identities, as coefficient/atom data.
# Atoms: T, V are the reduced inputs; LkX / SkX are exterior / symmetric powers.

_SPIN_DELTA = {
    1: ((2, ("T",)),),
    2: ((2, ("T",)), (1, ("L2T",)), (1, ("T", "T")), (1, ("S2T",))),
}
_SPIN_PLAIN = {
    1: ((1, ("T",)), (1, ("L2T",))),
    2: ((1, ("L4T",)), (1, ("L2T", "T")), (1, ("T", "T")), (1, ("S2T",)), (1, ("T",))),
}
_V_COMBO = {
    1: ((1, ("T",)), (2, ("L2V",)), (-1, ("V", "V")), (1, ("V",))),
    2: (
        (1, ("S2T",)), (1, ("T",)),
        (2, ("L2V", "T")), (-1, ("V", "V", "T")), (1, ("V", "T")),
        (1, ("L2V", "L2V")), (2, ("L4V",)), (-2, ("V", "L3V")), (2, ("V", "L2V")),
        (-1, ("V", "V", "V")), (1, ("V",)), (1, ("L2V",)),
    ),
}
_L_COMBO = {
    1: ((1, ("T",)), (-1, ("V",))),
    2: ((1, ("S2T",)), (1, ("T",)), (1, ("L2V",)), (-1, ("V",)), (-1, ("T", "V"))),
}

NOTE_COMPLEXIFICATION = (
    "reduced characters of the auxiliary bundle enter through its "
    "complexification, with degree-4m piece 2*s_{2m}(pV)/(2m)!"
)
NOTE_LINE_SPECIALIZATION = (
    "the Cor1.10-family entries specialize the auxiliary bundle to the "
    "realified line bundle (p1 = cL^2) under the constraint pX1 = 3*cL^2, "
    "with exp(cL/2) in place of det^(1/2)cosh; the two agree at top degree "
    "because the sinh part lives in degrees = 2 mod 4"
)
NOTE_PARITY = (
    "the integrand carries sinh(cL/2); it matches the exp(cL/2) statement at "
    "top degree 4k+2 since the cosh part contributes only in degrees = 0 mod 4"
)


_FAMILY_FIELDS = "factor dims weight_drop aux line bundle condition rank_base bundle_series bundle_factor notes identities combos"


class _Family(namedtuple("_Family", _FAMILY_FIELDS, defaults=((), 0, False, False, None, None, 1, None, None, (), (), None))):
    """One case family; an unset field is inert.  factor: of the index terms;
    dims: catalog dimensions (none: identities only); weight_drop: the weight
    is (dim - weight_drop)/2; aux, line: the table's pV block and cL class;
    bundle: V's builder (spin: the spinor bundle); condition: pX1 ->
    coefficient * monomial; rank_base: see `_rank_ratio`; bundle_series,
    bundle_factor: the bundle route's theta series and factor; notes: report
    notes; identities: the identity cases read with it; combos: theirs, by
    q-power."""

    __slots__ = ()

    def table(self, dim: int) -> GeneratorTable:
        return pontryagin_table(dim, aux=self.aux, line=self.line)


_FAMILIES = {
    "spin": _Family(
        dims=(8, 12, 16, 20), bundle=spinor_bundle, rank_base=2, bundle_series="sectors", bundle_factor="ahat",
        factor="spinor", identities=("spin",),
    ),
    "spin_v": _Family(
        dims=(8, 12, 16, 20), aux=True, bundle=aux_complexification, condition=("pV1", 3),
        bundle_series="thetaV", bundle_factor="detcosh_V", factor="detcosh_V", combos=_V_COMBO,
        notes=(NOTE_COMPLEXIFICATION, NOTE_LINE_SPECIALIZATION), identities=("spin_v", "spin_v_line"),
    ),
    "spinc_l": _Family(
        dims=(10, 14, 18, 22), weight_drop=2, line=True, bundle=line_real_complexification, condition=("cL^2", 1),
        bundle_series="thetaL", bundle_factor="sinh_half_c", factor="exp_half_c", combos=_L_COMBO,
        notes=(NOTE_PARITY,), identities=("spinc_l",),
    ),
    "spin_v_line": _Family(  # spin_v with V the realified line bundle: identities only, read with spin_v
        line=True, bundle=line_real_complexification, condition=("cL^2", 3), factor="exp_half_c", combos=_V_COMBO
    ),
}

CASES = tuple(case for case, row in _FAMILIES.items() if row.dims)
CASE_DIMS = {case: _FAMILIES[case].dims for case in CASES}


def case_weight(case: str, dim: int) -> int:
    """Modular weight of a case's integrand: (dim - its family's weight_drop)/2."""
    return (dim - _FAMILIES[case].weight_drop) // 2


class CaseSpec(namedtuple("CaseSpec", "case dim qcap route")):
    """One verification case: geometric setting, dimension, caps and route."""

    __slots__ = ()

    def __new__(cls, case: str, dim: int, qcap: int = 3, route: str = "both"):
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        if not _is_int(dim) or dim not in CASE_DIMS[case]:
            raise ValueError(f"case {case} supports dimensions {CASE_DIMS[case]}, got {dim!r}")
        _nonnegative_int(qcap, "q-cap")
        if route not in ("bundle", "theta", "both"):
            raise ValueError(f"route must be bundle, theta or both, got {route!r}")
        return super().__new__(cls, case, dim, qcap, route)

    @classmethod
    def _make(cls, iterable) -> "CaseSpec":
        """Build through `__new__`, so `_replace` validates too."""
        return cls(*iterable)

    @property
    def weight(self) -> int:
        return case_weight(self.case, self.dim)

    def table(self) -> GeneratorTable:
        return _FAMILIES[self.case].table(self.dim)


# -- integrand assembly ---------------------------------------------------------


def _factor_form(table: GeneratorTable, factor: str, dim: int) -> GradedPoly:
    """The multiplicative factor of an index term: Â, Â·ch(Δ) or Â times an
    auxiliary factor kind of `aux_bundle_factor`."""
    ahat = ahat_form(table, dim)
    if factor == "ahat":
        return ahat
    return ahat * (spinor_ch(table, dim) if factor == "spinor" else aux_bundle_factor(table, factor, dim))


def bundle_route_integrand(spec: CaseSpec) -> QHalfSeries:
    """Characteristic forms times Chern characters of the theta-power bundles."""
    table, dim, row = spec.table(), spec.dim, _FAMILIES[spec.case]
    TX = tangent_complexification(table, dim)
    series = theta_series(row.bundle_series, TX, row.bundle(table, dim), cap=spec.qcap)
    return series.scale(_factor_form(table, row.bundle_factor, dim))


def theta_route_integrand(spec: CaseSpec) -> QHalfSeries:
    return q_series_via_theta(spec.table(), spec.case, spec.dim, spec.qcap)


def impose_condition(x, case: str):
    """Substitute the case's first-Pontryagin constraint, the condition of
    its `_FAMILIES` row, into x, a polynomial or a q-series over polynomials.

    Each image is a single term, so the substitution rewrites packed keys,
    every q-coefficient of a series at once.
    """
    if case not in _FAMILIES:
        raise ValueError(f"unknown case {case!r}")
    if _FAMILIES[case].condition is None:
        return x
    monomial, coeff = _FAMILIES[case].condition
    table = x.layout.table
    return x.substitute({"pX1": GradedPoly(table, x.limits[0], {table.parse_monomial(monomial): coeff})})


def _first_difference(bundle: QHalfSeries, theta: QHalfSeries) -> str:
    """The first (q-power, monomial) at which the two routes differ, with both values.

    q-powers ascend by doubled exponent; within one, monomials follow the
    render order (degree, then exponents).
    """
    for j2 in sorted(set(bundle.coeffs) | set(theta.coeffs)):
        a, b = bundle.coefficient(j2), theta.coefficient(j2)
        ta, tb = a.terms, b.terms
        degree = a.table.monomial_degree
        for expts in sorted(set(ta) | set(tb), key=lambda e: (degree(e), e)):
            va, vb = ta.get(expts, Fraction(0)), tb.get(expts, Fraction(0))
            if va != vb:
                power = f"q^{j2 // 2}" if j2 % 2 == 0 else f"q^({j2}/2)"
                mono = a.table.monomial_string(expts) or "1"
                return f"first difference at {power}, monomial {mono}: bundle route {va}, theta route {vb}"
    return "no coefficient differs; the series differ in ring or q-cap"


def _rank_ratio(case: str, top_dim: int, dim: int) -> int:
    """A case's integrand or index factor at `top_dim` over the same at `dim`:
    each is one characteristic-class series that a dimension only truncates,
    but the spinor rank 2^(dim/2) rides in the spin integrand (in ch(Δ) and the
    Θ2, Θ3 sectors' factor) and in Â·ch(Δ), so the ratio is the row's
    rank_base to the power (top_dim - dim)/2."""
    return _FAMILIES[case].rank_base ** ((top_dim - dim) // 2)


def _family_routes(top) -> tuple:
    """The route integrands of `top`'s case family, built at `top.dim`:
    (dimension, bundle series or None, theta series or None, whether both are
    built and equal)."""
    bundle = bundle_route_integrand(top) if top.route in ("bundle", "both") else None
    theta = theta_route_integrand(top) if top.route in ("theta", "both") else None
    return top.dim, bundle, theta, bundle is not None and bundle == theta


def _cut(series: QHalfSeries, top_dim: int, spec) -> QHalfSeries:
    """One route's integrand at `top_dim` cut to `spec.dim`: its terms, all
    of degree <= dim, over `spec.table()`, divided by the case's
    `_rank_ratio`.  `assemble_Q` passes a top's degree-dim part when it reads
    one route and the whole top when it compares both.  A series at
    `spec.dim` already is returned as it is."""
    if top_dim == spec.dim:
        return series
    cut = series.cut(PolyRing(spec.table(), spec.dim))
    ratio = _rank_ratio(spec.case, top_dim, spec.dim)
    return cut if ratio == 1 else cut * Fraction(1, ratio)


def assemble_Q(spec: CaseSpec, family: tuple | None = None) -> QHalfSeries:
    """The top-degree q-expansion of the case integrand, with the case
    condition imposed.

    `family` holds the route integrands of the spec's case family at a
    dimension at or above `spec.dim` (`_family_routes`, as `run_cases` builds
    them); each route's own series is cut to `spec.dim` (`_cut`).  Without
    it the spec is its own top: both routes are built at `spec.dim` and
    nothing is cut.  With route "both", the bundle and theta routes are
    computed independently and must agree at every q-power and mixed degree
    of `spec.dim` before extraction.  Two equal top series have equal cuts,
    so the family compares its tops once and, when they agree or only one
    route is built, only the degree-dim part of one top is cut; when they
    differ, each dimension cuts and compares both whole routes and names its
    own first difference.
    """
    top_dim, bundle, theta, agree = _family_routes(spec) if family is None else family
    if bundle is None or theta is None or agree:
        top = theta if bundle is None else bundle
        return impose_condition(_cut(top.homogeneous_component(spec.dim), top_dim, spec), spec.case)
    series, other = _cut(bundle, top_dim, spec), _cut(theta, top_dim, spec)
    if series != other:
        bad = sorted(
            j2
            for j2 in set(series.coeffs) | set(other.coeffs)
            if series.coefficient(j2) != other.coefficient(j2)
        )
        raise RouteMismatchError(
            f"bundle and theta routes disagree for {spec.case} dim {spec.dim} "
            f"at doubled q-exponents {bad}; {_first_difference(series, other)}"
        )
    return impose_condition(series.homogeneous_component(spec.dim), spec.case)


INSUFFICIENT_ORDER = "insufficient order: no q-coefficient compared"


class FitResult(namedtuple("FitResult", "weight lam residual")):
    """Outcome of fitting a top-degree q-expansion against a basis form:
    weight (int), lam (GradedPoly) and residual (QHalfSeries)."""

    __slots__ = ()

    @property
    def compared(self) -> int:
        """q-coefficients checked against the form: q^1..q^cap (q^0 fixes lam)."""
        return self.residual.cap

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.residual.is_zero()

    def render_residual(self) -> str:
        return self.residual.render() if self.compared else INSUFFICIENT_ORDER


def eisenstein_fit(q_top: QHalfSeries, weight: int) -> FitResult:
    """Fit q_top = lam * (basis form of the weight); lam is the q^0 piece."""
    if not q_top.integer_powers_only():
        raise ValueError("surviving half-integer powers in the q-expansion")
    if not isinstance(q_top.ring, PolyRing):
        raise TypeError("eisenstein_fit expects polynomial coefficients")
    basis = modular_basis(weight, q_top.cap)
    lam = q_top.coefficient(0)
    residual = q_top - basis.promote(q_top.ring).scale(lam)
    return FitResult(weight, lam, residual)


# -- the identity catalog --------------------------------------------------------


def _render_atom(atom: str, vname: str) -> str:
    if atom == "T":
        return _T
    if atom == "V":
        return vname
    op, k, base = atom[0], int(atom[1:-1]), atom[-1]
    head = (_LAM if op == "L" else "S") + _SUP[k]
    return head + (_T if base == "T" else vname)


def _render_combo(combo, vname: str) -> str:
    parts = []
    for coeff, atoms in combo:
        body = _OX.join(_render_atom(a, vname) for a in atoms)
        mag = abs(coeff)
        if mag != 1:
            body = f"{mag}{body}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if coeff > 0 else f"-{body}")
    return "".join(parts)


def _atom_bundle(atom: str, bundles: dict) -> VirtualBundle:
    if atom in bundles:
        return bundles[atom]
    op, k, base = atom[0], int(atom[1:-1]), atom[-1]
    W = bundles[base]
    return W.lambda_power(k) if op == "L" else W.sym_power(k)


def _build_combo(combo, bundles: dict) -> VirtualBundle:
    sample = bundles["T"]
    acc = VirtualBundle.zero(sample.table, sample.truncation)
    for coeff, atoms in combo:
        term = _atom_bundle(atoms[0], bundles)
        for atom in atoms[1:]:
            term = term * _atom_bundle(atom, bundles)
        acc = acc + term * coeff
    return acc


class IdentityEntry(namedtuple("IdentityEntry", "ident case dim q_power notes", defaults=((),))):
    """One stated identity: a case (spin, spin_v, spin_v_line or spinc_l), a
    dimension, a q-power slot and a tuple of note strings."""

    __slots__ = ()

    @property
    def weight(self) -> int:
        return case_weight(self.case, self.dim)


class CorollaryEntry(namedtuple("CorollaryEntry", "ident source target")):
    """A divisibility corollary: solve identity `source` for the index term `target`."""

    __slots__ = ()


# The untwisted index of each factor, and the label and V name of an auxiliary factor's twisted index.
_UNTWISTED = {"ahat": "ind(D)", "spinor": f"ind(D{_OX}{_DELTA})", "detcosh_V": "ind_V(1)", "exp_half_c": "ind(D^c)"}
_TWISTED = {"detcosh_V": ("ind_V({})", _V), "exp_half_c": (f"ind(D^c{_OX}({{}}))", _L)}


def _relation(entry: IdentityEntry, e: int, rhs_sector: int | None = None) -> list:
    """The identity's index terms as (coefficient, label, factor, combo) data.

    The index of a term pairs {factor * ch(combo)}^(dim) with the manifold;
    factor is "ahat" (Â), "spinor" (Â·ch(Δ)) or an auxiliary factor kind
    times Â, and combo is a bundle combination or None for the trivial
    bundle.  e is the basis-form coefficient; rhs_sector overrides the spin
    relation's constant on the right side.  The first term is the one the
    corollary solves for.
    """
    qp = entry.q_power
    row = _FAMILIES[entry.case]
    if row.factor == "spinor":
        sector = 2 ** (entry.dim // 2 + 1)
        rs = sector if rhs_sector is None else rhs_sector
        plain = _SPIN_PLAIN[qp]
        if qp == 1:
            target = (2, f"ind(D{_OX}{_DELTA}{_OX}{_T})", "spinor", ((1, ("T",)),))
        else:
            target = (1, f"ind(D{_OX}{_DELTA}{_OX}({_render_combo(_SPIN_DELTA[qp], _V)}))", "spinor", _SPIN_DELTA[qp])
        return [
            target,
            (sector, f"ind(D{_OX}({_render_combo(plain, _V)}))", "ahat", plain),
            (-e, _UNTWISTED["spinor"], "spinor", None),
            (-e * rs, _UNTWISTED["ahat"], "ahat", None),
        ]
    factor, combo = row.factor, row.combos[qp]
    label, vname = _TWISTED[factor]
    return [(1, label.format(_render_combo(combo, vname)), factor, combo), (-e, _UNTWISTED[factor], factor, None)]


# The stated identities of each case and dimension, by q-power, and their corollary prefix, if any.
_STATED = (
    ("spin", 8, ("Thm1.1-(1.1)", "Thm1.1-(1.2)"), "Cor1.2"),
    ("spin", 12, ("Thm1.3-(1.5)", "Thm1.3-(1.6)"), "Cor1.4"),
    ("spin", 16, ("Thm1.5-(1.9)", "Thm1.5-(1.10)"), "Cor1.6"),
    ("spin", 20, ("Thm1.7-(1.13)", "Thm1.7-(1.14)"), "Cor1.8"),
    ("spin_v", 8, ("Thm1.9-q1", "Thm1.9-q2"), None),
    ("spin_v_line", 8, ("Cor1.10-a", "Cor1.10-b"), "Cor1.11"),
    ("spin_v", 12, ("Thm1.12-q1", "Thm1.12-q2"), None),
    ("spin_v_line", 12, ("Cor1.13-a", "Cor1.13-b"), "Cor1.14"),
    ("spin_v", 16, ("Thm1.15-q1",), None),
    ("spin_v_line", 16, ("Cor1.16-a",), "Cor1.17"),
    ("spin_v", 20, ("Thm1.18-q1",), None),
    ("spin_v_line", 20, ("Cor1.19-a",), "Cor1.20"),
    ("spinc_l", 10, ("Thm1.21-q1", "Thm1.21-q2"), "Cor1.22"),
    ("spinc_l", 14, ("Thm1.23-q1", "Thm1.23-q2"), "Cor1.24"),
    ("spinc_l", 18, ("Thm1.25-q1",), "Cor1.26"),
    ("spinc_l", 22, ("Thm1.27-q1",), "Cor1.28"),
)

# The notes of the identities whose statements print a slip.
_STATED_NOTES = {
    "Thm1.7-(1.13)": "the statement prints +32 for the plain-sector constant on the right side; "
                     "the dimension forces 2*2^10 = 2048, which is what the engine verifies",
    "Thm1.7-(1.14)": "the statement prints -117288 as the q^2 proportionality constant; the q^2 "
                     "coefficient of the weight-10 basis form is -264*513 = -135432, which is "
                     "what the engine verifies",
    "Thm1.15-q1": "the statement prints extraction superscript (12) in a 16-dimensional "
                  "setting; the engine extracts degree (16)",
}


def _build_catalog():
    identities, corollaries = {}, {}
    for case, dim, idents, prefix in _STATED:
        for q_power, (ident, suffix) in enumerate(zip(idents, "ab"), 1):
            notes = (_STATED_NOTES[ident],) if ident in _STATED_NOTES else ()
            entry = identities[ident] = IdentityEntry(ident, case, dim, q_power, notes)
            if prefix is not None:
                cor = f"{prefix}-{suffix}"
                corollaries[cor] = CorollaryEntry(cor, ident, _relation(entry, 0)[0][1])
    return identities, corollaries


IDENTITIES, COROLLARIES = _build_catalog()

# Identities whose statements carry a printed slip; the variant values let the
# suite demonstrate that the uncorrected forms fail.
PRINTED_VARIANTS = {
    "Thm1.7-(1.13)": {"rhs_sector": 32},
    "Thm1.7-(1.14)": {"e_const": -117288},
    "Thm1.15-q1": {"extract": 12},
}


def identities_for(case: str, dim: int) -> list[IdentityEntry]:
    """The catalog identities of one case; spin_v includes its line-bundle specialization.

    A case outside `CASES`, or a dimension with no catalog identity, is an
    input error.
    """
    if case not in CASES:
        raise ValueError(f"no catalog identity for unknown case {case!r}; expected one of {CASES}")
    entries = [e for e in IDENTITIES.values() if e.case in _FAMILIES[case].identities and e.dim == dim]
    if not entries:
        raise ValueError(f"no catalog identity for case {case!r} in dimension {dim!r}")
    return entries


def corollaries_for(case: str, dim: int) -> list[CorollaryEntry]:
    """The corollaries of the identities of one case (`identities_for`)."""
    sources = {e.ident for e in identities_for(case, dim)}
    return [cor for cor in COROLLARIES.values() if cor.source in sources]


def _basis_coefficient(weight: int, q_power: int) -> int:
    value = modular_basis(weight, max(2, q_power)).coefficient_q(q_power)
    if value.denominator != 1:
        raise ArithmeticError(f"the q^{q_power} coefficient {value} of the weight-{weight} basis form is not an integer")
    return int(value)


def _index_forms(entries) -> tuple:
    """Every distinct index form of the entries' relations, each built once at
    their largest dimension D: (D, {(case, factor, combo): form}).

    A form is {factor * ch(combo)} over the case's table at D, truncated at
    D; the untwisted factor sits under combo None.  An identity at dimension
    d reads the degree-d parts of its forms (`_relation_terms`).
    """
    top = max(entry.dim for entry in entries)
    forms: dict[tuple, GradedPoly] = {}
    bundles: dict[str, dict] = {}
    for entry in entries:
        case = entry.case
        row = _FAMILIES[case]
        table = row.table(top)
        for _, _, factor, combo in _relation(entry, 0):
            if (case, factor, None) not in forms:
                forms[case, factor, None] = _factor_form(table, factor, top)
            if (case, factor, combo) in forms:
                continue
            if case not in bundles:
                bundles[case] = {"T": tangent_complexification(table, top).reduce()}
                if row.combos is not None:  # the V atoms occur only in a row's combos
                    bundles[case]["V"] = row.bundle(table, top).reduce()
            forms[case, factor, combo] = forms[case, factor, None] * _build_combo(combo, bundles[case]).ch()
    return top, forms


def _relation_terms(
    entry: IdentityEntry, forms: tuple, e: int, extract: int | None = None, rhs_sector: int | None = None
) -> list:
    """The identity's index terms read off `forms` (`_index_forms`) at their
    dimension D: (coefficient, label, form, rank ratio) quadruples.

    Each form is the degree-d part, d = dim unless `extract` overrides it, of
    the index form over D's table: the entry's own form times the rank ratio
    (`_rank_ratio`), which Â does not carry.
    """
    top, by_key = forms
    d = entry.dim if extract is None else extract
    ratio = _rank_ratio(entry.case, top, entry.dim)
    return [
        (coeff, label, by_key[entry.case, factor, combo].homogeneous_component(d), 1 if factor == "ahat" else ratio)
        for coeff, label, factor, combo in _relation(entry, e, rhs_sector)
    ]


def index_relation_forms(entry: IdentityEntry):
    """The identity as an integer relation sum_i c_i * x_i = 0 among indices.

    Returns a list of (coefficient, label, form) triples; each form is the
    pairing polynomial {factor * ch(combo)}^(dim) of its index over the
    entry's own table.  The relation holds after the case condition is
    substituted into the forms.
    """
    terms = _relation_terms(entry, _index_forms([entry]), _basis_coefficient(entry.weight, entry.q_power))
    return [(coeff, label, form) for coeff, label, form, _ in terms]


class IdentityResult(namedtuple("IdentityResult", "ident passed residual constant notes", defaults=((),))):
    """One identity check: the residual GradedPoly, the basis constant used and
    the entry's notes."""

    __slots__ = ()

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _entry(ident: str) -> IdentityEntry:
    try:
        return IDENTITIES[ident]
    except KeyError:
        raise UnknownIdentityError(f"unknown identity {ident!r}") from None


def verify_identity(
    ident: str,
    forms: tuple | None = None,
    *,
    e_const: int | None = None,
    extract: int | None = None,
    rhs_sector: int | None = None,
) -> IdentityResult:
    """Rebuild the stated identity from its bundle combination and check it.

    `forms` holds the index forms of the entry's case family at a dimension
    D at or above the entry's own (`_index_forms`, as `run_cases` builds
    them).  The relation is summed over D's table, each spinor term divided
    by its rank ratio, and only the residual is cut to the entry's table.
    Without `forms` the entry is its own top and nothing is cut.  The
    override keywords (e_const, extract, rhs_sector) let the uncorrected
    printed statements run as negative controls.
    """
    entry = _entry(ident)
    constant = _basis_coefficient(entry.weight, entry.q_power) if e_const is None else e_const
    if forms is None:
        forms = _index_forms([entry])
    acc = None
    for coeff, _, form, ratio in _relation_terms(entry, forms, constant, extract, rhs_sector):
        piece = form * (coeff if ratio == 1 else Fraction(coeff, ratio))
        acc = piece if acc is None else acc + piece
    residual = impose_condition(acc, entry.case)
    if forms[0] != entry.dim:  # a family top: the residual goes onto the entry's own table
        residual = residual.cut(_FAMILIES[entry.case].table(entry.dim), entry.dim)
    return IdentityResult(ident, residual.is_zero(), residual, constant, entry.notes)


def verify_identity_as_printed(ident: str) -> IdentityResult:
    """Run one of the erratum identities with its uncorrected printed values."""
    if ident not in PRINTED_VARIANTS:
        raise UnknownIdentityError(f"identity {ident!r} has no diverging printed variant")
    return verify_identity(ident, **PRINTED_VARIANTS[ident])


def divisibility_modulus(ident: str, target: str) -> int:
    """Largest modulus m with (target index) = 0 mod m forced by the identity.

    Reads the identity as an integer relation, solves for the target term and
    takes the gcd of the other coefficients divided by the target's.
    """
    entry = _entry(ident)
    coeffs = {label: coeff for coeff, label, _, _ in _relation(entry, _basis_coefficient(entry.weight, entry.q_power))}
    if target not in coeffs:
        known = ", ".join(sorted(coeffs))
        raise UnknownIdentityError(f"identity {ident} has no index term {target!r}; terms: {known}")
    n_t = coeffs.pop(target)
    quotients = []
    for coeff in coeffs.values():
        q, r = divmod(coeff, n_t)
        if r:
            raise NonIntegralSolveError(f"coefficient {coeff} is not divisible by the target coefficient {n_t}")
        quotients.append(abs(q))
    return gcd(*quotients)


def corollary_modulus(cor_ident: str) -> int:
    try:
        cor = COROLLARIES[cor_ident]
    except KeyError:
        raise UnknownIdentityError(f"unknown corollary {cor_ident!r}") from None
    return divisibility_modulus(cor.source, cor.target)


# -- manifold evaluation ----------------------------------------------------------


# A characteristic number is an ASCII integer or fraction; exponents, decimal
# points, underscores and non-ASCII digits, which `Fraction` would also read,
# are bad data.
_NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

# The digits of all characteristic numbers of one manifold add up to at most
# this.  An index value pairs one catalog form (at most 19 terms, coefficients
# of at most 12 digits over a denominator of at most 12 digits) with some of the
# numbers, so its numerator and denominator each have at most this many digits
# plus 14: below the 4300 digits that Python turns from int to str by default,
# so every accepted input's report renders.
MAX_NUMBER_DIGITS = 4000


class ManifoldData(namedtuple("ManifoldData", "dim numbers")):
    """Characteristic numbers of one closed manifold: the dimension and a dict
    of Fractions keyed by monomial strings."""

    __slots__ = ()

    @classmethod
    def from_mapping(cls, obj) -> "ManifoldData":
        """Validate a decoded JSON object: an integer "dim", and "numbers"
        mapping monomial strings to `_NUMBER` strings of at most
        `MAX_NUMBER_DIGITS` digits in all, all checked before any number is
        built."""
        if not isinstance(obj, dict):
            raise ManifoldDataError("manifold data must be a JSON object")
        try:
            dim = obj["dim"]
            numbers = obj["numbers"]
        except KeyError as missing:
            raise ManifoldDataError(f"manifold data needs key {missing}") from None
        if not isinstance(dim, int) or isinstance(dim, bool) or not isinstance(numbers, dict):
            raise ManifoldDataError('manifold data needs an integer "dim" and an object "numbers"')
        digits = 0
        for key, value in numbers.items():
            if not isinstance(value, str):
                raise ManifoldDataError(f"characteristic number {key!r} must be a rational string")
            if not _NUMBER.fullmatch(value):
                raise ManifoldDataError(f"bad rational {value!r} for {key!r}: expected ASCII digits as -?[0-9]+(/[0-9]+)?")
            digits += len(value) - value.startswith("-") - ("/" in value)
        if digits > MAX_NUMBER_DIGITS:
            raise ManifoldDataError(f"characteristic numbers have {digits} digits in all; at most {MAX_NUMBER_DIGITS} are accepted")
        parsed = {}
        for key, value in numbers.items():
            try:
                parsed[str(key)] = Fraction(value)
            except ZeroDivisionError as err:
                raise ManifoldDataError(f"bad rational {value!r} for {key!r}: {err}") from None
        return cls(dim, parsed)

    @classmethod
    def from_json(cls, text: str) -> "ManifoldData":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ManifoldDataError("manifold data is nested too deeply") from None
        return cls.from_mapping(obj)


def _numbers_by_exponents(data: ManifoldData, table: GeneratorTable) -> dict[tuple[int, ...], Fraction]:
    """The characteristic numbers keyed by exponent tuples.

    A key may write its factors in any order; a key that does not parse, has
    a degree other than the dimension, or names the monomial of another key
    is bad data.
    """
    keys: dict[tuple[int, ...], str] = {}
    for key in data.numbers:
        try:
            expts = table.parse_monomial(key)  # validates generator names and exponents
        except (KeyError, ValueError) as err:
            raise ManifoldDataError(f"bad monomial {key!r}: {err.args[0]}") from None
        degree = table.monomial_degree(expts)
        if degree != data.dim:
            raise ManifoldDataError(f"monomial {key!r} has degree {degree} but the manifold has dimension {data.dim}")
        if expts in keys:
            raise ManifoldDataError(f"keys {keys[expts]!r} and {key!r} name the same monomial")
        keys[expts] = key
    return {expts: data.numbers[key] for expts, key in keys.items()}


def _pair(numbers: dict[tuple[int, ...], Fraction], form: GradedPoly, dim: int) -> Fraction:
    total = Fraction(0)
    table = form.table
    for expts, coeff in form.terms.items():
        if table.monomial_degree(expts) != dim:
            raise ManifoldDataError(
                f"form has a degree-{table.monomial_degree(expts)} term but the manifold has dimension {dim}"
            )
        if expts not in numbers:
            raise ManifoldDataError(f"manifold data is missing monomial {table.monomial_string(expts)!r}")
        total += coeff * numbers[expts]
    return total


def evaluate_manifold(data: ManifoldData, form: GradedPoly) -> Fraction:
    """Pair a top-degree form with the manifold's characteristic numbers."""
    return _pair(_numbers_by_exponents(data, form.table), form, data.dim)


def manifold_case(data: ManifoldData) -> str:
    for case in CASES:
        if data.dim in CASE_DIMS[case] and not _FAMILIES[case].aux:  # the data carry no pV classes
            return case
    raise ManifoldDataError(f"no catalog case in dimension {data.dim}")


def evaluate_report(data: ManifoldData) -> dict:
    """Indices, identity balances and divisibility checks for one manifold."""
    case = manifold_case(data)
    dim = data.dim
    table = _FAMILIES[case].table(dim)
    numbers = _numbers_by_exponents(data, table)
    entries = identities_for(case, dim)
    forms = _index_forms(entries)

    identity_rows = []
    value_cache: dict[str, Fraction] = {}
    for entry in entries:
        balance = Fraction(0)
        for coeff, label, form, _ in _relation_terms(entry, forms, _basis_coefficient(entry.weight, entry.q_power)):
            value = _pair(numbers, form, dim)
            value_cache[label] = value
            balance += coeff * value
        identity_rows.append({"id": entry.ident, "balanced": balance == 0})
    untwisted = _UNTWISTED[_FAMILIES[case].factor]  # a term of every relation
    indices = [
        {"label": "Â-genus", "value": str(_pair(numbers, ahat_form(table, dim).homogeneous_component(dim), dim))},
        {"label": untwisted, "value": str(value_cache[untwisted])},
    ]

    checks = []
    for cor in corollaries_for(case, dim):
        modulus = corollary_modulus(cor.ident)
        value = value_cache[cor.target]
        ok = value.denominator == 1 and int(value) % modulus == 0
        checks.append(
            {
                "corollary": cor.ident,
                "target": cor.target,
                "value": str(value),
                "modulus": modulus,
                "ok": ok,
            }
        )
    return {"dim": dim, "case": case, "indices": indices, "identities": identity_rows, "checks": checks}


# -- case reports -------------------------------------------------------------------


class CaseReport(
    namedtuple(
        "CaseReport",
        "case dim weight qcap route route_ok route_detail lam fit_ok fit_residual identities moduli notes",
    )
):
    """One case's outcome: route comparison, fit, identity results (a list of
    IdentityResult), moduli (a list of (corollary, target, modulus)) and notes."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.route_ok and self.fit_ok and all(r.passed for r in self.identities)


def run_cases(specs) -> list[CaseReport]:
    """Run each spec's route comparison, fit, identities and moduli; one report per spec, in order.

    The specs are grouped by (case, q-cap, route), and each group's route
    integrands and the index forms of its identities are built once, at the
    group's largest dimension (`_family_routes`, `_index_forms`).  Every spec
    of the group cuts its dimension out of them: inside each route
    (`assemble_Q`), so the two routes are still compared at every q-power
    and mixed degree of each dimension, and per identity as degree-d parts
    (`verify_identity`).  One group's series and forms are dropped before
    the next group's are built.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.case, spec.qcap, spec.route), []).append(i)
    reports: list = [None] * len(specs)
    for members in groups.values():
        group = [specs[i] for i in members]
        family = _family_routes(max(group, key=attrgetter("dim")))
        forms = _index_forms([entry for spec in group for entry in identities_for(spec.case, spec.dim)])
        for i, spec in zip(members, group):
            reports[i] = _case_report(spec, family, forms)
        del family, forms
    return reports


def run_case(spec: CaseSpec) -> CaseReport:
    """One spec's report: the batch of one (`run_cases`), built at `spec.dim`."""
    return run_cases([spec])[0]


def _case_report(spec: CaseSpec, family: tuple, forms: tuple) -> CaseReport:
    notes = list(_FAMILIES[spec.case].notes)

    route_ok, route_detail = True, "single route" if spec.route != "both" else "bundle == theta"
    try:
        q_top = assemble_Q(spec, family)
    except RouteMismatchError as err:
        route_ok, route_detail = False, str(err)
        q_top = None

    if q_top is not None:
        fit = eisenstein_fit(q_top, spec.weight)
        lam_text = fit.lam.render()
        fit_ok = fit.passed
        fit_residual = fit.render_residual()
    else:
        lam_text, fit_ok, fit_residual = "", False, "route mismatch"

    results = [verify_identity(entry.ident, forms) for entry in identities_for(spec.case, spec.dim)]
    moduli = [
        (cor.ident, cor.target, corollary_modulus(cor.ident))
        for cor in corollaries_for(spec.case, spec.dim)
    ]
    for result in results:
        notes.extend(result.notes)

    return CaseReport(
        case=spec.case,
        dim=spec.dim,
        weight=spec.weight,
        qcap=spec.qcap,
        route=spec.route,
        route_ok=route_ok,
        route_detail=route_detail,
        lam=lam_text,
        fit_ok=fit_ok,
        fit_residual=fit_residual,
        identities=results,
        moduli=moduli,
        notes=notes,
    )


def report_jsonable(reports: list[CaseReport]) -> dict:
    cases = []
    for r in reports:
        cases.append(
            {
                "case": r.case,
                "dim": r.dim,
                "weight": r.weight,
                "qcap": r.qcap,
                "route": r.route,
                "route_ok": r.route_ok,
                "route_detail": r.route_detail,
                "lambda": r.lam,
                "fit_ok": r.fit_ok,
                "fit_residual": r.fit_residual,
                "identities": [
                    {
                        "id": res.ident,
                        "status": res.status,
                        "residual": res.residual.render(),
                        "constant": res.constant,
                        "notes": list(res.notes),
                    }
                    for res in r.identities
                ],
                "moduli": {
                    ident: {"target": target, "modulus": modulus} for ident, target, modulus in r.moduli
                },
                "notes": r.notes,
            }
        )
    return {"cases": cases, "passed": all(r.passed for r in reports)}
