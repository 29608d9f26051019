"""Case assembly, proportionality fits, the identity catalog, divisibility
moduli, and manifold evaluation.

A case is a geometric setting (spin, spin with an auxiliary bundle, spin-c
with a line bundle) at one of the catalog dimensions.  The integrand q-series
is assembled along two independent routes - the bundle route (lambda-ring
operations times multiplicative characteristic forms) and the theta route
(products of theta quotients) - compared coefficient-by-coefficient, reduced
to its top-degree part, and fitted against the monic modular basis form of
the case's weight.

Each catalog identity is written once, as data: `_relation` lists its index
terms, each a coefficient, a label, a multiplicative factor (Â, Â·ch(Δ),
Â·det^(1/2)cosh or Â·exp(cL/2)) and a bundle combination.  From that one list
the identity is rebuilt as an exact polynomial identity, its corollary is read
as an integer relation solved for the first term (the divisibility modulus),
and a manifold's characteristic numbers are paired with every index form.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .algebra import GeneratorTable, GradedPoly, _is_int, _nonnegative_int, pontryagin_table
from .bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
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


CASES = ("spin", "spin_v", "spinc_l")
CASE_DIMS = {"spin": (8, 12, 16, 20), "spin_v": (8, 12, 16, 20), "spinc_l": (10, 14, 18, 22)}


def case_weight(case: str, dim: int) -> int:
    """Modular weight of a case's integrand: dim/2, or (dim-2)/2 for spinc_l."""
    return dim // 2 if case != "spinc_l" else (dim - 2) // 2


# The records of this module are named tuples: `collections` is loaded already,
# and each class builds in about 0.1 ms, so they add next to nothing to the
# start-up of a CLI process, which is a large share of a catalog run.


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
        return pontryagin_table(self.dim, aux=self.case == "spin_v", line=self.case == "spinc_l")


# -- integrand assembly ---------------------------------------------------------


def _factor_form(table: GeneratorTable, factor: str, dim: int) -> GradedPoly:
    """The multiplicative factor of an index term: Â, Â·ch(Δ) or Â times an
    auxiliary factor kind of `aux_bundle_factor`."""
    ahat = ahat_form(table, dim)
    if factor == "ahat":
        return ahat
    return ahat * (spinor_ch(table, dim) if factor == "spinor" else aux_bundle_factor(table, factor, dim))


# The auxiliary bundle V of each case that has one.
_AUX_BUNDLE = dict(spin_v=aux_complexification, spin_v_line=line_real_complexification, spinc_l=line_real_complexification)


def bundle_route_integrand(spec: CaseSpec) -> QHalfSeries:
    """Characteristic forms times Chern characters of the theta-power bundles."""
    table = spec.table()
    dim, cap = spec.dim, spec.qcap
    TX = tangent_complexification(table, dim)
    if spec.case == "spin":
        s1 = theta_series("theta1", TX, cap=cap).scale(_factor_form(table, "spinor", dim))
        t23 = theta_series("theta2+theta3", TX, cap=cap)
        return s1 + t23.scale(ahat_form(table, dim) * (2 ** (dim // 2)))
    name, kind = ("thetaV", "detcosh_V") if spec.case == "spin_v" else ("thetaL", "sinh_half_c")
    V = _AUX_BUNDLE[spec.case](table, dim)
    return theta_series(name, TX, V, cap=cap).scale(_factor_form(table, kind, dim))


def theta_route_integrand(spec: CaseSpec) -> QHalfSeries:
    return q_series_via_theta(spec.table(), spec.case, spec.dim, spec.qcap)


# The case conditions: pX1 -> coefficient * monomial, of the degree of pX1.
_CONDITIONS = {"spin_v": ("pV1", 3), "spinc_l": ("cL^2", 1), "spin_v_line": ("cL^2", 3)}


def impose_condition(x, case: str):
    """Substitute the case's first-Pontryagin constraint into x, a polynomial
    or a q-series over polynomials.

    spin: none.  spin_v: pX1 -> 3*pV1.  spinc_l: pX1 -> cL^2.
    spin_v_line (the line-bundle specialization of spin_v): pX1 -> 3*cL^2.
    Each image is a single term, so the substitution rewrites packed keys,
    every q-coefficient of a series at once.
    """
    if case == "spin":
        return x
    if case not in _CONDITIONS:
        raise ValueError(f"unknown case {case!r}")
    monomial, coeff = _CONDITIONS[case]
    table, trunc = (x.ring.table, x.ring.truncation) if isinstance(x, QHalfSeries) else (x.table, x.truncation)
    return x.substitute({"pX1": GradedPoly(table, trunc, {table.parse_monomial(monomial): coeff})})


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


def assemble_Q(spec: CaseSpec) -> QHalfSeries:
    """The top-degree q-expansion of the case integrand, with the case
    condition imposed.

    With route "both", the bundle and theta routes are computed independently
    and must agree at every mixed degree before extraction.
    """
    series = None
    if spec.route in ("bundle", "both"):
        series = bundle_route_integrand(spec)
    if spec.route in ("theta", "both"):
        other = theta_route_integrand(spec)
        if series is not None and series != other:
            bad = sorted(
                j2
                for j2 in set(series.coeffs) | set(other.coeffs)
                if series.coefficient(j2) != other.coefficient(j2)
            )
            raise RouteMismatchError(
                f"bundle and theta routes disagree for {spec.case} dim {spec.dim} "
                f"at doubled q-exponents {bad}; {_first_difference(series, other)}"
            )
        series = other if series is None else series
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


NOTE_SECTOR_2048 = (
    "the statement prints +32 for the plain-sector constant on the right side; "
    "the dimension forces 2*2^10 = 2048, which is what the engine verifies"
)
NOTE_Q2_135432 = (
    "the statement prints -117288 as the q^2 proportionality constant; the q^2 "
    "coefficient of the weight-10 basis form is -264*513 = -135432, which is "
    "what the engine verifies"
)
NOTE_SUP_16 = (
    "the statement prints extraction superscript (12) in a 16-dimensional "
    "setting; the engine extracts degree (16)"
)
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


# The untwisted index of each multiplicative factor.
_UNTWISTED = {"ahat": "ind(D)", "spinor": f"ind(D{_OX}{_DELTA})", "detcosh_V": "ind_V(1)", "exp_half_c": "ind(D^c)"}


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
    if entry.case == "spin":
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
    if entry.case == "spin_v":
        combo = _V_COMBO[qp]
        factor, label = "detcosh_V", f"ind_V({_render_combo(combo, _V)})"
    else:
        combo = _V_COMBO[qp] if entry.case == "spin_v_line" else _L_COMBO[qp]
        factor, label = "exp_half_c", f"ind(D^c{_OX}({_render_combo(combo, _L)}))"
    return [(1, label, factor, combo), (-e, _UNTWISTED[factor], factor, None)]


def _build_catalog():
    identities: list[IdentityEntry] = []
    corollaries: list[CorollaryEntry] = []

    def add(entry: IdentityEntry, corollary: str | None = None):
        identities.append(entry)
        if corollary is not None:
            corollaries.append(CorollaryEntry(corollary, entry.ident, _relation(entry, 0)[0][1]))

    spin_ids = {
        8: ("Thm1.1-(1.1)", "Thm1.1-(1.2)"),
        12: ("Thm1.3-(1.5)", "Thm1.3-(1.6)"),
        16: ("Thm1.5-(1.9)", "Thm1.5-(1.10)"),
        20: ("Thm1.7-(1.13)", "Thm1.7-(1.14)"),
    }
    spin_cors = {8: "Cor1.2", 12: "Cor1.4", 16: "Cor1.6", 20: "Cor1.8"}
    for dim, (id1, id2) in spin_ids.items():
        notes1 = (NOTE_SECTOR_2048,) if dim == 20 else ()
        notes2 = (NOTE_Q2_135432,) if dim == 20 else ()
        add(IdentityEntry(id1, "spin", dim, 1, notes1), f"{spin_cors[dim]}-a")
        add(IdentityEntry(id2, "spin", dim, 2, notes2), f"{spin_cors[dim]}-b")

    spinv_ids = {8: ("Thm1.9", 2), 12: ("Thm1.12", 2), 16: ("Thm1.15", 1), 20: ("Thm1.18", 1)}
    line_ids = {8: ("Cor1.10", 2), 12: ("Cor1.13", 2), 16: ("Cor1.16", 1), 20: ("Cor1.19", 1)}
    line_cors = {8: "Cor1.11", 12: "Cor1.14", 16: "Cor1.17", 20: "Cor1.20"}
    for dim in (8, 12, 16, 20):
        thm, count = spinv_ids[dim]
        for qp in range(1, count + 1):
            notes = (NOTE_SUP_16,) if dim == 16 else ()
            add(IdentityEntry(f"{thm}-q{qp}", "spin_v", dim, qp, notes))
        cor_thm, count = line_ids[dim]
        for qp, suffix in zip(range(1, count + 1), "ab"):
            add(IdentityEntry(f"{cor_thm}-{suffix}", "spin_v_line", dim, qp), f"{line_cors[dim]}-{suffix}")

    spinc_ids = {10: ("Thm1.21", 2), 14: ("Thm1.23", 2), 18: ("Thm1.25", 1), 22: ("Thm1.27", 1)}
    spinc_cors = {10: "Cor1.22", 14: "Cor1.24", 18: "Cor1.26", 22: "Cor1.28"}
    for dim in (10, 14, 18, 22):
        thm, count = spinc_ids[dim]
        for qp, suffix in zip(range(1, count + 1), "ab"):
            add(IdentityEntry(f"{thm}-q{qp}", "spinc_l", dim, qp), f"{spinc_cors[dim]}-{suffix}")

    return {e.ident: e for e in identities}, {c.ident: c for c in corollaries}


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
    cases = (case, "spin_v_line") if case == "spin_v" else (case,)
    entries = [e for e in IDENTITIES.values() if e.case in cases and e.dim == dim]
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


def index_relation_forms(
    entry: IdentityEntry,
    *,
    e_const: int | None = None,
    extract: int | None = None,
    rhs_sector: int | None = None,
):
    """The identity as an integer relation sum_i c_i * x_i = 0 among indices.

    Returns a list of (coefficient, label, form) triples; each form is the
    pairing polynomial {factor * ch(combo)}^(d) of its index, at the degree d
    = dim unless `extract` overrides it.  The relation holds after the case
    condition is substituted into the forms.
    """
    dim = entry.dim
    e = _basis_coefficient(entry.weight, entry.q_power) if e_const is None else e_const
    d = dim if extract is None else extract
    table = pontryagin_table(dim, aux=entry.case == "spin_v", line=entry.case in ("spin_v_line", "spinc_l"))
    bundles = {"T": tangent_complexification(table, dim).reduce()}
    if entry.case in _AUX_BUNDLE:
        bundles["V"] = _AUX_BUNDLE[entry.case](table, dim).reduce()
    factors: dict[str, GradedPoly] = {}
    terms = []
    for coeff, label, factor, combo in _relation(entry, e, rhs_sector):
        if factor not in factors:
            factors[factor] = _factor_form(table, factor, dim)
        form = factors[factor]
        if combo is not None:
            form = form * _build_combo(combo, bundles).ch()
        terms.append((coeff, label, form.homogeneous_component(d)))
    return terms


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


def verify_identity(ident: str, **overrides) -> IdentityResult:
    """Rebuild the stated identity from its bundle combination and check it.

    Accepts override keywords (e_const, extract, rhs_sector) so
    the uncorrected printed statements can be run as negative controls.
    """
    entry = _entry(ident)
    terms = index_relation_forms(entry, **overrides)
    acc = None
    for coeff, _, form in terms:
        piece = form * coeff
        acc = piece if acc is None else acc + piece
    residual = impose_condition(acc, entry.case)
    e = overrides.get("e_const")
    constant = _basis_coefficient(entry.weight, entry.q_power) if e is None else e
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


class ManifoldData(namedtuple("ManifoldData", "dim numbers")):
    """Characteristic numbers of one closed manifold: the dimension and a dict
    of Fractions keyed by monomial strings."""

    __slots__ = ()

    @classmethod
    def from_mapping(cls, obj) -> "ManifoldData":
        if not isinstance(obj, dict):
            raise ManifoldDataError("manifold data must be a JSON object")
        try:
            dim = obj["dim"]
            numbers = obj["numbers"]
        except KeyError as missing:
            raise ManifoldDataError(f"manifold data needs key {missing}") from None
        if not isinstance(dim, int) or isinstance(dim, bool) or not isinstance(numbers, dict):
            raise ManifoldDataError('manifold data needs an integer "dim" and an object "numbers"')
        parsed = {}
        for key, value in numbers.items():
            if not isinstance(value, str):
                raise ManifoldDataError(f"characteristic number {key!r} must be a rational string")
            try:
                parsed[str(key)] = Fraction(value)
            except (ValueError, ZeroDivisionError) as err:
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
    if data.dim in CASE_DIMS["spin"]:
        return "spin"
    if data.dim in CASE_DIMS["spinc_l"]:
        return "spinc_l"
    raise ManifoldDataError(f"no catalog case in dimension {data.dim}")


def evaluate_report(data: ManifoldData) -> dict:
    """Indices, identity balances and divisibility checks for one manifold."""
    case = manifold_case(data)
    dim = data.dim
    table = pontryagin_table(dim, line=case == "spinc_l")
    numbers = _numbers_by_exponents(data, table)
    factor = "spinor" if case == "spin" else "exp_half_c"
    indices = [
        {"label": label, "value": str(_pair(numbers, _factor_form(table, f, dim).homogeneous_component(dim), dim))}
        for label, f in (("Â-genus", "ahat"), (_UNTWISTED[factor], factor))
    ]

    identity_rows = []
    value_cache: dict[str, Fraction] = {}
    for entry in identities_for(case, dim):
        balance = Fraction(0)
        for coeff, label, form in index_relation_forms(entry):
            value = _pair(numbers, form, dim)
            value_cache[label] = value
            balance += coeff * value
        identity_rows.append({"id": entry.ident, "balanced": balance == 0})

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


def run_case(spec: CaseSpec) -> CaseReport:
    notes: list[str] = []
    if spec.case == "spin_v":
        notes.append(NOTE_COMPLEXIFICATION)
        notes.append(NOTE_LINE_SPECIALIZATION)
    elif spec.case == "spinc_l":
        notes.append(NOTE_PARITY)

    route_ok, route_detail = True, "single route" if spec.route != "both" else "bundle == theta"
    try:
        q_top = assemble_Q(spec)
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

    results = [verify_identity(entry.ident) for entry in identities_for(spec.case, spec.dim)]
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
