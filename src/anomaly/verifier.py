"""Case assembly, proportionality fits, the identity catalog, divisibility
moduli, and manifold evaluation.

A case is a geometric setting (spin, spin with an auxiliary bundle, spin-c
with a line bundle), one row of the family table `_FAMILIES`, at a dimension
where its weight is an even integer >= 4 (`case_admits`).  Its catalog
dimensions, the default run, are those of its stated identities; past them
a case has only its routes and its fit.  The integrand q-series is
assembled along two independent routes - the bundle route (lambda-ring
operations times multiplicative characteristic forms) and the theta route
(products of theta quotients) - compared coefficient-by-coefficient,
reduced to its top-degree part, and fitted against the echelon basis f_i =
q^i + O(q^d) of M_k at the case's weight (`qseries.modular_basis`): its
q^0..q^(d-1) coefficients are the fit's lam, and the rest are compared.  A
dimension only truncates a family's integrand (and, for spin, scales it by
the spinor rank), so `run_cases` builds each family's routes once, at its
largest selected dimension, and each route cuts the lower dimensions out of
its own series.
The family compares its two top series once; only when they differ does
each dimension compare its own cuts, and it raises if those differ too.
Either way the fitted series is read off the bundle top.

Each stated identity, a row of the table `_STATED`, is written once, as data:
`_relation` lists its index terms, each a coefficient, a label, a factor (Â,
Â·ch(Δ), Â·det^(1/2)cosh or Â·exp(cL/2)) and a bundle combination.  From that
one list the identity is rebuilt as an exact polynomial identity, its
corollary is read as an integer relation solved for the first term (the
divisibility modulus), and a manifold's characteristic numbers are paired
with every index form.  `run_cases` builds each distinct index form once per
family, at its largest dimension that states an identity; an identity at dimension d sums their
degree-d parts, the spinor factor's divided by its rank ratio, and cuts only
the residual to its own table.  A lone identity is its own top.

This module alone chooses coordinates (see `anomaly.algebra`).  The routes
and the identity checks' index forms are built over the family's power-sum
table, and the routes are compared there.  Only what is reported is
converted to Pontryagin classes: the top-degree series that is fitted, an
identity's residual, and a mismatching pair of routes before their first
difference is named.  `evaluate_report` builds its forms over the
Pontryagin table, where a manifold's numbers are keyed.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter

from .algebra import (
    GeneratorTable,
    GradedPoly,
    _is_int,
    _nonnegative_int,
    first_classes,
    pontryagin_table,
    power_sum_table,
    to_pontryagin,
)
from .bundles import (
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


class CaseConditionError(ValueError):
    """Characteristic numbers break the case condition, so no identity applies."""


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


_FAMILY_FIELDS = "factor weight_drop aux line bundle condition rank_base bundle_series bundle_factor theta_sectors notes identity_notes identities combos"


class _Family(namedtuple("_Family", _FAMILY_FIELDS, defaults=(0, False, False, None, None, 1, None, None, (), (), (), (), None))):
    """One case family; an unset field is inert.  factor: of the index terms;
    weight_drop: the weight is (dim - weight_drop)/2 (`case_admits`); aux,
    line: the table's pV block and cL class; bundle: V's builder (spin: the
    spinor bundle); condition: pX1 -> coefficient * monomial; rank_base: see
    `_rank_ratio`, and the theta route's scale is rank_base^(dim/2);
    bundle_series, bundle_factor: the bundle route's theta series and factor
    (none: identities only, not a case); theta_sectors: the theta route's
    sectors, each ((quotient kind, root family) pairs, whether the sector
    adds its half-period shift), names read by `q_series_via_theta`; notes:
    the notes of every report; identity_notes: the notes that speak of the
    identities, added after those only where identities run; identities: the
    identity cases read with it, whose `_STATED` dimensions are its catalog
    dimensions (`CASE_DIMS`); combos: theirs, by q-power."""

    __slots__ = ()

    def table(self, dim: int) -> GeneratorTable:
        return pontryagin_table(dim, aux=self.aux, line=self.line)

    def power_sum_table(self, dim: int) -> GeneratorTable:
        return power_sum_table(dim, aux=self.aux, line=self.line)


_FAMILIES = {
    "spin": _Family(
        bundle=spinor_bundle, rank_base=2, bundle_series="sectors", bundle_factor="ahat",
        theta_sectors=(((("A", "pX"), ("B1", "pX")), False), ((("A", "pX"), ("B2", "pX")), True)),
        factor="spinor", identities=("spin",),
    ),
    "spin_v": _Family(
        aux=True, bundle=aux_complexification, condition=("pV1", 3),
        bundle_series="thetaV", bundle_factor="detcosh_V", factor="detcosh_V", combos=_V_COMBO,
        theta_sectors=(((("A", "pX"), ("B1", "pV"), ("B2", "pV"), ("B3", "pV")), False),),
        notes=(NOTE_COMPLEXIFICATION,), identity_notes=(NOTE_LINE_SPECIALIZATION,),
        identities=("spin_v", "spin_v_line"),
    ),
    "spinc_l": _Family(
        weight_drop=2, line=True, bundle=line_real_complexification, condition=("cL^2", 1),
        bundle_series="thetaL", bundle_factor="sinh_half_c", factor="exp_half_c", combos=_L_COMBO,
        theta_sectors=(((("A", "pX"), ("L", "cL")), False),),
        identity_notes=(NOTE_PARITY,), identities=("spinc_l",),
    ),
    "spin_v_line": _Family(  # spin_v with V the realified line bundle: identities only, read with spin_v
        line=True, bundle=line_real_complexification, condition=("cL^2", 3), factor="exp_half_c", combos=_V_COMBO
    ),
}

CASES = tuple(case for case, row in _FAMILIES.items() if row.bundle_series)


def case_weight(case: str, dim: int) -> int:
    """Modular weight of a case's integrand: (dim - its family's weight_drop)/2."""
    return (dim - _FAMILIES[case].weight_drop) // 2


def case_admits(case: str, dim) -> bool:
    """Whether `case` is a case whose weight at `dim` is an even integer >= 4:
    exactly where `qseries.modular_basis` has a basis to fit against."""
    return case in CASES and _is_int(dim) and (dim - _FAMILIES[case].weight_drop) % 4 == 0 and case_weight(case, dim) >= 4


class CaseSpec(namedtuple("CaseSpec", "case dim qcap")):
    """One verification case: geometric setting, dimension and q-cap.  Every
    case builds both routes and compares them (`assemble_Q`).  A case runs at
    every dimension it admits (`case_admits`), past its catalog dimensions
    too, where it has no identities and no moduli."""

    __slots__ = ()

    def __new__(cls, case: str, dim: int, qcap: int = 3):
        if case not in CASES:
            raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        if not case_admits(case, dim):
            low = 8 + _FAMILIES[case].weight_drop
            raise ValueError(f"case {case} supports dimensions {low}, {low + 4}, {low + 8}, ..., got {dim!r}")
        _nonnegative_int(qcap, "q-cap")
        return super().__new__(cls, case, dim, qcap)

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


def _power_sums(spec) -> GeneratorTable:
    """The power-sum table of the spec's case family at its dimension, which
    both routes build on; read from the family row, not from `spec.table()`."""
    return _FAMILIES[spec.case].power_sum_table(spec.dim)


def bundle_route_integrand(spec: CaseSpec) -> QHalfSeries:
    """Characteristic forms times Chern characters of the theta-power bundles,
    over the case's power-sum table (`_bundle_route`)."""
    return _bundle_route(spec, _power_sums(spec))


def _bundle_route(spec, table: GeneratorTable) -> QHalfSeries:
    """The bundle route over `table`, in its coordinates."""
    dim, row = spec.dim, _FAMILIES[spec.case]
    TX = tangent_complexification(table, dim)
    series = theta_series(row.bundle_series, TX, row.bundle(table, dim), cap=spec.qcap)
    return series.scale(_factor_form(table, row.bundle_factor, dim))


def theta_route_integrand(spec: CaseSpec) -> QHalfSeries:
    """The theta route: the sectors that the family row's theta_sectors name,
    times the spinor rank rank_base^(dim/2), over the case's power-sum table
    (`_theta_route`)."""
    return _theta_route(spec, _power_sums(spec))


def _theta_route(spec, table: GeneratorTable) -> QHalfSeries:
    """The theta route over `table`, in its coordinates."""
    row = _FAMILIES[spec.case]
    return q_series_via_theta(table, row.theta_sectors, row.rank_base ** (spec.dim // 2), spec.dim, spec.qcap)


def impose_condition(x, case: str):
    """Substitute the case's first-Pontryagin constraint, the condition of
    its `_FAMILIES` row, into x, a polynomial or a q-series over polynomials.

    The condition is a monomial in first classes, and p1 = s1, so it reads
    alike over a Pontryagin and a power-sum table (`algebra.first_classes`).
    Each image is a single term, so the substitution rewrites packed keys,
    every q-coefficient of a series at once.
    """
    if case not in _FAMILIES:
        raise ValueError(f"unknown case {case!r}")
    if _FAMILIES[case].condition is None:
        return x
    return x.substitute(_condition_images(_FAMILIES[case].condition, x.layout.table, x.limits[0]))


@lru_cache(maxsize=None, typed=True)
def _condition_images(condition: tuple, table: GeneratorTable, truncation: int) -> dict:
    """The substitution of `impose_condition` over `table` at `truncation`:
    p1 of pX to the single term of `condition`, a row's (monomial,
    coefficient) pair.  Memoized by the condition itself, not by a row."""
    monomial, coeff = condition
    image = GradedPoly(table, truncation, {first_classes(table, monomial): coeff})
    return {table.monomial_string(first_classes(table, "pX1")): image}


def _in_pontryagin(x, case: str):
    """x over a power-sum table, the case condition imposed, moved onto the
    Pontryagin table (`algebra.to_pontryagin`) with the condition imposed
    again: the Newton polynomial of each s_m (m >= 2) brings p1 back.

    The condition goes in first, so fewer monomials are converted; the
    result is the same, as the conversion maps s1 to p1.
    """
    return impose_condition(to_pontryagin(impose_condition(x, case)), case)


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
    """The two route integrands of `top`'s case family, both built at
    `top.dim`: (dimension, bundle series, theta series, whether they are
    equal)."""
    bundle, theta = bundle_route_integrand(top), theta_route_integrand(top)
    return top.dim, bundle, theta, bundle == theta


def _cut(series: QHalfSeries, top_dim: int, spec, table: GeneratorTable) -> QHalfSeries:
    """A series at `top_dim` cut to `spec.dim`: its terms, all of degree <=
    dim, over `table`, divided by the case's `_rank_ratio`.  `assemble_Q`
    passes the bundle top's converted degree-dim part, onto `spec.table()`,
    and when the two tops differ each whole top, onto the power-sum table at
    `spec.dim`.  A series at `spec.dim` already is returned as it is."""
    if top_dim == spec.dim:
        return series
    cut = series.cut(PolyRing(table, spec.dim))
    ratio = _rank_ratio(spec.case, top_dim, spec.dim)
    return cut if ratio == 1 else cut * Fraction(1, ratio)


def assemble_Q(spec: CaseSpec, family: tuple | None = None) -> QHalfSeries:
    """The top-degree q-expansion of the case integrand, with the case
    condition imposed, over `spec.table()`.

    `family` holds the route integrands of the spec's case family at a
    dimension at or above `spec.dim` (`_family_routes`, as `run_cases` builds
    them), over the family's power-sum table there.  Without it the spec is
    its own top: both routes are built at `spec.dim` and nothing is cut.
    The bundle and theta routes are always both built, independently, and
    must agree at every q-power and mixed degree of `spec.dim` before
    extraction.  Two equal top series have equal cuts, so the family
    compares its tops once, and only the degree-dim part of the bundle top is
    converted to Pontryagin classes (`_in_pontryagin`) and cut to `spec.dim`
    (`_cut`).  When the tops differ, each dimension first cuts and compares
    both whole routes, in power sums; if its cuts differ too, it converts
    both to name its own first difference and raises RouteMismatchError.
    """
    top_dim, bundle, theta, agree = _family_routes(spec) if family is None else family
    if not agree:
        table = _power_sums(spec)
        series, other = _cut(bundle, top_dim, spec, table), _cut(theta, top_dim, spec, table)
        if series != other:
            series, other = to_pontryagin(series), to_pontryagin(other)
            bad = sorted(
                j2
                for j2 in set(series.coeffs) | set(other.coeffs)
                if series.coefficient(j2) != other.coefficient(j2)
            )
            raise RouteMismatchError(
                f"bundle and theta routes disagree for {spec.case} dim {spec.dim} "
                f"at doubled q-exponents {bad}; {_first_difference(series, other)}"
            )
    return _cut(_in_pontryagin(bundle.homogeneous_component(spec.dim), spec.case), top_dim, spec, spec.table())


INSUFFICIENT_ORDER = "insufficient order: no q-coefficient compared"


class FitResult(namedtuple("FitResult", "weight lam residual")):
    """Outcome of fitting a top-degree q-expansion against the echelon basis
    (f_0, ..., f_{d-1}) of its weight: weight (int), lam (a tuple of d
    GradedPoly, one per basis form) and residual (QHalfSeries)."""

    __slots__ = ()

    @property
    def compared(self) -> int:
        """q-coefficients checked against the basis: q^d..q^cap (q^0..q^(d-1) fix lam)."""
        return max(0, self.residual.cap + 1 - len(self.lam))

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.residual.is_zero()

    def render_residual(self) -> str:
        return self.residual.render() if self.compared else INSUFFICIENT_ORDER


def eisenstein_fit(q_top: QHalfSeries, weight: int) -> FitResult:
    """Fit q_top = sum_i lam_i * f_i over the echelon basis of the weight
    (`qseries.modular_basis`, f_i = q^i + O(q^d)): lam_i is q_top's q^i piece."""
    if not q_top.integer_powers_only():
        raise ValueError("surviving half-integer powers in the q-expansion")
    basis = modular_basis(weight, q_top.cap)
    lam = tuple(q_top.coefficient_q(i) for i in range(len(basis)))
    residual = q_top
    for form, coeff in zip(basis, lam):
        residual = residual - form.promote(q_top.ring).scale(coeff)
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


def _atom_ch(atom: str, bundles: dict) -> GradedPoly:
    if atom in bundles:
        return bundles[atom].ch()
    op, k, base = atom[0], int(atom[1:-1]), atom[-1]
    W = bundles[base]
    return (W.lambda_power(k) if op == "L" else W.sym_power(k)).ch()


def _combo_ch(combo, bundles: dict) -> GradedPoly:
    """ch of a bundle combination: ch is a ring map, so its sums and tensor
    products are sums and products of the atoms' characters."""
    sample = bundles["T"]
    acc = GradedPoly.zero(sample.table, sample.truncation)
    for coeff, atoms in combo:
        term = _atom_ch(atoms[0], bundles)
        for atom in atoms[1:]:
            term = term * _atom_ch(atom, bundles)
        acc = acc + term * coeff
    return acc


class IdentityEntry(namedtuple("IdentityEntry", "ident case dim q_power notes", defaults=((),))):
    """One stated identity: a case (spin, spin_v, spin_v_line or spinc_l), a
    dimension, a q-power slot and a tuple of note strings."""

    __slots__ = ()

    @property
    def weight(self) -> int:
        return case_weight(self.case, self.dim)


class CorollaryEntry(namedtuple("CorollaryEntry", "ident source")):
    """A divisibility corollary: solve identity `source` for the index term `target`."""

    __slots__ = ()

    @property
    def target(self) -> str:
        """The label of the source relation's first term, rendered from the live family row."""
        return _relation(IDENTITIES[self.source], 0)[0][1]


# The untwisted index of each factor, and the label and V name of an auxiliary factor's twisted index.
_UNTWISTED = {"ahat": "ind(D)", "spinor": f"ind(D{_OX}{_DELTA})", "detcosh_V": "ind_V(1)", "exp_half_c": "ind(D^c)"}
_TWISTED = {"detcosh_V": ("ind_V({})", _V), "exp_half_c": (f"ind(D^c{_OX}({{}}))", _L)}


def _relation(entry: IdentityEntry, e: int) -> list:
    """The identity's index terms as (coefficient, label, factor, combo) data.

    The index of a term pairs {factor * ch(combo)}^(dim) with the manifold;
    factor is "ahat" (Â), "spinor" (Â·ch(Δ)) or an auxiliary factor kind
    times Â, and combo is a bundle combination or None for the trivial
    bundle.  e is the basis-form coefficient.  The first term is the one the
    corollary solves for.
    """
    qp = entry.q_power
    row = _FAMILIES[entry.case]
    if row.factor == "spinor":
        sector = 2 ** (entry.dim // 2 + 1)
        plain = _SPIN_PLAIN[qp]
        if qp == 1:
            target = (2, f"ind(D{_OX}{_DELTA}{_OX}{_T})", "spinor", ((1, ("T",)),))
        else:
            target = (1, f"ind(D{_OX}{_DELTA}{_OX}({_render_combo(_SPIN_DELTA[qp], _V)}))", "spinor", _SPIN_DELTA[qp])
        return [
            target,
            (sector, f"ind(D{_OX}({_render_combo(plain, _V)}))", "ahat", plain),
            (-e, _UNTWISTED["spinor"], "spinor", None),
            (-e * sector, _UNTWISTED["ahat"], "ahat", None),
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

# The default run: each case at the dimensions of its stated identities.
CASE_DIMS = {case: tuple(sorted({d for c, d, _, _ in _STATED if c in _FAMILIES[case].identities})) for case in CASES}

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
                corollaries[cor] = CorollaryEntry(cor, ident)
    return identities, corollaries


IDENTITIES, COROLLARIES = _build_catalog()


def identities_for(case: str, dim: int) -> list[IdentityEntry]:
    """The catalog identities of one case; spin_v includes its line-bundle specialization.

    A case outside `CASES`, or a dimension the case does not admit
    (`case_admits`), is an input error; an admitted dimension past the
    catalog has none.
    """
    if case not in CASES:
        raise ValueError(f"no catalog identity for unknown case {case!r}; expected one of {CASES}")
    if not case_admits(case, dim):
        raise ValueError(f"no catalog identity for case {case!r} in dimension {dim!r}")
    return [e for e in IDENTITIES.values() if e.case in _FAMILIES[case].identities and e.dim == dim]


def corollaries_for(case: str, dim: int) -> list[CorollaryEntry]:
    """The corollaries of the identities of one case (`identities_for`)."""
    sources = {e.ident for e in identities_for(case, dim)}
    return [cor for cor in COROLLARIES.values() if cor.source in sources]


def _basis_coefficient(weight: int, q_power: int) -> int:
    (form,) = modular_basis(weight, max(2, q_power))  # the identities' weights have one form
    value = form.coefficient_q(q_power).constant_term
    if value.denominator != 1:
        raise ArithmeticError(f"the q^{q_power} coefficient {value} of the weight-{weight} basis form is not an integer")
    return int(value)


def _index_forms(entries, coordinates) -> tuple:
    """Every distinct index form of the entries' relations, each built once at
    their largest dimension D: (D, {(case, factor, combo): form}).

    A form is {factor * ch(combo)} over the case's table at D, truncated at
    D; the untwisted factor sits under combo None.  `coordinates` is the
    family row's table method that names the table: `_Family.power_sum_table`
    for the identity checks, `_Family.table` for pairing with Pontryagin
    numbers.  An identity at dimension d reads the degree-d parts of its
    forms (`_relation_terms`).
    """
    top = max(entry.dim for entry in entries)
    forms: dict[tuple, GradedPoly] = {}
    bundles: dict[str, dict] = {}
    for entry in entries:
        case = entry.case
        row = _FAMILIES[case]
        table = coordinates(row, top)
        for _, _, factor, combo in _relation(entry, 0):
            if (case, factor, None) not in forms:
                forms[case, factor, None] = _factor_form(table, factor, top)
            if (case, factor, combo) in forms:
                continue
            if case not in bundles:
                bundles[case] = {"T": tangent_complexification(table, top).reduce()}
                if row.combos is not None:  # the V atoms occur only in a row's combos
                    bundles[case]["V"] = row.bundle(table, top).reduce()
            forms[case, factor, combo] = forms[case, factor, None] * _combo_ch(combo, bundles[case])
    return top, forms


def _relation_terms(entry: IdentityEntry, forms: tuple, e: int) -> list:
    """The identity's index terms read off `forms` (`_index_forms`) at their
    dimension D: (coefficient, label, form, rank ratio) quadruples.

    Each form is the degree-dim part of the index form over D's table: the
    entry's own form times the rank ratio (`_rank_ratio`), which Â does not
    carry.
    """
    top, by_key = forms
    ratio = _rank_ratio(entry.case, top, entry.dim)
    return [
        (coeff, label, by_key[entry.case, factor, combo].homogeneous_component(entry.dim), 1 if factor == "ahat" else ratio)
        for coeff, label, factor, combo in _relation(entry, e)
    ]


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


def verify_identity(ident: str, forms: tuple | None = None) -> IdentityResult:
    """Rebuild the stated identity from its bundle combination and check it.

    `forms` holds the index forms of the entry's case family at a dimension
    D at or above the entry's own, over the family's power-sum table there
    (`_index_forms`, as `run_cases` builds them).  The relation is summed
    over D's table, each spinor term divided by its rank ratio, and only the
    residual is converted to Pontryagin classes (`_in_pontryagin`) and cut to
    the entry's table.  Without `forms` the entry is its own top and nothing
    is cut.
    """
    entry = _entry(ident)
    constant = _basis_coefficient(entry.weight, entry.q_power)
    if forms is None:
        forms = _index_forms([entry], _Family.power_sum_table)
    acc = None
    for coeff, _, form, ratio in _relation_terms(entry, forms, constant):
        piece = form * (coeff if ratio == 1 else Fraction(coeff, ratio))
        acc = piece if acc is None else acc + piece
    residual = _in_pontryagin(acc, entry.case)
    if forms[0] != entry.dim:  # a family top: the residual goes onto the entry's own table
        residual = residual.cut(_FAMILIES[entry.case].table(entry.dim), entry.dim)
    return IdentityResult(ident, residual.is_zero(), residual, constant, entry.notes)


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
        """Decode and validate; a key repeated within one JSON object, at any
        level, is bad data, where `json.loads` alone would keep its last value."""
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ManifoldDataError("manifold data is nested too deeply") from None
        return cls.from_mapping(obj)


def _unique_keys(pairs: list) -> dict:
    """The pairs of one decoded JSON object as a dict; a repeated key is bad data."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ManifoldDataError(f"key {key!r} is repeated")
        obj[key] = value
    return obj


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


def check_case_condition(data: ManifoldData) -> None:
    """Raise CaseConditionError unless the manifold's numbers meet the
    condition pX1 -> c*m of its case (`manifold_case`): if pX1 = c*m in H^4,
    then <pX1*x> = c*<m*x> for every monomial x of degree dim - 4.

    The first broken equality, x in render order, is named with both values.
    An x whose two numbers are not both given is left to the pairing, which
    names a missing one.  `evaluate_report` pairs whatever numbers it gets,
    so the CLI checks them here first.
    """
    case = manifold_case(data)
    if _FAMILIES[case].condition is None:
        return
    monomial, coeff = _FAMILIES[case].condition
    table = _FAMILIES[case].table(data.dim)
    numbers = _numbers_by_exponents(data, table)
    p1, m = first_classes(table, "pX1"), first_classes(table, monomial)
    for expts in sorted(numbers):
        image = tuple(e - f + g for e, f, g in zip(expts, p1, m))  # pX1*x -> m*x; no key if pX1 does not divide
        if image in numbers and numbers[expts] != coeff * numbers[image]:
            scale = "" if coeff == 1 else f"{coeff}*"
            raise CaseConditionError(
                f"the numbers break the {case} condition pX1 = {scale}{monomial}: "
                f"<{table.monomial_string(expts)}> = {numbers[expts]}, "
                f"but {scale}<{table.monomial_string(image)}> = {coeff * numbers[image]}"
            )


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
    forms = _index_forms(entries, _Family.table)

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
        "case dim weight qcap route_ok route_detail lam fit_ok fit_residual identities moduli notes",
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

    The specs are grouped by (case, q-cap), and each group's two route
    integrands are built once, at the group's largest dimension
    (`_family_routes`), and the index forms of its identities, if it has any,
    once at the largest dimension that states one (`_index_forms`).  Every
    spec of the group cuts its dimension out of them: inside each route
    (`assemble_Q`), so the two routes are still compared at every q-power
    and mixed degree of each dimension, and per identity as degree-d parts
    (`verify_identity`).  One group's series and forms are dropped before
    the next group's are built.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.case, spec.qcap), []).append(i)
    reports: list = [None] * len(specs)
    for members in groups.values():
        group = [specs[i] for i in members]
        family = _family_routes(max(group, key=attrgetter("dim")))
        entries = [entry for spec in group for entry in identities_for(spec.case, spec.dim)]
        forms = _index_forms(entries, _Family.power_sum_table) if entries else None
        for i, spec in zip(members, group):
            reports[i] = _case_report(spec, family, forms)
        del family, forms
    return reports


def _case_report(spec: CaseSpec, family: tuple, forms: tuple) -> CaseReport:
    route_ok, route_detail = True, "bundle == theta"
    try:
        q_top = assemble_Q(spec, family)
    except RouteMismatchError as err:
        route_ok, route_detail = False, str(err)
        q_top = None

    if q_top is not None:
        fit = eisenstein_fit(q_top, spec.weight)
        lam_text = ", ".join(coeff.render() for coeff in fit.lam)
        fit_ok = fit.passed
        fit_residual = fit.render_residual()
    else:
        lam_text, fit_ok, fit_residual = "", False, "route mismatch"

    results = [verify_identity(entry.ident, forms) for entry in identities_for(spec.case, spec.dim)]
    moduli = [
        (cor.ident, cor.target, corollary_modulus(cor.ident))
        for cor in corollaries_for(spec.case, spec.dim)
    ]
    row = _FAMILIES[spec.case]
    notes = [*row.notes, *(row.identity_notes if results else ())]
    notes += [note for result in results for note in result.notes]

    return CaseReport(
        case=spec.case,
        dim=spec.dim,
        weight=spec.weight,
        qcap=spec.qcap,
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
                "route": "both",  # every run compares both routes; the key keeps the format
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
