"""Reference computations that the engine tests compare against.

`naive_substitute` is substitution written out term by term: every term of
a polynomial becomes its coefficient times the product of its generators'
images, multiplied out one factor at a time.  The engine substitutes only
single-term images, by rewriting packed keys; this reference also takes
multi-term images over another table, such as the elementary symmetric
polynomials of explicit roots that the root oracles substitute for the
Pontryagin generators.

`in_power_sums` writes a Pontryagin monomial over a power-sum table by
Newton's identities, the inverse of `algebra.to_pontryagin` built without
it: a route perturbation written in Pontryagin classes goes into a route's
power-sum series through it.

`naive_exp_poly` and `naive_log_poly` are the exp and log series of a
polynomial summed term by term, sum_k x^k / k! and sum_k (-1)^(k-1) y^k / k
with y = x - 1: the engine has one exp kernel, a recurrence, and takes no
logarithm of a polynomial.

`bernoulli`, `hyperbolic_log` and `divisor_sum_log` are the theta
quotients' closed-form logarithms as the engine wrote them before it kept
A's alone: a Bernoulli sum at q^0 for A and B1 and a signed divisor sum for
each of A, B1 and B2, each written out on its own.  The engine now reads
B1's and B2's logarithms off A's at rescaled arguments; the tests compare
the two at every coefficient.

`jacobi_identity_residual` is the theta-constant product identity, the
t = 0 shadow of Jacobi's duplication formula B1 B2 B3 = A(t)/A(2t), which
the engine never reads.

`relation_sum` sums an identity's index terms, each form divided by its
rank ratio, with the case condition imposed: the relation that
`verifier.verify_identity` checks, summed without its conversion to
Pontryagin classes.  `relation_forms` gives that relation's forms in
Pontryagin coordinates, over the entry's own table, for pairing with a
manifold.  `verify_identity_as_printed` sums the three relations whose
printed statements carry a slip (`PRINTED_VARIANTS`) as printed,
rebuilt from the engine's own terms with the printed value put back: the
suite shows that each fails where its corrected form passes.

`evaluate_manifold` pairs one top-degree form with a manifold's
characteristic numbers, through the pairing that `evaluate` uses.

`q_power` is the one-term series c * q^(j2/2).  `t_series` and `t_coeffs`
write and read the theta quotients, q-series over the one generator t of
`theta._T`, as (t-power, doubled q-exponent) -> coefficient maps: t^n sits
at degree 2n, so a series cut at t-cap tcap is over truncation 2 * tcap.

`bundle` builds a virtual bundle from its rank and reduced character, the
split the property tests draw; the engine builds bundles from whole
characters.

`build_parser` is the command line declared with argparse, as the CLI
declared it before it read its own option table; the CLI tests parse the
same arguments with both and compare.
"""

import argparse
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from anomaly import theta, verifier
from anomaly.algebra import GradedPoly
from anomaly.bundles import VirtualBundle
from anomaly.qseries import RATIONALS, PolyRing, QHalfSeries
from anomaly.cli import _CASE_FLAGS, _SERIES
from anomaly.verifier import IDENTITIES, IdentityResult, UnknownIdentityError, impose_condition


def naive_substitute(f, images, target):
    """f with generators replaced by `images`, multiplied out over the table `target`.

    An unmapped generator that a term carries passes through by name, so
    `target` must have it.  The result is truncated at the smallest
    truncation of f and the images; with nothing mapped it stays over f's
    table.
    """
    if not images:
        target = f.table
    trunc = min([f.truncation] + [image.truncation for image in images.values()])
    acc = GradedPoly.zero(target, trunc)
    for expts, coeff in f.terms.items():
        term = GradedPoly.constant(target, trunc, coeff)
        for (name, _), e in zip(f.table.generators, expts):
            if e:
                image = images[name] if name in images else GradedPoly.generator(target, name, trunc)
                for _ in range(e):
                    term = term * image
        acc = acc + term
    return acc


def bundle(table, truncation, rank, reduced):
    """The virtual bundle rank + `reduced` over `table`, cut at `truncation`;
    `reduced` has no constant term and reaches the truncation."""
    assert reduced.table == table and not reduced.constant_term and reduced.truncation >= truncation
    return VirtualBundle._of(reduced.truncate(truncation) + rank)


def q_power(ring, cap, j2, value=1):
    """value * q^(j2/2) over `ring`, cut at q^cap."""
    return QHalfSeries(ring, cap, {j2: value})


def t_series(tcap, cap, coeffs):
    """sum c * t^n * q^(j2/2) over `coeffs`, {(n, j2): c}, as a q-series over
    `theta._T` cut at t^tcap (degree 2 * tcap) and q^cap."""
    truncation = 2 * tcap
    slices = {}
    for (n, j2), c in coeffs.items():
        slices.setdefault(j2, {})[(n,)] = c
    polys = {j2: GradedPoly(theta._T, truncation, terms) for j2, terms in slices.items()}
    return QHalfSeries(PolyRing(theta._T, truncation), cap, polys)


def t_coeffs(series):
    """(n, j2) -> nonzero coefficient of t^n * q^(j2/2) in a q-series over `theta._T`."""
    return {(expts[0], j2): c for j2, poly in series.coeffs.items() for expts, c in poly.terms.items()}


def naive_exp_poly(x):
    """sum_k x^k / k!, stopping at the first zero power."""
    result = GradedPoly.one(x.table, x.truncation)
    power = result
    k = 1
    while True:
        power = power * x / k
        if power.is_zero():
            return result
        result = result + power
        k += 1


def naive_log_poly(x):
    """sum_k (-1)^(k-1) y^k / k with y = x - 1, stopping at the first zero power."""
    y = x - 1
    result = GradedPoly.zero(x.table, x.truncation)
    power = GradedPoly.one(x.table, x.truncation)
    k = 1
    while True:
        power = power * y
        if power.is_zero():
            return result
        result = result + power * Fraction((-1) ** (k - 1), k)
        k += 1


def elementary_in_power_sums(table, family, k, truncation):
    """e_k of a root family's squared roots over the power-sum table `table`,
    by Newton's identities k*e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i, with
    s_i the generator named s<family letter>i (sX2 for family pX)."""
    elem = [GradedPoly.one(table, truncation)]
    for n in range(1, k + 1):
        acc = GradedPoly.zero(table, truncation)
        for i in range(1, n + 1):
            s_i = GradedPoly.generator(table, f"s{family[1:]}{i}", truncation)
            acc = acc + (elem[n - i] * s_i) * (1 if i % 2 else -1)
        elem.append(acc / n)
    return elem[k]


def in_power_sums(table, monomial, truncation):
    """A monomial in Pontryagin names (such as "pX1^2*pX2" or "pX1*cL") over
    the power-sum table `table`: each pFk is e_k of family pF, and cL is cL."""
    pontryagin = table.pontryagin
    result = GradedPoly.one(table, truncation)
    for (name, degree), e in zip(pontryagin.generators, pontryagin.parse_monomial(monomial)):
        if e:
            if degree % 4:
                factor = GradedPoly.generator(table, name, truncation)
            else:
                factor = elementary_in_power_sums(table, name.rstrip("0123456789"), degree // 4, truncation)
            result = result * factor**e
    return result


@lru_cache(maxsize=None, typed=True)
def bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2), from B_0 = 1 and sum_{k <= n} C(n + 1, k) B_k = 0."""
    return Fraction(1) if n == 0 else -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


def hyperbolic_log(kind: str, tcap: int) -> dict[tuple[int, int], Fraction]:
    """The q^0 part of log Q, in closed form: for A and B1 a Bernoulli sum,

    A   log((t/2)/sinh(t/2)) = -sum_m B_2m t^(2m) / (2m (2m)!)
    B1  log cosh(t/2)        =  sum_m (4^m - 1) B_2m t^(2m) / (2m (2m)!)

    and none for B2 and B3.
    """
    if kind not in ("A", "B1"):
        return {}
    return {
        (2 * m, 0): (-1 if kind == "A" else 4 ** m - 1) * bernoulli(2 * m) / (2 * m * factorial(2 * m))
        for m in range(1, tcap // 2 + 1)
    }


def divisor_sum_log(kind: str, tcap: int, cap: int) -> dict[tuple[int, int], Fraction]:
    """The q-part of log Q for Q = A, B1 or B2, in closed form.

    A factor pair (1 + eps e^t x)(1 + eps e^-t x) / (1 + eps x)^2 has the
    logarithm -sum_k (-eps)^k x^k (2 cosh(kt) - 2) / k, and the t^(2m)
    coefficient of (2 cosh(kt) - 2) / k is 2 k^(2m-1) / (2m)!.  Summed over
    the pairs (A's sit in the denominator), the t^(2m) q^(j2/2) coefficient
    is 2/(2m)! times a signed divisor sum, d = k:

    A   sum_{d | n} d^(2m-1)                          (j2 = 2n)
    B1  sum_{d | n} (-1)^(d+1) d^(2m-1)               (j2 = 2n)
    B2  -sum_{d | j2, j2/d odd} d^(2m-1)
    """
    coeffs = {}
    for j2 in range(1, 2 * cap + 1):
        if kind == "B2":
            signed = [(d, -1) for d in range(1, j2 + 1) if j2 % d == 0 and (j2 // d) % 2]
        else:
            n = 0 if j2 % 2 else j2 // 2
            signed = [(d, -1 if kind == "B1" and d % 2 == 0 else 1) for d in range(1, n + 1) if n % d == 0]
        for m in range(1, tcap // 2 + 1):
            total = sum(s * d ** (2 * m - 1) for d, s in signed)
            if total:
                coeffs[(2 * m, j2)] = Fraction(2 * total, factorial(2 * m))
    return coeffs


def jacobi_identity_residual(cap: int) -> QHalfSeries:
    """Difference of the two sides of the theta-constant product identity,
    with the common prefactors 2*pi*q^(1/8) cancelled; identically zero.

    Left: prod (1-q^j)^3.  Right: the product of the three theta constants
    prod (1-q^j)(1+q^j)^2, prod (1-q^j)(1-q^(j-1/2))^2,
    prod (1-q^j)(1+q^(j-1/2))^2.
    """
    one = QHalfSeries.one(RATIONALS, cap)

    def q_factor(eps, j2):
        return QHalfSeries(RATIONALS, cap, {0: Fraction(1), j2: Fraction(eps)}) if j2 <= 2 * cap else one

    lhs = one
    t1 = one
    t2 = one
    t3 = one
    for j in range(1, cap + 1):
        m = q_factor(-1, 2 * j)
        p = q_factor(+1, 2 * j)
        lhs = lhs * m * m * m
        t1 = t1 * m * p * p
        t2 = t2 * m
        t3 = t3 * m
    j2 = 1
    while j2 <= 2 * cap:
        m = q_factor(-1, j2)
        p = q_factor(+1, j2)
        t2 = t2 * m * m
        t3 = t3 * p * p
        j2 += 2
    return lhs - t1 * t2 * t3


def relation_sum(terms, case):
    """The index terms (`verifier._relation_terms`) summed, each form divided
    by its rank ratio, with the condition of `case` imposed."""
    acc = None
    for coeff, _, form, ratio in terms:
        piece = form * Fraction(coeff, ratio)
        acc = piece if acc is None else acc + piece
    return impose_condition(acc, case)


def relation_forms(entry):
    """The identity as an integer relation sum_i c_i * x_i = 0 among indices,
    in Pontryagin coordinates: (coefficient, label, form) triples, each form
    the pairing polynomial {factor * ch(combo)}^(dim) of its index over the
    entry's own table (`verifier._relation_terms` over
    `verifier._index_forms` at `_Family.table`).  The relation holds after
    the case condition is imposed."""
    e = verifier._basis_coefficient(entry.weight, entry.q_power)
    terms = verifier._relation_terms(entry, verifier._index_forms([entry], verifier._Family.table), e)
    return [(coeff, label, form) for coeff, label, form, _ in terms]


# The identities whose statements print a slip, and the printed value: the
# right side's plain-sector constant, the basis constant, the extraction degree.
PRINTED_VARIANTS = {
    "Thm1.7-(1.13)": {"rhs_sector": 32},
    "Thm1.7-(1.14)": {"e_const": -117288},
    "Thm1.15-q1": {"extract": 12},
}


def verify_identity_as_printed(ident, forms=None):
    """The identity as its statement prints it, checked on `forms` (default:
    the entry's own, as `verifier.verify_identity` builds them).

    The terms are the engine's (`verifier._relation_terms`) with the printed
    value put back: the printed basis constant is their e; the printed
    extraction degree reads them off an entry of that dimension; the printed
    plain-sector constant rewrites the last, untwisted Â term, -e * sector.
    """
    if ident not in PRINTED_VARIANTS:
        raise UnknownIdentityError(f"identity {ident!r} has no diverging printed variant")
    printed, entry = PRINTED_VARIANTS[ident], IDENTITIES[ident]
    e = printed.get("e_const", verifier._basis_coefficient(entry.weight, entry.q_power))
    if forms is None:
        forms = verifier._index_forms([entry], verifier._Family.power_sum_table)
    terms = verifier._relation_terms(entry._replace(dim=printed.get("extract", entry.dim)), forms, e)
    if "rhs_sector" in printed:
        _, label, form, ratio = terms[-1]
        terms[-1] = (-e * printed["rhs_sector"], label, form, ratio)
    residual = relation_sum(terms, entry.case)
    return IdentityResult(ident, residual.is_zero(), residual, e, entry.notes)


def evaluate_manifold(data, form):
    """Pair a top-degree form with the manifold's characteristic numbers."""
    return verifier._pair(verifier._numbers_by_exponents(data, form.table), form, data.dim)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomaly",
        description="Verify modular anomaly-cancellation identities and their divisibility corollaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the dual-route verification over the case catalog")
    verify.add_argument("--case", choices=sorted(_CASE_FLAGS) + ["all"], default="all")
    verify.add_argument("--dim", type=int, default=None, help="restrict to one dimension; past the catalog, only the routes and the fit run")
    verify.add_argument("--order", type=int, default=3, help="q-expansion cap (default: 3)")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    expand = sub.add_parser("expand", help="print the expansion of a named series")
    expand.add_argument("--series", choices=_SERIES, required=True)
    expand.add_argument("--order", type=int, default=3, help="q-expansion cap (default: 3)")
    expand.add_argument("--dim", type=int, default=8, help="manifold dimension for bundle-valued series")
    expand.add_argument("--tcap", type=int, default=6, help="t-power cap for the two-variable quotients")
    expand.add_argument("--format", choices=("text", "json"), default="text")

    evaluate = sub.add_parser("evaluate", help="evaluate index forms against manifold data")
    evaluate.add_argument("--input", required=True, help="path to a manifold JSON file, or - for stdin")
    evaluate.add_argument("--format", choices=("text", "json"), default="text")

    moduli = sub.add_parser("moduli", help="print the catalog divisibility moduli")
    moduli.add_argument("--case", choices=sorted(_CASE_FLAGS) + ["all"], default="all")
    moduli.add_argument("--dim", type=int, default=None)
    moduli.add_argument("--format", choices=("text", "json"), default="text")

    return parser
