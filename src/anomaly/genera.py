"""Multiplicative characteristic forms evaluated in Pontryagin generators.

A multiplicative genus is described by the even power series log f(t) =
sum_m a_m t^(2m) of its normalized root factor f (f(0) = 1), plus an optional
per-root constant multiplier.  Evaluation over a root set with elementary
symmetric data (p1, p2, ...) is exp(sum_m a_m * s_{2m}) times multiplier^pairs,
with s_{2m} the power sums written in the generators.

The genus series and the forms built from them (`ahat_form`, `spinor_ch`,
`aux_bundle_factor`) are memoized per argument: the verifier asks for the
same few forms for every identity and both routes.  Callers treat the
returned polynomials as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import GeneratorTable, GradedPoly, exp_truncated, log_truncated, power_sum_in_pontryagin

# Even univariate series are plain coefficient lists: a[m] multiplies t^(2m).
# Their logarithms are taken as polynomials in the one generator t2 = t^2.
_EVEN_SERIES = GeneratorTable([("t2", 2)])


def _log_coeffs(a: list[Fraction]) -> tuple[Fraction, ...]:
    """log a(t) for a[0] = 1, as its coefficients of t^(2m) for m = 1..len(a)-1."""
    M = len(a) - 1
    log = log_truncated(GradedPoly(_EVEN_SERIES, 2 * M, {(m,): c for m, c in enumerate(a)})).terms
    return tuple(log.get((m,), Fraction(0)) for m in range(1, M + 1))


def _half_sinh_ratio(M: int) -> list[Fraction]:
    """sinh(t/2) / (t/2) as an even series."""
    return [Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(M + 1)]


def _half_cosh(M: int) -> list[Fraction]:
    """cosh(t/2) as an even series."""
    return [Fraction(1, 4 ** m * factorial(2 * m)) for m in range(M + 1)]


@dataclass(frozen=True)
class GenusSeries:
    """Log-coefficients of the normalized root factor, plus a per-root multiplier."""

    name: str
    log_coeffs: tuple[Fraction, ...]  # a_m for m = 1..M
    multiplier: Fraction


@lru_cache(maxsize=None)
def ahat_genus(truncation: int) -> GenusSeries:
    """Root factor (t/2)/sinh(t/2)."""
    return GenusSeries("ahat", tuple(-c for c in _log_coeffs(_half_sinh_ratio(truncation // 4))), Fraction(1))


@lru_cache(maxsize=None)
def spinor_genus(truncation: int) -> GenusSeries:
    """Root factor 2*cosh(t/2): the Chern character of the full spinor bundle."""
    return GenusSeries("spinor", _log_coeffs(_half_cosh(truncation // 4)), Fraction(2))


@lru_cache(maxsize=None)
def cosh_genus(truncation: int) -> GenusSeries:
    """Root factor cosh(t/2)."""
    return GenusSeries("cosh_half", _log_coeffs(_half_cosh(truncation // 4)), Fraction(1))


def multiplicative_genus_eval(
    table: GeneratorTable,
    genus: GenusSeries,
    family: str,
    pairs: int,
    truncation: int,
) -> GradedPoly:
    """exp(sum_m a_m s_{2m}(family)) * multiplier^pairs, truncated."""
    if pairs < 0:
        raise ValueError("number of root pairs must be nonnegative")
    acc = GradedPoly.zero(table, truncation)
    for m in range(1, truncation // 4 + 1):
        if m <= len(genus.log_coeffs) and genus.log_coeffs[m - 1]:
            acc = acc + power_sum_in_pontryagin(table, family, m, truncation) * genus.log_coeffs[m - 1]
    return exp_truncated(acc) * genus.multiplier ** pairs


@lru_cache(maxsize=None)
def ahat_form(table: GeneratorTable, dim: int) -> GradedPoly:
    """The multiplicative form with root factor (t/2)/sinh(t/2) over pX, to degree dim."""
    return multiplicative_genus_eval(table, ahat_genus(dim), "pX", dim // 2, dim)


@lru_cache(maxsize=None)
def spinor_ch(table: GeneratorTable, dim: int) -> GradedPoly:
    """Chern character of the full spinor bundle: prod_j 2*cosh(t_j/2) over pX, to degree dim."""
    if dim % 4 != 0:
        raise ValueError("the spinor character form needs dim divisible by 4")
    return multiplicative_genus_eval(table, spinor_genus(dim), "pX", dim // 2, dim)


AUX_FACTOR_KINDS = ("detcosh_V", "exp_half_c", "sinh_half_c", "cosh_half_c")


@lru_cache(maxsize=None)
def aux_bundle_factor(table: GeneratorTable, kind: str, truncation: int) -> GradedPoly:
    """Auxiliary multiplicative factors:

    detcosh_V   prod_r cosh(u_r/2) over the pV classes
    exp_half_c  exp(cL/2)
    sinh_half_c sinh(cL/2)
    cosh_half_c cosh(cL/2)
    """
    if kind == "detcosh_V":
        return multiplicative_genus_eval(table, cosh_genus(truncation), "pV", 0, truncation)
    if kind in ("exp_half_c", "sinh_half_c", "cosh_half_c"):
        if "cL" not in table:
            raise ValueError("table has no degree-2 class cL")
        half_c = GradedPoly.generator(table, "cL", truncation) / 2
        plus = exp_truncated(half_c)
        if kind == "exp_half_c":
            return plus
        minus = exp_truncated(-half_c)
        return (plus - minus) / 2 if kind == "sinh_half_c" else (plus + minus) / 2
    raise ValueError(f"unknown auxiliary factor kind {kind!r}")
