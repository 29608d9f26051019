"""Multiplicative characteristic forms evaluated in Pontryagin generators.

A multiplicative genus is described by the even power series log f(t) =
sum_m a_m t^(2m) of its normalized root factor f (f(0) = 1), kept as the
tuple of its log-coefficients (a_1, a_2, ...).  Evaluation over a root set
with elementary symmetric data (p1, p2, ...) is exp(sum_m a_m * s_{2m}), with
s_{2m} the power sums written in the generators.

The genus series and the forms built from them (`ahat_form`, `spinor_ch`,
`aux_bundle_factor`) are memoized per argument: the verifier asks for the
same few forms for every identity and both routes.  Callers treat the
returned polynomials as immutable.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None, typed=True)
def ahat_genus(truncation: int) -> tuple[Fraction, ...]:
    """Log-coefficients a_1, ..., a_(truncation // 4) of the root factor (t/2)/sinh(t/2)."""
    sinh_ratio = [Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(truncation // 4 + 1)]
    return tuple(-c for c in _log_coeffs(sinh_ratio))


@lru_cache(maxsize=None, typed=True)
def cosh_genus(truncation: int) -> tuple[Fraction, ...]:
    """Log-coefficients a_1, ..., a_(truncation // 4) of the root factor cosh(t/2)."""
    return _log_coeffs([Fraction(1, 4 ** m * factorial(2 * m)) for m in range(truncation // 4 + 1)])


def multiplicative_genus_eval(table: GeneratorTable, log_coeffs: tuple, family: str, truncation: int) -> GradedPoly:
    """exp(sum_m a_m s_{2m}(family)) for log_coeffs = (a_1, a_2, ...), truncated."""
    acc = GradedPoly.zero(table, truncation)
    for m in range(1, truncation // 4 + 1):
        if m <= len(log_coeffs) and log_coeffs[m - 1]:
            acc = acc + power_sum_in_pontryagin(table, family, m, truncation) * log_coeffs[m - 1]
    return exp_truncated(acc)


@lru_cache(maxsize=None, typed=True)
def ahat_form(table: GeneratorTable, dim: int) -> GradedPoly:
    """The multiplicative form with root factor (t/2)/sinh(t/2) over pX, to degree dim."""
    return multiplicative_genus_eval(table, ahat_genus(dim), "pX", dim)


@lru_cache(maxsize=None, typed=True)
def spinor_ch(table: GeneratorTable, dim: int) -> GradedPoly:
    """Chern character of the full spinor bundle: prod_j 2*cosh(t_j/2) over pX, to degree dim:
    the cosh(t/2) form times 2^(dim/2)."""
    if dim % 4 != 0:
        raise ValueError("the spinor character form needs dim divisible by 4")
    return multiplicative_genus_eval(table, cosh_genus(dim), "pX", dim) * 2 ** (dim // 2)


@lru_cache(maxsize=None, typed=True)
def aux_bundle_factor(table: GeneratorTable, kind: str, truncation: int) -> GradedPoly:
    """Auxiliary multiplicative factors:

    detcosh_V   prod_r cosh(u_r/2) over the pV classes
    exp_half_c  exp(cL/2)
    sinh_half_c sinh(cL/2)
    cosh_half_c cosh(cL/2)
    """
    if kind == "detcosh_V":
        return multiplicative_genus_eval(table, cosh_genus(truncation), "pV", truncation)
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
