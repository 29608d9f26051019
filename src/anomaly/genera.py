"""Multiplicative characteristic forms over a root family of any generator table.

A multiplicative genus is described by the even power series log f(t) =
sum_m a_m t^(2m) of its normalized root factor f (f(0) = 1), kept as the
tuple of its log-coefficients (a_1, a_2, ...).  They are taken from the
factorial series of f by the one-variable recurrence of `_log_coeffs`.
Evaluation over a root family is exp(sum_m a_m * s_m), with s_m the power
sums of the squared roots in the coordinates of the table given: the
generators themselves on a power-sum table, Newton polynomials on a
Pontryagin table.

The genus series and the forms built from them (`ahat_form`, `spinor_ch`,
`aux_bundle_factor`) are memoized per argument: the verifier asks for the
same few forms for every identity and both routes.  Callers treat the
returned polynomials as immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import GeneratorTable, GradedPoly, exp_truncated, power_sum_in_pontryagin


def _log_coeffs(a: list[Fraction]) -> tuple[Fraction, ...]:
    """log a(t) for a[0] = 1, where a[m] multiplies t^(2m), as its coefficients
    of t^(2m) for m = 1..len(a)-1.

    With b = log a, a' = a * b' gives m * b_m = m * a_m - sum_{k<m} k * b_k * a_(m-k).
    """
    b = [Fraction(0)]
    for m in range(1, len(a)):
        b.append((m * a[m] - sum((k * b[k] * a[m - k] for k in range(1, m)), Fraction(0))) / m)
    return tuple(b[1:])


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
    """exp(sum_m a_m s_m(family)) for log_coeffs = (a_1, a_2, ...), truncated, with s_m the
    m-th power sum of the family's squared roots."""
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
