"""Bivariate truncated series in t and sqrt(q), and the theta-quotient route.

The five quotients A, B1, B2, B3, L are infinite products of factors
(1 +- e^(+-t) q^(j/2)) against their t = 0 normalizations, times one
hyperbolic prefactor; all transcendental prefactors are cancelled, so every
coefficient is an exact rational.  No product is multiplied out.  Each
factor's logarithm has a closed form, log(1 + x) = sum (-1)^(k+1) x^k / k,
so every coefficient of log A, log B1 and log B2 is a divisor sum
(`_divisor_sum_log`), plus one hyperbolic logarithm at q^0; one exp then
gives the quotient's coefficients.  B3 is B2 under the half-period shift
q^(1/2) -> -q^(1/2); L is sinh(t/2) times the exp of minus the q-part of log A.

The route exponentiates once per sector.  It substitutes the power sum s_m
of a root family for t^(2m) in a quotient's logarithm (`_bridged_log`),
sums the bridged logarithms of the quotients that a sector multiplies, and
takes one exp of the sum: two for the spin case (its B3 sector is the shift
of its B2 sector), one for spin_v, and one for spinc_l, times L at t = cL.

A t-power t^n stands for a degree-2n class (a power sum of squared roots, or
a power of the degree-2 class cL), and every integrand is cut at degree dim,
so the integrand quotients are expanded to t-cap dim // 2: no higher t-power
can reach the output.  The quotients are memoized with their logarithms per
(kind, t-cap, q-cap), so the cases that share a dimension build each once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import itemgetter

from .algebra import (
    GeneratorTable,
    GradedPoly,
    IntForm,
    _exp_form,
    _inverse_form,
    _nonnegative_int,
    _log_form,
    _render_terms,
    as_rational,
    power_sum_in_pontryagin,
)
from .qseries import RATIONALS, PolyRing, QHalfSeries, NonUnitError, _q_power, qseries_exp

# Keys of the empty generator table hold one digit below j2, the degree digit;
# a two-variable series keeps its t-power there.
_T_KEYS = GeneratorTable(())


class TwoVarSeries(IntForm):
    """Truncated series sum c * t^n * q^(j2/2) with exact rational coefficients.

    t-powers run up to tcap, doubled q-exponents up to 2*cap.  The value is
    an `algebra.IntForm` with `(n, j2, key, numerator)` items, the key
    n | j2 << bits laid out by `_T_KEYS.layout(tcap)` (bits =
    `_digit_bits(tcap)`).  The t-power is the kernels' grade (limit tcap)
    and j2 the side grade (limit 2*cap), so a term's weight is n + j2.
    Products, the inverse, the logarithm and the exp are the int-form
    kernels themselves.  `coeffs`, the (n, j2) -> Fraction map, is a view
    built on each access.  The logarithm is kept on the instance once
    computed, and an exp keeps its argument as its logarithm.
    """

    __slots__ = ("tcap", "cap", "_logarithm")
    _SHAPE = ("tcap", "cap")
    _KEPT = ("_logarithm",)

    def __init__(self, tcap: int, cap: int, coeffs=None):
        self.tcap = _nonnegative_int(tcap, "t-cap")
        self.cap = _nonnegative_int(cap, "q-cap")
        layout = self.layout
        shift = layout.sshift
        clean = {}
        if coeffs:
            for (n, j2), value in coeffs.items():
                n = int(n)
                j2 = int(j2)
                if n < 0 or j2 < 0:
                    raise ValueError("negative exponent")
                if n > tcap or j2 > 2 * cap:
                    continue
                value = as_rational(value)
                if value:
                    clean[n | j2 << shift] = value
        self.den, self.items = layout.rational_form(clean)
        self._logarithm = None

    @property
    def layout(self):
        return _T_KEYS.layout(self.tcap)

    @property
    def limits(self) -> tuple[int, int]:
        return self.tcap, 2 * self.cap

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        """(n, j2) -> nonzero Fraction, built from the ints on each access."""
        den = self.den
        return {(n, j2): Fraction(num, den) for n, j2, _, num in self.items}

    def coefficient(self, n: int, j2: int) -> Fraction:
        n, j2 = int(n), int(j2)
        items = self.items
        i = bisect_left(items, (n, j2))
        if i < len(items) and items[i][:2] == (n, j2):
            return Fraction(items[i][3], self.den)
        return Fraction(0)

    def _meet(self, other: "TwoVarSeries") -> tuple[int, int]:
        """The smaller caps."""
        return min(self.tcap, other.tcap), min(self.cap, other.cap)

    def inverse(self) -> "TwoVarSeries":
        """Multiplicative inverse, solved weight by weight (`algebra._inverse_form`)."""
        if not self.coefficient(0, 0):
            raise NonUnitError("cannot invert: zero constant coefficient")
        return self._kernel(_inverse_form)

    def log(self) -> "TwoVarSeries":
        """Logarithm of a series with constant coefficient 1 (`algebra._log_form`),
        computed once per instance."""
        if self._logarithm is None:
            if self.coefficient(0, 0) != 1:
                raise ValueError("log needs constant coefficient 1")
            self._logarithm = self._kernel(_log_form)
        return self._logarithm

    def exp(self) -> "TwoVarSeries":
        """exp of a series with zero constant coefficient (`algebra._exp_form`);
        the result keeps this series as its logarithm."""
        if self.coefficient(0, 0):
            raise ValueError("exp needs zero constant coefficient")
        result = self._kernel(_exp_form)
        result._logarithm = self
        return result

    def render(self) -> str:
        """Canonical text form: terms sorted by (q-power, t-power)."""
        pairs = []
        for n, j2, _, num in sorted(self.items, key=itemgetter(1, 0)):
            t_power = "" if n == 0 else "t" if n == 1 else f"t^{n}"
            pairs.append((Fraction(num, self.den), "*".join(filter(None, (t_power, _q_power(j2))))))
        return _render_terms(pairs)


# -- quotient construction ----------------------------------------------------


def _tv_half_sinh_ratio(tcap, cap) -> TwoVarSeries:
    """sinh(t/2)/(t/2)."""
    return TwoVarSeries(tcap, cap, {(2 * m, 0): Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(tcap // 2 + 1)})


def _tv_half_cosh(tcap, cap) -> TwoVarSeries:
    """cosh(t/2)."""
    return TwoVarSeries(tcap, cap, {(2 * m, 0): Fraction(1, 4 ** m * factorial(2 * m)) for m in range(tcap // 2 + 1)})


def _tv_half_sinh(tcap, cap) -> TwoVarSeries:
    """sinh(t/2)."""
    return TwoVarSeries(
        tcap, cap,
        {(2 * m + 1, 0): Fraction(1, 2 ** (2 * m + 1) * factorial(2 * m + 1)) for m in range((tcap + 1) // 2)},
    )


THETA_QUOTIENT_KINDS = ("A", "B1", "B2", "B3", "L")


def _divisor_sum_log(kind: str, tcap: int, cap: int) -> dict[tuple[int, int], Fraction]:
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


@lru_cache(maxsize=None)
def theta_quotient(kind: str, tcap: int, cap: int) -> TwoVarSeries:
    """One root factor of a theta quotient, normalized so its t=0 slice is 1.

    A  = [(t/2)/sinh(t/2)] prod (1-q^j)^2 / [(1-e^t q^j)(1-e^-t q^j)]
    B1 = cosh(t/2) prod (1+e^t q^j)(1+e^-t q^j) / (1+q^j)^2
    B2 = prod (1-e^t q^(j-1/2))(1-e^-t q^(j-1/2)) / (1-q^(j-1/2))^2
    B3 = B2 with the signs inside the half-power factors flipped to +
    L  = sinh(t/2) prod (1-e^t q^j)(1-e^-t q^j) / (1-q^j)^2

    A, B1 and B2 are built from their logarithms: the divisor sums of
    `_divisor_sum_log` plus, at q^0, log((t/2)/sinh(t/2)) for A and
    log cosh(t/2) for B1; one exp gives the coefficients and keeps the
    logarithm on the series.  B3 is the exp of the B2 logarithm under
    q^(1/2) -> -q^(1/2).  L is sinh(t/2) * exp(-(q-part of log A)).
    """
    if kind not in THETA_QUOTIENT_KINDS:
        raise ValueError(f"unknown theta quotient kind {kind!r}")
    _nonnegative_int(tcap, "t-cap")
    _nonnegative_int(cap, "q-cap")
    source = {"L": "A", "B3": "B2"}.get(kind, kind)
    log = TwoVarSeries(tcap, cap, _divisor_sum_log(source, tcap, cap))
    if kind == "L":
        return _tv_half_sinh(tcap, cap) * (-log).exp()
    if kind == "B3":
        log = log.tau_shift_half()
    elif kind == "A":
        log = log - _tv_half_sinh_ratio(tcap, cap).log()
    elif kind == "B1":
        log = log + _tv_half_cosh(tcap, cap).log()
    return log.exp()


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


# -- from quotients to q-series of characteristic forms ------------------------


def _t_substituted(series: TwoVarSeries, images: dict[int, GradedPoly], ring: PolyRing, cap: int) -> QHalfSeries:
    """sum c_{n,j2} t^n q^(j2/2) with t^n -> images[n], as a q-series over `ring` cut at `cap`.

    The images are polynomials at the ring's truncation; a t-power with no
    image is dropped.  The int numerators of c_{n,j2} times the items of
    images[n], at the j2 digit, add into one flat int form.
    """
    _nonnegative_int(cap, "q-cap")
    shift = ring.layout.sshift
    rows = [(images[n], j2 << shift, num) for n, j2, _, num in series.items if n in images and j2 <= 2 * cap]
    den = lcm(*[image.den for image, _, _ in rows])
    acc: dict = {}
    get = acc.get
    for image, j2_key, num in rows:
        scale = num * (den // image.den)
        for _, _, key, inum in image.items:
            key |= j2_key
            acc[key] = get(key, 0) + inum * scale
    return QHalfSeries._make(ring, cap, *ring.layout.int_form(acc, den * series.den))


def _bridged_log(
    quotient: TwoVarSeries,
    table: GeneratorTable,
    family: str,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """log prod_j Q(t_j, q) over a root family: log Q with t^(2m) -> s_m(family).

    The quotient must be even in t with t=0 slice equal to 1.
    """
    log = quotient.log()
    powers = {n for n, _, _, _ in log.items}
    if 0 in powers:
        raise ValueError("quotient is not normalized: log has a pure q term")
    if any(n % 2 for n in powers):
        raise ValueError("quotient is not even in t")
    images = {n: power_sum_in_pontryagin(table, family, n // 2, truncation) for n in powers if 2 * n <= truncation}
    return _t_substituted(log, images, PolyRing(table, truncation), cap)


def symmetric_quotient_product(
    quotient: TwoVarSeries,
    table: GeneratorTable,
    family: str,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """prod_j Q(t_j, q) over a root family, written in its generators: the
    exp of `_bridged_log`.  The quotient must be even in t with t=0 slice
    equal to 1.
    """
    return qseries_exp(_bridged_log(quotient, table, family, truncation, cap))


def line_quotient_evaluation(
    quotient: TwoVarSeries,
    table: GeneratorTable,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """Evaluate a quotient at t = cL, the degree-2 generator."""
    c = GradedPoly.generator(table, "cL", truncation)
    powers = [GradedPoly.one(table, truncation)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * c)
    return _t_substituted(quotient, dict(enumerate(powers)), PolyRing(table, truncation), cap)


def q_series_via_theta(
    table: GeneratorTable,
    case: str,
    dim: int,
    cap: int = 3,
) -> QHalfSeries:
    """The full integrand q-series assembled from theta quotients.

    spin     2^(dim/2) * prod A(t_j) * [prod B1(t_j) + prod B2(t_j) + prod B3(t_j)]
    spin_v   prod A(t_j) * prod B1(u_r) B2(u_r) B3(u_r)
    spinc_l  prod A(t_j) * L(cL)

    Each product of quotients over root families is one exp of the sum of
    their bridged logarithms (`_bridged_log`).  B3 is B2 under
    q^(1/2) -> -q^(1/2), which leaves A fixed, so the third spin sector and
    spin_v's B3 logarithm are shifts: two exps for spin, one for spin_v, and
    one times the evaluation of L for spinc_l.  The quotients are expanded
    to t-cap dim // 2: t^n becomes a degree-2n class, and the integrand is
    cut at degree dim.
    """
    tcap = dim // 2

    def bridged(kind, family):
        return _bridged_log(theta_quotient(kind, tcap, cap), table, family, dim, cap)

    if case == "spin":
        log_a = bridged("A", "pX")
        e1 = qseries_exp(log_a + bridged("B1", "pX"))
        e2 = qseries_exp(log_a + bridged("B2", "pX"))
        return (e1 + e2 + e2.tau_shift_half()).scale(2 ** (dim // 2))
    if case == "spin_v":
        b2 = bridged("B2", "pV")
        return qseries_exp(bridged("A", "pX") + bridged("B1", "pV") + b2 + b2.tau_shift_half())
    if case == "spinc_l":
        return qseries_exp(bridged("A", "pX")) * line_quotient_evaluation(theta_quotient("L", tcap, cap), table, dim, cap)
    raise ValueError(f"unknown case {case!r}")
