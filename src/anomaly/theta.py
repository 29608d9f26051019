"""Bivariate truncated series in t and sqrt(q), and the theta-quotient route.

The five quotients A, B1, B2, B3, L are infinite products of factors
(1 +- e^(+-t) q^(j/2)) against their t = 0 normalizations, times one
hyperbolic prefactor; all transcendental prefactors are cancelled, so every
coefficient is an exact rational.  A quotient is turned into a q-series of
characteristic forms by taking its logarithm and substituting power sums for
the even t-powers, one root family at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import GeneratorTable, GradedPoly, _inverse, _log, _multiply, power_sum_in_pontryagin
from .qseries import RATIONALS, PolyRing, QHalfSeries, NonUnitError, qseries_exp


def _tv_grade(key: tuple[int, int]) -> tuple[int, int]:
    """`_convolve` grades of t^n q^(j2/2): the doubled q-exponent, then n."""
    return key[1], key[0]


class TwoVarSeries:
    """Truncated series sum c * t^n * q^(j2/2) with Fraction coefficients.

    t-powers run up to tcap, doubled q-exponents up to 2*cap.  Instances are
    treated as immutable.

    As with GradedPoly, the public constructor validates its input and
    arithmetic results go through `_make`, which trusts that no coefficient
    is zero and no term lies past either cap.  Products, the inverse and the
    logarithm run on the integer-numerator kernel of `algebra` (`_multiply`,
    `_inverse` and `_log`), graded by the doubled q-exponent with the t-power
    as side grade.
    """

    __slots__ = ("tcap", "cap", "coeffs")

    def __init__(self, tcap: int, cap: int, coeffs=None):
        self.tcap = int(tcap)
        self.cap = int(cap)
        if self.tcap < 0 or self.cap < 0:
            raise ValueError("caps must be nonnegative")
        clean = {}
        if coeffs:
            for (n, j2), value in coeffs.items():
                n = int(n)
                j2 = int(j2)
                if n < 0 or j2 < 0:
                    raise ValueError("negative exponent")
                if n > self.tcap or j2 > 2 * self.cap:
                    continue
                value = Fraction(value)
                if value:
                    clean[(n, j2)] = value
        self.coeffs = clean

    @classmethod
    def _make(cls, tcap: int, cap: int, coeffs: dict[tuple[int, int], Fraction]) -> "TwoVarSeries":
        """Trusted constructor for arithmetic results; checks nothing.

        The caller guarantees nonnegative int caps, nonzero Fraction
        coefficients and no key (n, j2) with n > tcap or j2 > 2*cap.
        `coeffs` is stored, not copied.
        """
        series = object.__new__(cls)
        series.tcap = tcap
        series.cap = cap
        series.coeffs = coeffs
        return series

    @classmethod
    def zero(cls, tcap, cap):
        return cls(tcap, cap)

    @classmethod
    def one(cls, tcap, cap):
        return cls(tcap, cap, {(0, 0): Fraction(1)})

    def coefficient(self, n: int, j2: int) -> Fraction:
        return self.coeffs.get((int(n), int(j2)), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, TwoVarSeries)
            and self.tcap == other.tcap
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        tcap = min(self.tcap, other.tcap)
        cap = min(self.cap, other.cap)
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            coeffs[key] = coeffs[key] + value if key in coeffs else value
        kept = {(n, j2): c for (n, j2), c in coeffs.items() if c and n <= tcap and j2 <= 2 * cap}
        return TwoVarSeries._make(tcap, cap, kept)

    def __neg__(self):
        return TwoVarSeries._make(self.tcap, self.cap, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            coeffs = {k: other * v for k, v in self.coeffs.items()} if other else {}
            return TwoVarSeries._make(self.tcap, self.cap, coeffs)
        tcap = min(self.tcap, other.tcap)
        cap = min(self.cap, other.cap)
        return TwoVarSeries._make(tcap, cap, _multiply(self.coeffs, other.coeffs, _tv_grade, 2 * cap, tcap))

    __rmul__ = __mul__

    def inverse(self) -> "TwoVarSeries":
        """Multiplicative inverse, solved weight by weight (`algebra._inverse`)."""
        if not self.coeffs.get((0, 0)):
            raise NonUnitError("cannot invert: zero constant coefficient")
        coeffs = _inverse(self.coeffs, (0, 0), _tv_grade, 2 * self.cap, self.tcap)
        return TwoVarSeries._make(self.tcap, self.cap, coeffs)

    def log(self) -> "TwoVarSeries":
        """Logarithm of a series with constant coefficient 1 (`algebra._log`)."""
        if self.coeffs.get((0, 0)) != 1:
            raise ValueError("log needs constant coefficient 1")
        coeffs = _log(self.coeffs, (0, 0), _tv_grade, 2 * self.cap, self.tcap)
        return TwoVarSeries._make(self.tcap, self.cap, coeffs)

    def tau_shift_half(self) -> "TwoVarSeries":
        """q^(1/2) -> -q^(1/2): negates odd doubled q-exponents."""
        return TwoVarSeries._make(self.tcap, self.cap, {(n, j2): (-c if j2 % 2 else c) for (n, j2), c in self.coeffs.items()})

    def t_parities(self) -> set[int]:
        return {n % 2 for (n, _), _ in self.coeffs.items()}

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (n, j2) in sorted(self.coeffs, key=lambda k: (k[1], k[0])):
            value = self.coeffs[(n, j2)]
            factors = []
            if n == 1:
                factors.append("t")
            elif n > 1:
                factors.append(f"t^{n}")
            if j2 == 2:
                factors.append("q")
            elif j2 and j2 % 2 == 0:
                factors.append(f"q^{j2 // 2}")
            elif j2:
                factors.append(f"q^({j2}/2)")
            mono = "*".join(factors)
            mag = abs(value)
            body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
            if not parts:
                parts.append(body if value > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if value > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"TwoVarSeries({self.render()})"


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


def _tv_exp_factor(eps: int, sign: int, j2: int, tcap, cap) -> TwoVarSeries:
    """1 + eps * e^(sign*t) * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        for n in range(tcap + 1):
            coeffs[(n, j2)] = Fraction(eps * sign ** n, factorial(n))
    return TwoVarSeries(tcap, cap, coeffs)


def _tv_q_factor(eps: int, j2: int, tcap, cap) -> TwoVarSeries:
    """1 + eps * q^(j2/2)."""
    coeffs = {(0, 0): Fraction(1)}
    if j2 <= 2 * cap:
        coeffs[(0, j2)] = coeffs.get((0, j2), Fraction(0)) + eps
    return TwoVarSeries(tcap, cap, coeffs)


THETA_QUOTIENT_KINDS = ("A", "B1", "B2", "B3", "L")


@lru_cache(maxsize=None)
def theta_quotient(kind: str, tcap: int, cap: int) -> TwoVarSeries:
    """One root factor of a theta quotient, normalized so its t=0 slice is 1.

    A  = [(t/2)/sinh(t/2)] prod (1-q^j)^2 / [(1-e^t q^j)(1-e^-t q^j)]
    B1 = cosh(t/2) prod (1+e^t q^j)(1+e^-t q^j) / (1+q^j)^2
    B2 = prod (1-e^t q^(j-1/2))(1-e^-t q^(j-1/2)) / (1-q^(j-1/2))^2
    B3 = B2 with the signs inside the half-power factors flipped to +
    L  = sinh(t/2) prod (1-e^t q^j)(1-e^-t q^j) / (1-q^j)^2
    """
    if kind not in THETA_QUOTIENT_KINDS:
        raise ValueError(f"unknown theta quotient kind {kind!r}")
    num = TwoVarSeries.one(tcap, cap)
    den = TwoVarSeries.one(tcap, cap)
    if kind == "A":
        den = _tv_half_sinh_ratio(tcap, cap)
        for j in range(1, cap + 1):
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            num = num * f * f
            den = den * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
    elif kind == "B1":
        num = _tv_half_cosh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * _tv_exp_factor(+1, +1, 2 * j, tcap, cap) * _tv_exp_factor(+1, -1, 2 * j, tcap, cap)
            f = _tv_q_factor(+1, 2 * j, tcap, cap)
            den = den * f * f
    elif kind in ("B2", "B3"):
        eps = -1 if kind == "B2" else +1
        j2 = 1
        while j2 <= 2 * cap:
            num = num * _tv_exp_factor(eps, +1, j2, tcap, cap) * _tv_exp_factor(eps, -1, j2, tcap, cap)
            f = _tv_q_factor(eps, j2, tcap, cap)
            den = den * f * f
            j2 += 2
    else:  # L
        num = _tv_half_sinh(tcap, cap)
        for j in range(1, cap + 1):
            num = num * _tv_exp_factor(-1, +1, 2 * j, tcap, cap) * _tv_exp_factor(-1, -1, 2 * j, tcap, cap)
            f = _tv_q_factor(-1, 2 * j, tcap, cap)
            den = den * f * f
    return num * den.inverse()


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


def symmetric_quotient_product(
    quotient: TwoVarSeries,
    table: GeneratorTable,
    family: str,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """prod_j Q(t_j, q) over a root family, written in its generators.

    Takes log Q = sum a_{m,j} t^(2m) q^(j/2), replaces t^(2m) by the power sum
    s_{2m}(family) and exponentiates.  The quotient must be even in t with
    t=0 slice equal to 1.
    """
    lg = quotient.log()
    ring = PolyRing(table, truncation)
    exponent: dict[int, GradedPoly] = {}
    power_sums: dict[int, GradedPoly] = {}
    for (n, j2), value in lg.coeffs.items():
        if n == 0:
            raise ValueError("quotient is not normalized: log has a pure q term")
        if n % 2:
            raise ValueError("quotient is not even in t")
        m = n // 2
        if 4 * m > truncation:
            continue
        if m not in power_sums:
            power_sums[m] = power_sum_in_pontryagin(table, family, m, truncation)
        s = power_sums[m] * value
        exponent[j2] = exponent[j2] + s if j2 in exponent else s
    return qseries_exp(QHalfSeries(ring, cap, exponent))


def line_quotient_evaluation(
    quotient: TwoVarSeries,
    table: GeneratorTable,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """Evaluate a quotient at t = cL, the degree-2 generator."""
    ring = PolyRing(table, truncation)
    c = GradedPoly.generator(table, "cL", truncation)
    powers = [GradedPoly.one(table, truncation)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * c)
    out: dict[int, GradedPoly] = {}
    for (n, j2), value in quotient.coeffs.items():
        if n >= len(powers) or powers[n].is_zero():
            continue
        term = powers[n] * value
        out[j2] = out[j2] + term if j2 in out else term
    return QHalfSeries(ring, cap, out)


def q_series_via_theta(
    table: GeneratorTable,
    case: str,
    dim: int,
    cap: int = 3,
    tcap: int | None = None,
) -> QHalfSeries:
    """The full integrand q-series assembled from theta quotients.

    spin     2^(dim/2) * prod A(t_j) * [prod B1(t_j) + prod B2(t_j) + prod B3(t_j)]
    spin_v   prod A(t_j) * prod B1(u_r) B2(u_r) B3(u_r)
    spinc_l  prod A(t_j) * L(cL)
    """
    if tcap is None:
        tcap = dim + 2
    EA = symmetric_quotient_product(theta_quotient("A", tcap, cap), table, "pX", dim, cap)
    if case == "spin":
        parts = [
            symmetric_quotient_product(theta_quotient(kind, tcap, cap), table, "pX", dim, cap)
            for kind in ("B1", "B2", "B3")
        ]
        return (EA * (parts[0] + parts[1] + parts[2])).scale(2 ** (dim // 2))
    if case == "spin_v":
        out = EA
        for kind in ("B1", "B2", "B3"):
            out = out * symmetric_quotient_product(theta_quotient(kind, tcap, cap), table, "pV", dim, cap)
        return out
    if case == "spinc_l":
        return EA * line_quotient_evaluation(theta_quotient("L", tcap, cap), table, dim, cap)
    raise ValueError(f"unknown case {case!r}")
