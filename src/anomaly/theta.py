"""Bivariate truncated series in t and sqrt(q), and the theta-quotient route.

The five quotients A, B1, B2, B3, L are infinite products of factors
(1 +- e^(+-t) q^(j/2)) against their t = 0 normalizations, times one
hyperbolic prefactor; all transcendental prefactors are cancelled, so every
coefficient is an exact rational.  No product is multiplied out.  Each
factor's logarithm has a closed form, log(1 + x) = sum (-1)^(k+1) x^k / k,
so every coefficient of log A, log B1 and log B2 is a divisor sum
(`_divisor_sum_log`), plus at q^0 the logarithm of the hyperbolic
prefactor, a Bernoulli sum (`_hyperbolic_log`): log A is
sum_m (2/(2m)!) G_2m(q) t^(2m) with the Eisenstein series
G_2m = -B_2m/(4m) + sum_n sigma_(2m-1)(n) q^n (D. Zagier, "Note on the
Landweber-Stong elliptic genus", LNM 1326).  One exp then gives the
quotient's coefficients.  B3 is B2 under the half-period shift
q^(1/2) -> -q^(1/2); L is (t/2)/A, t/2 times the exp of minus log A.  The
route's only series kernel is `algebra._exp_form`, the package's one: no
logarithm or inverse is taken of a series.  The bundle route's genera take
their logarithms from the factorial series by a one-variable recurrence of
their own (`anomaly.genera`), so the two routes share no log.

The route reads its recipe as data: the `theta_sectors` of a family row in
`anomaly.verifier`, names only.  The integrand is a scale times a sum of
sectors, and each sector multiplies quotients over root families, each
named by a (quotient kind, root family) pair.  The route substitutes the
power sum s_m of a root family for t^(2m) in a quotient's logarithm
(`_bridged_log`), sums the bridged logarithms of a sector's quotients, and
takes one exp of the sum.  B3's bridged logarithm is B2's under the
half-period shift, so no B3 quotient is built; L = (t/2)/A adds minus A's
logarithm at t = cL, and cL/2 scales the exp, so no L quotient is built
either.  A sector marked for it adds its own half-period shift.  So a sector
is one exp times a monomial: the spin case takes two exps (its B3 sector is
the shift of its B2 sector), spin_v one, and spinc_l one times cL/2.

A t-power t^n stands for a degree-2n class (a power sum of squared roots, or
a power of the degree-2 class cL), and every integrand is cut at degree dim,
so the integrand quotients are expanded to t-cap dim // 2: no higher t-power
can reach the output.  The quotients are memoized with their logarithms per
(kind, t-cap, q-cap), so the cases that share a dimension build each once.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm
from operator import add, itemgetter

from .algebra import (
    GeneratorTable,
    GradedPoly,
    IntForm,
    _exp_form,
    _integer,
    _nonnegative_int,
    _render_terms,
    as_rational,
    power_sum_in_pontryagin,
)
from .qseries import RATIONALS, PolyRing, QHalfSeries, _q_power, qseries_exp

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
    Products and the exp are the int-form kernels themselves.  `coeffs`,
    the (n, j2) -> Fraction map, is a view built on each access.  An exp
    keeps its argument as its logarithm, and `log` reads it back: the
    quotients are built from closed-form logarithms, so no series takes a
    logarithm of its coefficients.
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
                n, j2 = _integer(n, "t-exponents"), _integer(j2, "q-exponents")
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
        n, j2 = _integer(n, "t-exponents"), _integer(j2, "q-exponents")
        items = self.items
        i = bisect_left(items, (n, j2))
        if i < len(items) and items[i][:2] == (n, j2):
            return Fraction(items[i][3], self.den)
        return Fraction(0)

    def _meet(self, other: "TwoVarSeries") -> tuple[int, int]:
        """The smaller caps."""
        return min(self.tcap, other.tcap), min(self.cap, other.cap)

    def log(self) -> "TwoVarSeries":
        """The logarithm this series keeps: an `exp` result keeps its argument.
        A series that keeps none is a ValueError."""
        if self._logarithm is None:
            raise ValueError("only an exp result keeps its logarithm")
        return self._logarithm

    def exp(self) -> "TwoVarSeries":
        """exp of a series with zero constant coefficient (`algebra._exp_form`):
        the exp of the q^0 slice in t, then one whole t-series per half-power
        of q.  The result keeps this series as its logarithm."""
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


THETA_QUOTIENT_KINDS = ("A", "B1", "B2", "B3", "L")


@lru_cache(maxsize=None, typed=True)
def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2), from B_0 = 1 and sum_{k <= n} C(n + 1, k) B_k = 0."""
    return Fraction(1) if n == 0 else -sum(comb(n + 1, k) * _bernoulli(k) for k in range(n)) / (n + 1)


def _hyperbolic_log(kind: str, tcap: int) -> dict[tuple[int, int], Fraction]:
    """The q^0 part of log Q, in closed form: for A and B1 a Bernoulli sum,

    A   log((t/2)/sinh(t/2)) = -sum_m B_2m t^(2m) / (2m (2m)!)
    B1  log cosh(t/2)        =  sum_m (4^m - 1) B_2m t^(2m) / (2m (2m)!)

    and none for B2 and B3.
    """
    if kind not in ("A", "B1"):
        return {}
    return {
        (2 * m, 0): (-1 if kind == "A" else 4 ** m - 1) * _bernoulli(2 * m) / (2 * m * factorial(2 * m))
        for m in range(1, tcap // 2 + 1)
    }


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


@lru_cache(maxsize=None, typed=True)
def theta_quotient(kind: str, tcap: int, cap: int) -> TwoVarSeries:
    """One root factor of a theta quotient, normalized so its t=0 slice is 1.

    A  = [(t/2)/sinh(t/2)] prod (1-q^j)^2 / [(1-e^t q^j)(1-e^-t q^j)]
    B1 = cosh(t/2) prod (1+e^t q^j)(1+e^-t q^j) / (1+q^j)^2
    B2 = prod (1-e^t q^(j-1/2))(1-e^-t q^(j-1/2)) / (1-q^(j-1/2))^2
    B3 = B2 with the signs inside the half-power factors flipped to +
    L  = sinh(t/2) prod (1-e^t q^j)(1-e^-t q^j) / (1-q^j)^2

    A, B1 and B2 are the exps of their closed-form logarithms: the divisor
    sums of `_divisor_sum_log` plus the Bernoulli sums of `_hyperbolic_log`
    at q^0.  Each exp keeps its logarithm on the series.  B3 is the exp of
    the B2 logarithm under q^(1/2) -> -q^(1/2).  L = (t/2)/A is
    (t/2) * exp(-log A); the product with t/2 keeps no logarithm.
    """
    if kind not in THETA_QUOTIENT_KINDS:
        raise ValueError(f"unknown theta quotient kind {kind!r}")
    _nonnegative_int(tcap, "t-cap")
    _nonnegative_int(cap, "q-cap")
    source = {"L": "A", "B3": "B2"}.get(kind, kind)
    log = TwoVarSeries(tcap, cap, _divisor_sum_log(source, tcap, cap) | _hyperbolic_log(source, tcap))
    if kind == "L":
        return TwoVarSeries(tcap, cap, {(1, 0): Fraction(1, 2)}) * (-log).exp()
    return (log.tau_shift_half() if kind == "B3" else log).exp()


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
    images[n], at the j2 digit, add into one flat int form.  t^n stands for
    a degree-2n class, so the series must reach t-cap truncation // 2 and
    q-cap `cap`: one cut lower would drop terms that the result claims, a
    ValueError.
    """
    _nonnegative_int(cap, "q-cap")
    if series.tcap < ring.truncation // 2 or series.cap < cap:
        raise ValueError(
            f"a quotient cut at t-cap {series.tcap} and q-cap {series.cap} cannot give degree "
            f"{ring.truncation} through q^{cap}: that needs t-cap {ring.truncation // 2} and q-cap {cap}"
        )
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
    generator: str = "cL",
) -> QHalfSeries:
    """Evaluate a quotient, or a quotient's logarithm, at t = a degree-2 generator, cL unless named."""
    c = GradedPoly.generator(table, generator, truncation)
    powers = [GradedPoly.one(table, truncation)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * c)
    return _t_substituted(quotient, dict(enumerate(powers)), PolyRing(table, truncation), cap)


def q_series_via_theta(table: GeneratorTable, sectors: tuple, scale: int, dim: int, cap: int = 3) -> QHalfSeries:
    """The full integrand q-series assembled from theta quotients: `scale`
    times the sum of the `sectors`.

    Each sector is a pair (factors, shifted).  The factors are (quotient
    kind, root family) pairs, and the sector is the product of the named
    quotients over their root families: one exp of the sum of their bridged
    logarithms (`_bridged_log`).  B3 is B2 under q^(1/2) -> -q^(1/2), so a
    B3 factor adds B2's bridged logarithm under that shift.  L = (t/2)/A, so
    an L factor, named with a degree-2 generator c, adds minus A's
    logarithm at t = c (`line_quotient_evaluation`) and scales the exp by
    c/2.  A shifted sector adds its own shift, which leaves A fixed and
    turns B2 into B3.  The spin integrand, for one,

    2^(dim/2) * prod A(t_j) * [prod B1(t_j) + prod B2(t_j) + prod B3(t_j)]

    is scale 2^(dim/2), the sector (A, B1) and the shifted sector (A, B2),
    all over pX; the spinc_l one, prod A(t_j) * L(cL), is the one sector
    (A over pX, L at cL).  An unknown quotient kind is a ValueError.  Each
    distinct bridged logarithm is built once.  The quotients are expanded to
    t-cap dim // 2: t^n becomes a degree-2n class, and the integrand is cut
    at degree dim.
    """
    @lru_cache(maxsize=None, typed=True)
    def bridged(kind, family):
        return _bridged_log(theta_quotient(kind, dim // 2, cap), table, family, dim, cap)

    # B3's logarithm is B2's, shifted, and L's, less log(t/2), is minus A's at t = the named
    # class.  They are read here, not inside `bridged`: a memoized function that calls itself
    # is a reference cycle, which outlives the call while the CLI runs with the collector off.
    def log(kind, family):
        if kind == "L":
            return -line_quotient_evaluation(theta_quotient("A", dim // 2, cap).log(), table, dim, cap, family)
        return bridged("B2", family).tau_shift_half() if kind == "B3" else bridged(kind, family)

    exponents = [reduce(add, [log(kind, family) for kind, family in factors]) for factors, _ in sectors]
    bridged.cache_clear()  # the exps read only the sector sums: the memo's logs are not kept through them

    def sector(exponent, factors, shifted):
        product = qseries_exp(exponent)
        for kind, family in factors:
            if kind == "L":
                product = product.scale(GradedPoly.generator(table, family, dim) / 2)
        return product + product.tau_shift_half() if shifted else product

    integrand = reduce(add, [sector(exponents.pop(0), *entry) for entry in sectors])  # each exp frees its sum
    return integrand if scale == 1 else integrand * scale
