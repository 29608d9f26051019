"""The theta-quotient route: the quotients' logarithms as q-series in one generator t.

The five quotients A, B1, B2, B3, L are infinite products of factors
(1 +- e^(+-t) q^(j/2)) against their t = 0 normalizations, times one
hyperbolic prefactor; all transcendental prefactors are cancelled, so every
coefficient is an exact rational.  No product is multiplied out.  The route
writes one closed form, A's logarithm (`_log_a`),

    log A = sum_m (2/(2m)!) G_2m(q) t^(2m),
    G_2m = -B_2m/(4m) + sum_n sigma_(2m-1)(n) q^n,

the Eisenstein series of D. Zagier, "Note on the Landweber-Stong elliptic
genus" (LNM 1326): a Bernoulli sum at q^0, the logarithm of (t/2)/sinh(t/2),
and a divisor sum at each q^n.  B1 and B2 are A over A at a rescaled
argument,

    B1(t, q) = A(t, q) / A(2t, q^2),    B2(t, q) = A(t, q) / A(t, q^(1/2)),

so B1 B2 B3 = A(t)/A(2t), Jacobi's duplication formula (Whittaker-Watson,
*A Course of Modern Analysis*, ch. 21).  Their logarithms are A's less A's
under a rewrite of its int form (`_RESCALINGS`, `_quotient_log`): t -> 2t
multiplies the t^n numerator by 2^n, q -> q^2 doubles the doubled
q-exponent j2, and q -> q^(1/2) halves it, so B2 reads A's logarithm
through q^(2 cap).  B3's logarithm is B2's under the half-period shift
q^(1/2) -> -q^(1/2).  The route reads only these logarithms
(`theta_quotient`): no quotient's coefficients are built on it, and no
logarithm or inverse is taken of a series.  Only `quotient_series`, which
the `expand` command prints (`render_quotient`), exponentiates them, with
L = (t/2)/A as t/2 times the exp of minus log A, each one `qseries_exp`
call.  The bundle route's genera take their logarithms from the
factorial series by a one-variable recurrence of their own
(`anomaly.genera`), and `qseries` sums its own divisor powers for the
Eisenstein basis, so the two routes share no log and no sigma.

The route reads its recipe as data: the `theta_sectors` of a family row in
`anomaly.verifier`, names only.  The integrand is a scale times a sum of
sectors, and each sector multiplies quotients over root families, each
named by a (quotient kind, root family) pair.  The route substitutes the
power sum s_m of a root family for t^(2m) in a quotient's logarithm
(`_bridged_log`), sums the bridged logarithms of a sector's quotients, and
takes one exp of the sum, a q-series exp (`qseries.qseries_exp`).  L =
(t/2)/A adds minus A's logarithm at t = cL, and cL/2 scales the exp.  A
sector marked for it adds its own half-period shift.  So a sector is one exp
times a monomial: the spin case takes two exps (its B3 sector is the shift
of its B2 sector), spin_v one, and spinc_l one times cL/2.

A quotient and its logarithm are `qseries.QHalfSeries` over the
one-generator table `_T`, whose t has degree 2: t^n sits at degree 2n, the
degree of the class it stands for (a power sum of squared roots, or a power
of the degree-2 class cL), and the t-power is read off the degree digit,
n = g // 2.  A series cut at t-cap tcap is over `PolyRing(_T, 2 * tcap)`, so
its products and its exp are the q-series kernels themselves.  Every
integrand is cut at degree dim, so the quotients' logarithms are cut at
t-cap dim // 2: no higher t-power can reach the output.  The logarithms
are memoized per (kind, t-cap, q-cap), and A's per (t-cap, q-cap), so the
cases that share a dimension build each once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm
from operator import add, itemgetter

from .algebra import (
    GeneratorTable,
    GradedPoly,
    _int_form,
    _nonnegative_int,
    _render_terms,
    _summed_images,
    power_sum_in_pontryagin,
)
from .qseries import PolyRing, QHalfSeries, _q_power, qseries_exp

# The quotients' one generator: t^n sits at degree 2n, so t-cap tcap is truncation 2 * tcap.
_T = GeneratorTable((("t", 2),))


def render_quotient(series: QHalfSeries) -> str:
    """A series over `_T` as text, terms sorted by (q-power, t-power): "1 - 1/24*t^2 + ..."."""
    monomial, unpack = _T.monomial_string, series.layout.unpack
    pairs = []
    for _, j2, key, num in sorted(series.items, key=itemgetter(1, 0)):
        pairs.append((Fraction(num, series.den), "*".join(filter(None, (monomial(unpack(key)), _q_power(j2))))))
    return _render_terms(pairs)


# -- quotient construction ----------------------------------------------------


THETA_QUOTIENT_KINDS = ("A", "B1", "B2", "B3", "L")


@lru_cache(maxsize=None, typed=True)
def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2), from B_0 = 1 and sum_{k <= n} C(n + 1, k) B_k = 0."""
    return Fraction(1) if n == 0 else -sum(comb(n + 1, k) * _bernoulli(k) for k in range(n)) / (n + 1)


@lru_cache(maxsize=None, typed=True)
def _log_a(tcap: int, cap: int) -> QHalfSeries:
    """log A through t^tcap and q^cap, in closed form: sum_m (2/(2m)!) G_2m(q) t^(2m).

    At q^0 it is the Bernoulli sum log((t/2)/sinh(t/2)) =
    -sum_m B_2m t^(2m) / (2m (2m)!).  A factor pair
    (1 - e^t q^n)(1 - e^-t q^n) / (1 - q^n)^2 in A's denominator has the
    logarithm -sum_k q^(nk) (2 cosh(kt) - 2) / k, whose t^(2m) coefficient
    is -2 k^(2m-1) / (2m)! at q^(nk); so the t^(2m) q^n coefficient of
    log A is 2 sigma_(2m-1)(n) / (2m)!.  The int form is written over the
    lcm of the Bernoulli denominators and (2 top)!.
    """
    top = tcap // 2
    bernoulli = [-_bernoulli(2 * m) / (2 * m * factorial(2 * m)) for m in range(1, top + 1)]
    den = lcm(factorial(2 * top), *[c.denominator for c in bernoulli])
    ring = PolyRing(_T, 2 * tcap)
    layout = ring.layout
    acc = {}
    for m, c in enumerate(bernoulli, 1):
        key = layout.pack((2 * m,))
        acc[key] = c.numerator * (den // c.denominator)
        unit = 2 * den // factorial(2 * m)
        for n in range(1, cap + 1):
            acc[key | 2 * n << layout.sshift] = unit * sum(d ** (2 * m - 1) for d in range(1, n + 1) if n % d == 0)
    return QHalfSeries._make(ring, cap, *layout.int_form(acc, den))


# log Q(t, q) = log A(t, q) less log A(scale * t, q^(up/down)) for each (scale, up, down) of Q.
_RESCALINGS = {"A": (), "B1": ((2, 2, 1),), "B2": ((1, 1, 2),)}


def _quotient_log(kind: str, tcap: int, cap: int) -> QHalfSeries:
    """log Q for Q = A, B1 or B2: A's logarithm less its rescalings in `_RESCALINGS`.

    A rescaling rewrites the int form of A's logarithm: t -> scale * t
    multiplies the numerator of t^n, degree g = 2n, by scale^n, and
    q -> q^(up/down) moves j2 to j2 * up / down (A's j2 are even); a key
    keeps its low digits, the t exponent and the degree, under the new j2.
    A rescaled term at q^cap comes from A's logarithm at q^(down * cap / up),
    so A's is read through q^(down * cap).
    """
    log = _log_a(tcap, cap)
    shift = log.layout.sshift
    low = (1 << shift) - 1
    for scale, up, down in _RESCALINGS[kind]:
        source = _log_a(tcap, down * cap)
        items = []
        for g, j2, key, num in source.items:
            j2 = j2 * up // down
            if j2 <= 2 * cap:
                items.append((g, j2, key & low | j2 << shift, num * scale ** (g // 2)))
        log = log - QHalfSeries._make(log.ring, cap, *_int_form(source.den, items))
    return log


@lru_cache(maxsize=None, typed=True)
def theta_quotient(kind: str, tcap: int, cap: int) -> QHalfSeries:
    """The logarithm of one root factor Q of a theta quotient, Q = A, B1, B2 or B3,
    as a q-series over `_T` cut at degree 2 * tcap and q^cap.

    A  = [(t/2)/sinh(t/2)] prod (1-q^j)^2 / [(1-e^t q^j)(1-e^-t q^j)]
    B1 = cosh(t/2) prod (1+e^t q^j)(1+e^-t q^j) / (1+q^j)^2
    B2 = prod (1-e^t q^(j-1/2))(1-e^-t q^(j-1/2)) / (1-q^(j-1/2))^2
    B3 = B2 with the signs inside the half-power factors flipped to +

    Each is normalized so its t=0 slice is 1, so its logarithm has no pure
    q term.  A's is the one closed form (`_log_a`); B1's and B2's are A's
    less A's at a rescaled argument (`_quotient_log`): log B1(t, q) =
    log A(t, q) - log A(2t, q^2) and log B2(t, q) = log A(t, q) -
    log A(t, q^(1/2)).  B3's is B2's under q^(1/2) -> -q^(1/2).  L =
    (t/2)/A has no logarithm in powers of t, a ValueError; its
    coefficients, like the others', come from `quotient_series`.
    """
    if kind == "L":
        raise ValueError("log L is not a power series in t: L = (t/2)/A is expanded by quotient_series")
    if kind not in THETA_QUOTIENT_KINDS:
        raise ValueError(f"unknown theta quotient kind {kind!r}")
    _nonnegative_int(tcap, "t-cap")
    _nonnegative_int(cap, "q-cap")
    if kind == "B3":
        return theta_quotient("B2", tcap, cap).tau_shift_half()
    return _quotient_log(kind, tcap, cap)


def quotient_series(kind: str, tcap: int, cap: int) -> QHalfSeries:
    """The coefficients of one root factor of a theta quotient, A, B1, B2, B3 or L.

    A, B1, B2 and B3 are the exps of their logarithms (`theta_quotient`);
    L = sinh(t/2) prod (1-e^t q^j)(1-e^-t q^j) / (1-q^j)^2 = (t/2)/A is
    (t/2) * exp(-log A).
    """
    if kind == "L":
        return qseries_exp(-theta_quotient("A", tcap, cap)).scale(GradedPoly.generator(_T, "t", 2 * tcap) / 2)
    return qseries_exp(theta_quotient(kind, tcap, cap))


# -- from quotients to q-series of characteristic forms ------------------------


def _t_substituted(series: QHalfSeries, images: dict[int, GradedPoly], ring: PolyRing, cap: int) -> QHalfSeries:
    """sum c_{n,j2} t^n q^(j2/2) over `_T` with t^n -> images[n], as a q-series over `ring` cut at `cap`.

    The images are polynomials at the ring's truncation; a t-power with no
    image is dropped.  t^n sits at degree g = 2n.  The int numerators of
    c_{n,j2} times images[n], at the j2 digit, add into one flat int form
    (`algebra._summed_images`).  t^n stands for a degree-2n class, so the
    series must reach the ring's truncation and q-cap `cap`: one cut lower
    would drop terms that the result claims, a ValueError.
    """
    _nonnegative_int(cap, "q-cap")
    if series.ring.truncation < ring.truncation or series.cap < cap:
        raise ValueError(
            f"a quotient cut at t-cap {series.ring.truncation // 2} and q-cap {series.cap} cannot give degree "
            f"{ring.truncation} through q^{cap}: that needs t-cap {ring.truncation // 2} and q-cap {cap}"
        )
    shift = ring.layout.sshift
    rows = [(images[g // 2], j2 << shift, num) for g, j2, _, num in series.items if g // 2 in images and j2 <= 2 * cap]
    return QHalfSeries._make(ring, cap, *_summed_images(series.den, rows, ring.layout))


def _bridged_log(
    log: QHalfSeries,
    table: GeneratorTable,
    family: str,
    truncation: int,
    cap: int,
) -> QHalfSeries:
    """log prod_j Q(t_j, q) over a root family: `log`, log Q, with t^(2m) -> s_m(family).

    The logarithm must be even in t with no pure q term, as the logarithm of
    a quotient with t=0 slice equal to 1 is.
    """
    powers = {g // 2 for g, _, _, _ in log.items}
    if 0 in powers:
        raise ValueError("quotient is not normalized: log has a pure q term")
    if any(n % 2 for n in powers):
        raise ValueError("quotient is not even in t")
    images = {n: power_sum_in_pontryagin(table, family, n // 2, truncation) for n in powers if 2 * n <= truncation}
    return _t_substituted(log, images, PolyRing(table, truncation), cap)


def line_quotient_evaluation(
    quotient: QHalfSeries,
    table: GeneratorTable,
    truncation: int,
    cap: int,
    generator: str = "cL",
) -> QHalfSeries:
    """Evaluate a quotient, or a quotient's logarithm, over `_T` at t = a degree-2 generator, cL unless named."""
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
    quotients over their root families: one exp of the sum of their
    logarithms (`theta_quotient`), each bridged to its root family
    (`_bridged_log`).  L = (t/2)/A, so an L factor, named with a degree-2
    generator c, adds minus A's logarithm at t = c
    (`line_quotient_evaluation`) and scales the exp by c/2.  A shifted
    sector adds its own half-period shift q^(1/2) -> -q^(1/2), which leaves
    A fixed and turns B2 into B3.  The spin integrand, for one,

    2^(dim/2) * prod A(t_j) * [prod B1(t_j) + prod B2(t_j) + prod B3(t_j)]

    is scale 2^(dim/2), the sector (A, B1) and the shifted sector (A, B2),
    all over pX; the spinc_l one, prod A(t_j) * L(cL), is the one sector
    (A over pX, L at cL).  An unknown quotient kind is a ValueError.  Each
    distinct bridged logarithm is built once.  The logarithms are cut at
    t-cap dim // 2: t^n becomes a degree-2n class, and the integrand is cut
    at degree dim.
    """
    # `log` must not call itself: a memoized closure that does is a reference cycle, which
    # outlives the call while the CLI runs with the collector off.
    @lru_cache(maxsize=None, typed=True)
    def log(kind, family):
        if kind == "L":  # log L, less log(t/2), is minus A's logarithm at t = the named class
            return -line_quotient_evaluation(theta_quotient("A", dim // 2, cap), table, dim, cap, family)
        return _bridged_log(theta_quotient(kind, dim // 2, cap), table, family, dim, cap)

    exponents = [reduce(add, [log(kind, family) for kind, family in factors]) for factors, _ in sectors]
    log.cache_clear()  # the exps read only the sector sums: the memo's logs are not kept through them

    def sector(exponent, factors, shifted):
        product = qseries_exp(exponent)
        for kind, family in factors:
            if kind == "L":
                product = product.scale(GradedPoly.generator(table, family, dim) / 2)
        return product + product.tau_shift_half() if shifted else product

    integrand = reduce(add, [sector(exponents.pop(0), *entry) for entry in sectors])  # each exp frees its sum
    return integrand if scale == 1 else integrand * scale
