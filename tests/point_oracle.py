"""The catalog integrands at rational points, from the paper's products alone.

This module shares no code with the package: it imports only the standard
library, and it reads neither the package's series, kernels and coordinates
nor its family table.  Each family's integrand is written out here from the
per-root quotients of [Li2] and [CHZ], each with its hyperbolic prefactor:

    A(x)  = [(x/2)/sinh(x/2)] prod_n (1-q^n)^2 / [(1-e^x q^n)(1-e^-x q^n)]
    B1(x) = cosh(x/2) prod_n (1+e^x q^n)(1+e^-x q^n) / (1+q^n)^2
    B2(x) = prod_n (1-e^x q^(n-1/2))(1-e^-x q^(n-1/2)) / (1-q^(n-1/2))^2
    B3(x) = prod_n (1+e^x q^(n-1/2))(1+e^-x q^(n-1/2)) / (1+q^(n-1/2))^2
    L(c)  = sinh(c/2) prod_n (1-e^c q^n)(1-e^-c q^n) / (1-q^n)^2

Every factor pairs e^x with e^-x, (1 +- e^x y)(1 +- e^-x y) = 1 +- 2 cosh(x) y
+ y^2, and the prefactors are cosh(x/2) and the ratio sinh(x/2)/(x/2) or
its inverse, so A, B1, B2 and B3 read the root only through w = x^2, and
L(c) is c/2 times a series in c^2.

A point is rational: one w per root of X (and of V for spin_v) and, for
spinc_l, the degree-2 class c.  At roots x_j scaled by e, x_j^2 = w_j u with
u = e^2, each factor is a series in u and q^(1/2), and the degree-dim part
of the integrand is its u^(dim // 4) coefficient (times c for spinc_l, whose
dim is 4k + 2): the top-degree form evaluated at p_k = e_k(w), cL = c.  Two
distinct polynomials differ at a random point with probability at least
1 - deg/|S| (J. T. Schwartz, J. ACM 27, 1980).

A series is a list of rows, one per doubled q-exponent j2 = 0..2 cap, each
row the u-coefficients 0..top as Fractions.  `random_point` draws a point
from a seeded `random.Random` and meets the case condition by solving one
linear equation for the first w of X: sum w_X = c^2 for spinc_l and
sum w_X = 3 sum w_V for spin_v.
"""

from fractions import Fraction
from math import factorial

# -- u-series rows and q-series of rows ------------------------------------------------


def row_mul(a, b, top):
    """The product of two u-series, cut at u^top."""
    out = [Fraction(0)] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                out[i + j] += x * b[j]
    return out


def row_inverse(a, top):
    """1/a for a u-series with a nonzero constant term, cut at u^top."""
    inverse = [1 / Fraction(a[0])]
    for n in range(1, top + 1):
        inverse.append(-sum(a[i] * inverse[n - i] for i in range(1, n + 1)) / a[0])
    return inverse


def constant_row(value, top):
    return [Fraction(value)] + [Fraction(0)] * top


def times(series, factor, top):
    """`series` times a factor given as {j2: row}, cut at the series' last row."""
    out = [[Fraction(0)] * (top + 1) for _ in series]
    for k, row in enumerate(series):
        if any(row):
            for j2, frow in factor.items():
                if k + j2 < len(series):
                    out[k + j2] = [x + y for x, y in zip(out[k + j2], row_mul(row, frow, top))]
    return out


def over(series, factor, top):
    """`series` divided by a factor {j2: row} whose q^0 row has a nonzero constant term."""
    inverse = row_inverse(factor[0], top)
    out = []
    for k, row in enumerate(series):
        acc = list(row)
        for j2, frow in factor.items():
            if j2 and k >= j2:
                acc = [x - y for x, y in zip(acc, row_mul(out[k - j2], frow, top))]
        out.append(row_mul(acc, inverse, top))
    return out


def product(a, b, top):
    """The product of two series."""
    return times(a, {j2: row for j2, row in enumerate(b) if any(row)}, top)


def one(cap, top):
    return [constant_row(1, top)] + [[Fraction(0)] * (top + 1) for _ in range(2 * cap)]


# -- the hyperbolic functions in w = x^2 ------------------------------------------------


def cosh(w, scale, top):
    """cosh(scale * x) = sum_m (scale^2 w)^m / (2m)!, in powers of u."""
    return [(scale * scale * w) ** m / factorial(2 * m) for m in range(top + 1)]


def sinh_ratio(w, scale, top):
    """sinh(scale * x) / (scale * x) = sum_m (scale^2 w)^m / (2m + 1)!, in powers of u."""
    return [(scale * scale * w) ** m / factorial(2 * m + 1) for m in range(top + 1)]


HALF = Fraction(1, 2)


def paired(sign, w, j2, top):
    """(1 + sign e^x q^(j2/2))(1 + sign e^-x q^(j2/2)) = 1 + sign 2 cosh(x) q^(j2/2) + q^j2."""
    return {0: constant_row(1, top), j2: [2 * sign * c for c in cosh(w, 1, top)], 2 * j2: constant_row(1, top)}


def unpaired(sign, j2, top):
    """(1 + sign q^(j2/2))^2, the t = 0 normalization of `paired`."""
    return {0: constant_row(1, top), j2: constant_row(2 * sign, top), 2 * j2: constant_row(1, top)}


def quotient(kind, w, cap, top):
    """The root factor A, B1, B2 or B3 at a root with x^2 = w, or L(c)/(c/2) at c^2 = w."""
    series = one(cap, top)
    if kind == "A":
        series = times(series, {0: row_inverse(sinh_ratio(w, HALF, top), top)}, top)
    elif kind == "B1":
        series = times(series, {0: cosh(w, HALF, top)}, top)
    elif kind == "L":
        series = times(series, {0: sinh_ratio(w, HALF, top)}, top)
    # (sign of the factors, first doubled q-exponent): whole powers q^n, or half powers q^(n-1/2)
    sign, first = {"A": (-1, 2), "L": (-1, 2), "B1": (1, 2), "B2": (-1, 1), "B3": (1, 1)}[kind]
    for j2 in range(first, 2 * cap + 1, 2):
        if kind == "A":  # the paired factors sit in A's denominator
            series = over(times(series, unpaired(sign, j2, top), top), paired(sign, w, j2, top), top)
        else:
            series = over(times(series, paired(sign, w, j2, top), top), unpaired(sign, j2, top), top)
    return series


def over_roots(kind, ws, cap, top):
    """prod_j Q(x_j) over the roots with x_j^2 = ws[j]."""
    series = one(cap, top)
    for w in ws:
        series = product(series, quotient(kind, w, cap, top), top)
    return series


# -- the three families --------------------------------------------------------------


def integrand_top(case, dim, cap, point):
    """The top-degree part of the case integrand at `point`, one value per q^(j2/2), j2 = 0..2 cap.

    spin     2^(dim/2) prod A(x) [prod B1(x) + prod B2(x) + prod B3(x)]
    spin_v   prod A(x) prod B1(y) B2(y) B3(y), y the roots of V
    spinc_l  prod A(x) L(c)
    """
    top = dim // 4
    a = over_roots("A", point["X"], cap, top)
    scale = Fraction(1)
    if case == "spin":
        sectors = [over_roots(kind, point["X"], cap, top) for kind in ("B1", "B2", "B3")]
        total = [[x + y + z for x, y, z in zip(*rows)] for rows in zip(*sectors)]
        series, scale = product(a, total, top), Fraction(2) ** (dim // 2)
    elif case == "spin_v":
        series = a
        for kind in ("B1", "B2", "B3"):
            series = product(series, over_roots(kind, point["V"], cap, top), top)
    elif case == "spinc_l":
        series, scale = product(a, quotient("L", point["c"] ** 2, cap, top), top), point["c"] / 2
    else:
        raise ValueError(f"unknown case {case!r}")
    return [scale * row[top] for row in series]


# -- points --------------------------------------------------------------------------


def elementary(ws, k):
    """e_k of the numbers `ws`."""
    e = [Fraction(1)] + [Fraction(0)] * k
    for w in ws:
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * w
    return e[k]


def random_point(case, dim, rng):
    """A rational point that meets the case condition: one w per root of X (and of V),
    dim // 4 roots each, and c for spinc_l; the first w of X is solved for."""
    def number():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    roots = dim // 4
    point = {"X": [number() for _ in range(roots)]}
    if case == "spin_v":
        point["V"] = [number() for _ in range(roots)]
        point["X"][0] = 3 * sum(point["V"]) - sum(point["X"][1:])
    elif case == "spinc_l":
        point["c"] = number()
        point["X"][0] = point["c"] ** 2 - sum(point["X"][1:])
    return point
