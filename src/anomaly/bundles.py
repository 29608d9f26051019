"""Virtual bundles presented by their Chern character, with Adams, exterior
and symmetric power operations, and the Chern characters of the theta-power
q-series built from them.

A virtual bundle is an integer rank plus the reduced (rank-free) part of its
Chern character, a graded polynomial with zero constant term.  All operations
are defined through universal Chern-character polynomials, so they apply to
arbitrary virtual elements, including negative and zero ranks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import GeneratorTable, GradedPoly, power_sum_in_pontryagin
from .qseries import PolyRing, QHalfSeries


class VirtualBundle:
    """rank + reduced Chern character over a fixed generator table."""

    __slots__ = ("table", "truncation", "rank", "reduced", "_lam", "_sym")

    def __init__(self, table: GeneratorTable, truncation: int, rank: int, reduced: GradedPoly | None = None):
        self.table = table
        self.truncation = int(truncation)
        if not isinstance(rank, int):
            raise ValueError(f"virtual rank must be an integer, got {rank!r}")
        self.rank = rank
        if reduced is None:
            reduced = GradedPoly.zero(table, truncation)
        if reduced.table != table:
            raise ValueError("reduced character over a different generator table")
        if reduced.constant_term:
            raise ValueError("reduced Chern character must have zero constant term")
        self.reduced = reduced.truncate(self.truncation)
        self._lam = None
        self._sym = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def trivial(cls, table, truncation, rank: int) -> "VirtualBundle":
        return cls(table, truncation, rank)

    @classmethod
    def zero(cls, table, truncation) -> "VirtualBundle":
        return cls(table, truncation, 0)

    @classmethod
    def from_ch(cls, ch: GradedPoly) -> "VirtualBundle":
        rank = ch.constant_term
        if rank.denominator != 1:
            raise ValueError("Chern character has a non-integral rank")
        return cls(ch.table, ch.truncation, int(rank), ch - rank)

    # -- basic algebra ---------------------------------------------------------

    def ch(self) -> GradedPoly:
        return self.reduced + self.rank

    def reduce(self) -> "VirtualBundle":
        """The rank-zero reduction W - rank(W)."""
        return VirtualBundle(self.table, self.truncation, 0, self.reduced)

    def _check(self, other: "VirtualBundle"):
        if self.table != other.table:
            raise ValueError("virtual bundles over different generator tables")

    def __add__(self, other):
        self._check(other)
        trunc = min(self.truncation, other.truncation)
        return VirtualBundle(self.table, trunc, self.rank + other.rank, self.reduced + other.reduced)

    def __neg__(self):
        return VirtualBundle(self.table, self.truncation, -self.rank, -self.reduced)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Tensor product; integers act as multiples of the trivial bundle."""
        if isinstance(other, int):
            return VirtualBundle(self.table, self.truncation, self.rank * other, self.reduced * other)
        self._check(other)
        trunc = min(self.truncation, other.truncation)
        ch = self.ch() * other.ch()
        rank = self.rank * other.rank
        return VirtualBundle(self.table, trunc, rank, ch - rank)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, VirtualBundle)
            and self.table == other.table
            and self.truncation == other.truncation
            and self.rank == other.rank
            and self.reduced == other.reduced
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return self.rank == 0 and self.reduced.is_zero()

    def __repr__(self):
        return f"VirtualBundle(rank={self.rank}, reduced={self.reduced.render()})"

    # -- operations --------------------------------------------------------------

    def adams(self, k: int) -> "VirtualBundle":
        """k-th Adams operation: scales each degree-d character piece by k^(d/2)."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        degree = self.table.monomial_degree
        terms = {e: c * Fraction(k) ** (degree(e) // 2) for e, c in self.reduced.terms.items()}
        return VirtualBundle(self.table, self.truncation, self.rank, GradedPoly(self.table, self.truncation, terms))

    def lambda_power(self, k: int) -> "VirtualBundle":
        """k-th exterior power, through the Newton-style recursion
        k*lam^k(W) = sum_{i=1..k} (-1)^(i-1) psi^i(W) (x) lam^(k-i)(W)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exterior powers are indexed by nonnegative integers")
        if self._lam is None:
            self._lam = [VirtualBundle.trivial(self.table, self.truncation, 1)]
        while len(self._lam) <= k:
            n = len(self._lam)
            acc = VirtualBundle.zero(self.table, self.truncation)
            for i in range(1, n + 1):
                contrib = self.adams(i) * self._lam[n - i]
                acc = acc + (contrib if (i - 1) % 2 == 0 else -contrib)
            rank, rem = divmod(acc.rank, n)
            if rem:
                raise ValueError("exterior power recursion produced a non-integral rank")
            self._lam.append(VirtualBundle(self.table, self.truncation, rank, acc.reduced / n))
        return self._lam[k]

    def sym_power(self, k: int) -> "VirtualBundle":
        """k-th symmetric power, through the division-free recursion
        S^k(W) = sum_{i=1..k} (-1)^(i-1) lam^i(W) (x) S^(k-i)(W)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("symmetric powers are indexed by nonnegative integers")
        if self._sym is None:
            self._sym = [VirtualBundle.trivial(self.table, self.truncation, 1)]
        while len(self._sym) <= k:
            n = len(self._sym)
            acc = VirtualBundle.zero(self.table, self.truncation)
            for i in range(1, n + 1):
                contrib = self.lambda_power(i) * self._sym[n - i]
                acc = acc + (contrib if (i - 1) % 2 == 0 else -contrib)
            self._sym.append(acc)
        return self._sym[k]


# -- geometric constructors --------------------------------------------------


def tangent_complexification(table: GeneratorTable, dim: int, truncation: int | None = None, family: str = "pX") -> VirtualBundle:
    """Complexified tangent bundle: rank dim, degree-4m piece 2*s_{2m}/(2m)!."""
    trunc = dim if truncation is None else truncation
    reduced = GradedPoly.zero(table, trunc)
    for m in range(1, trunc // 4 + 1):
        s = power_sum_in_pontryagin(table, family, m, trunc)
        reduced = reduced + s * Fraction(2, factorial(2 * m))
    return VirtualBundle(table, trunc, dim, reduced)


def aux_complexification(table: GeneratorTable, truncation: int, rank: int = 0, family: str = "pV") -> VirtualBundle:
    """Complexification of an auxiliary real bundle carrying the pV classes.

    The rank is free: every reduced quantity built from this bundle is
    rank-independent, so the default 0 is as good as any.
    """
    reduced = GradedPoly.zero(table, truncation)
    for m in range(1, truncation // 4 + 1):
        s = power_sum_in_pontryagin(table, family, m, truncation)
        reduced = reduced + s * Fraction(2, factorial(2 * m))
    return VirtualBundle(table, truncation, rank, reduced)


def line_real_complexification(table: GeneratorTable, truncation: int) -> VirtualBundle:
    """Complexified realification of a line bundle with first Chern class cL:
    rank 2 with degree-4m piece 2*cL^(2m)/(2m)!."""
    c = GradedPoly.generator(table, "cL", truncation)
    reduced = GradedPoly.zero(table, truncation)
    c2 = c * c
    term = GradedPoly.one(table, truncation)
    m = 1
    while True:
        term = term * c2
        if term.is_zero():
            break
        reduced = reduced + term * Fraction(2, factorial(2 * m))
        m += 1
    return VirtualBundle(table, truncation, 2, reduced)


# -- q-series of Chern characters ---------------------------------------------


THETA_KINDS = ("theta1", "theta2", "theta3", "thetaV", "thetaL")


def _sym_factor(W: VirtualBundle, n: int, cap: int) -> QHalfSeries:
    """ch S_{q^n}(W) = sum_k ch S^k(W) q^(nk)."""
    coeffs = {}
    k = 0
    while n * k <= cap:
        coeffs[2 * n * k] = W.sym_power(k).ch()
        k += 1
    return QHalfSeries(PolyRing(W.table, W.truncation), cap, coeffs)


def _lam_factor(W: VirtualBundle, step2: int, sign: int, cap: int) -> QHalfSeries:
    """ch Lambda_{sign*q^(step2/2)}(W) = sum_k ch lam^k(W) sign^k q^(k*step2/2)."""
    coeffs = {}
    k = 0
    while k * step2 <= 2 * cap:
        ch = W.lambda_power(k).ch()
        coeffs[k * step2] = ch if sign > 0 or k % 2 == 0 else -ch
        k += 1
    return QHalfSeries(PolyRing(W.table, W.truncation), cap, coeffs)


def theta_series(kind: str, TX: VirtualBundle, V: VirtualBundle | None = None, cap: int = 3) -> QHalfSeries:
    """Chern character of a tensor-product q-series of exterior/symmetric
    powers of the reduced inputs, over PolyRing(table, truncation of TX).

    The powers come from the lambda-ring recursions of VirtualBundle; since ch
    is a ring homomorphism, the tensor products are taken as products of
    their Chern characters.

    theta1: prod_n S_{q^n}(T~) (x) prod_m Lam_{q^m}(T~)
    theta2: prod_n S_{q^n}(T~) (x) prod_m Lam_{-q^(m-1/2)}(T~)
    theta3: prod_n S_{q^n}(T~) (x) prod_m Lam_{+q^(m-1/2)}(T~)
    thetaV: prod_n S_{q^n}(T~) (x) prod_m Lam_{q^m}(V~)
            (x) prod_r Lam_{+q^(r-1/2)}(V~) (x) prod_s Lam_{-q^(s-1/2)}(V~)
    thetaL: prod_n S_{q^n}(T~) (x) prod_m Lam_{-q^m}(V~)
    """
    if kind not in THETA_KINDS:
        raise ValueError(f"unknown theta series kind {kind!r}")
    if kind in ("thetaV", "thetaL") and V is None:
        raise ValueError(f"kind {kind!r} needs the auxiliary bundle V")
    if V is not None and V.table != TX.table:
        raise ValueError("TX and V over different generator tables")
    cap = int(cap)
    if cap < 0:
        raise ValueError("q-cap must be nonnegative")

    T = TX.reduce()
    out = QHalfSeries.one(PolyRing(TX.table, T.truncation), cap)
    for n in range(1, cap + 1):
        out = out * _sym_factor(T, n, cap)
    if kind == "theta1":
        for m in range(1, cap + 1):
            out = out * _lam_factor(T, 2 * m, +1, cap)
    elif kind in ("theta2", "theta3"):
        sign = -1 if kind == "theta2" else +1
        m = 1
        while 2 * m - 1 <= 2 * cap:
            out = out * _lam_factor(T, 2 * m - 1, sign, cap)
            m += 1
    elif kind == "thetaV":
        Vr = V.reduce()
        for m in range(1, cap + 1):
            out = out * _lam_factor(Vr, 2 * m, +1, cap)
        m = 1
        while 2 * m - 1 <= 2 * cap:
            out = out * _lam_factor(Vr, 2 * m - 1, +1, cap)
            out = out * _lam_factor(Vr, 2 * m - 1, -1, cap)
            m += 1
    else:  # thetaL
        Vr = V.reduce()
        for m in range(1, cap + 1):
            out = out * _lam_factor(Vr, 2 * m, -1, cap)
    return out
