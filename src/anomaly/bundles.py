"""Virtual bundles presented by their Chern character, with Adams, exterior
and symmetric power operations, and the Chern characters of the theta-power
q-series built from them.

A virtual bundle is its Chern character: one graded polynomial, whose
constant term is the rank, always an integer; `rank` and `reduced` (ch minus
the rank) are read off it.  Every operation is one operation on that
polynomial, through universal Chern-character polynomials, so it applies to
arbitrary virtual elements, including negative and zero ranks.

A bundle keeps its Adams operations, exterior and symmetric powers and its
rank-zero reduction once built, and the four geometric constructors are
memoized per argument.  So the theta series of one case and the identities
of the catalog share one set of powers of T~ (and of V~).  Callers treat
bundles as immutable.

Each power is one sum of the Newton recursion of Atiyah and Tall ("Group
representations, lambda-rings and the J-homomorphism", Topology 1969): the
terms of lam^n or S^n add into one `_convolve` accumulator over a common
denominator, and the result is put in lowest terms once.  `theta_series`
multiplies its sparse factors together first, the sparsest (largest q-step)
first, and joins the symmetric-power and exterior-power products with one
product at the end; a +q^(m-1/2) exterior product is the half-period shift
of the -q^(m-1/2) one.  Adams operations are lambda-ring endomorphisms, and
per Chern root (1 - x e^v)(1 + x e^v) = 1 - x^2 e^(2v), so the pair of
half-step products of ThetaV is one product over psi^2:
prod_m Lam_{-q^(m-1/2)}(W) (x) Lam_{+q^(m-1/2)}(W) = prod_{m odd} Lam_{-q^m}(psi^2 W).
The spin case's three sectors share one symmetric-power product (kind
`sectors`).  `theta_series` keeps no series or polynomial past the call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm
from operator import mul

from .algebra import (
    GeneratorTable,
    GradedPoly,
    _convolve,
    _even_truncation,
    _int_form,
    _is_int,
    _nonnegative_int,
    exp_truncated,
    power_sum_in_pontryagin,
)
from .genera import spinor_ch
from .qseries import PolyRing, QHalfSeries


class VirtualBundle:
    """A virtual bundle over a fixed generator table, stored as its Chern character."""

    __slots__ = ("table", "truncation", "_ch", "_reduction", "_psi", "_lam", "_sym")

    def __init__(self, table: GeneratorTable, truncation: int, rank: int, reduced: GradedPoly | None = None):
        truncation = _even_truncation(truncation)
        if not _is_int(rank):
            raise ValueError(f"virtual rank must be an integer, got {rank!r}")
        if reduced is None:
            reduced = GradedPoly.zero(table, truncation)
        if reduced.table != table:
            raise ValueError("reduced character over a different generator table")
        if reduced.constant_term:
            raise ValueError("reduced Chern character must have zero constant term")
        if reduced.truncation < truncation:
            raise ValueError(f"reduced character truncated at degree {reduced.truncation}, below {truncation}")
        self._fill(reduced.truncate(truncation) + rank)

    def _fill(self, ch: GradedPoly):
        self.table, self.truncation, self._ch = ch.table, ch.truncation, ch
        self._reduction = self._psi = self._lam = self._sym = None

    @classmethod
    def _of(cls, ch: GradedPoly) -> "VirtualBundle":
        """Trusted constructor: the bundle whose Chern character is `ch`, at its
        table and truncation.  The caller guarantees an integer constant term."""
        bundle = object.__new__(cls)
        bundle._fill(ch)
        return bundle

    # -- constructors --------------------------------------------------------

    @classmethod
    def trivial(cls, table, truncation, rank: int) -> "VirtualBundle":
        return cls(table, truncation, rank)

    @classmethod
    def zero(cls, table, truncation) -> "VirtualBundle":
        return cls(table, truncation, 0)

    # -- basic algebra ---------------------------------------------------------

    @property
    def rank(self) -> int:
        """The constant term of the Chern character, an integer."""
        return self._ch.constant_term.numerator

    @property
    def reduced(self) -> GradedPoly:
        """The reduced (rank-free) Chern character, ch - rank."""
        return self.reduce()._ch

    def ch(self) -> GradedPoly:
        return self._ch

    def reduce(self) -> "VirtualBundle":
        """The rank-zero reduction W - rank(W): itself at rank 0, otherwise
        built once per bundle and kept."""
        rank = self.rank
        if rank == 0:
            return self
        if self._reduction is None:
            self._reduction = VirtualBundle._of(self._ch - rank)
        return self._reduction

    def _check(self, other: "VirtualBundle"):
        if self.table != other.table:
            raise ValueError("virtual bundles over different generator tables")

    def __add__(self, other):
        if not isinstance(other, VirtualBundle):
            return NotImplemented
        self._check(other)
        return VirtualBundle._of(self._ch + other._ch)

    def __neg__(self):
        return VirtualBundle._of(-self._ch)

    def __sub__(self, other):
        if not isinstance(other, VirtualBundle):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Tensor product; integers act as multiples of the trivial bundle."""
        if isinstance(other, int):
            if not _is_int(other):
                raise ValueError(f"a bundle multiple must be an integer, got {other!r}")
            return VirtualBundle._of(self._ch * other)
        if not isinstance(other, VirtualBundle):
            return NotImplemented
        self._check(other)
        return VirtualBundle._of(self._ch * other._ch)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, VirtualBundle) and self._ch == other._ch

    __hash__ = None

    def is_zero(self) -> bool:
        return self._ch.is_zero()

    def __repr__(self):
        return f"VirtualBundle(rank={self.rank}, reduced={self.reduced.render()})"

    # -- operations --------------------------------------------------------------

    def adams(self, k: int) -> "VirtualBundle":
        """k-th Adams operation: scales each degree-d character piece by k^(d/2),
        so the rank, the degree-0 piece, stays fixed.

        Each psi^k is built once per bundle and kept, like the exterior and
        symmetric powers; it scales the numerators of the int form.
        """
        if not _is_int(k) or k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        if self._psi is None:
            self._psi = {}
        psi = self._psi.get(k)
        if psi is None:
            ch = self._ch
            items = [(g, s, key, num * k ** (g // 2)) for g, s, key, num in ch.items]
            psi = self._psi[k] = VirtualBundle._of(GradedPoly._make(self.table, self.truncation, *_int_form(ch.den, items)))
        return psi

    def lambda_power(self, k: int) -> "VirtualBundle":
        """k-th exterior power, through the Newton-style recursion
        n*lam^n(W) = sum_{i=1..n} (-1)^(i-1) psi^i(W) (x) lam^(n-i)(W).

        Each power is summed in one accumulator (`_signed_sum`) and kept.
        """
        _nonnegative_int(k, "an exterior power index")
        if self._lam is None:
            self._lam = [VirtualBundle.trivial(self.table, self.truncation, 1)]
        lam = self._lam
        while len(lam) <= k:
            n = len(lam)
            lam.append(self._signed_sum([(self.adams(i), lam[n - i]) for i in range(1, n + 1)], n))
        return lam[k]

    def sym_power(self, k: int) -> "VirtualBundle":
        """k-th symmetric power, through the division-free recursion
        S^n(W) = sum_{i=1..n} (-1)^(i-1) lam^i(W) (x) S^(n-i)(W).

        Each power is summed in one accumulator (`_signed_sum`) and kept.
        """
        _nonnegative_int(k, "a symmetric power index")
        if self._sym is None:
            self._sym = [VirtualBundle.trivial(self.table, self.truncation, 1)]
        sym = self._sym
        while len(sym) <= k:
            n = len(sym)
            sym.append(self._signed_sum([(self.lambda_power(i), sym[n - i]) for i in range(1, n + 1)], 1))
        return sym[k]

    def _signed_sum(self, pairs: list, divisor: int) -> "VirtualBundle":
        """(sum_i (-1)^i a_i (x) b_i) / divisor, i counted from 0, for bundles at this truncation.

        Each a_i (x) b_i is the product of the two Chern characters, one
        `_convolve` into one accumulator over the lcm of the pairs'
        denominator products; the unit terms give the rank products.  The
        constant term of the sum, the rank, must be an integer.  The result
        is put in lowest terms once.
        """
        limit = self.truncation
        den = lcm(*[a._ch.den * b._ch.den for a, b in pairs])
        acc: dict = {}
        for i, (a, b) in enumerate(pairs):
            A, B = a._ch, b._ch
            scale = (-1 if i % 2 else 1) * (den // (A.den * B.den))
            _convolve(acc, [(g, s, key, num * scale) for g, s, key, num in A.items], B.items, limit)
        den *= divisor
        if acc.get(0, 0) % den:  # the unit key is 0
            raise ValueError("exterior power recursion produced a non-integral rank")
        return VirtualBundle._of(GradedPoly._make(self.table, limit, *self.table.layout(limit).int_form(acc, den)))


# -- geometric constructors --------------------------------------------------


def _complexification(table: GeneratorTable, truncation: int, family: str, rank: int) -> VirtualBundle:
    """rank + sum_m 2*s_m/(2m)! over a root family: the Chern character of the
    complexification of a real bundle whose Pontryagin classes are the family."""
    ch = GradedPoly.constant(table, truncation, rank)
    for m in range(1, truncation // 4 + 1):
        s = power_sum_in_pontryagin(table, family, m, truncation)
        ch = ch + s * Fraction(2, factorial(2 * m))
    return VirtualBundle._of(ch)


@lru_cache(maxsize=None)
def tangent_complexification(table: GeneratorTable, dim: int) -> VirtualBundle:
    """Complexified tangent bundle over the pX classes, to degree dim: rank dim,
    degree-4m piece 2*s_{2m}/(2m)!."""
    return _complexification(table, dim, "pX", dim)


@lru_cache(maxsize=None)
def aux_complexification(table: GeneratorTable, truncation: int) -> VirtualBundle:
    """Complexification of an auxiliary real bundle carrying the pV classes.

    The rank is free: every reduced quantity built from this bundle is
    rank-independent, so it is built at rank 0.
    """
    return _complexification(table, truncation, "pV", 0)


@lru_cache(maxsize=None)
def line_real_complexification(table: GeneratorTable, truncation: int) -> VirtualBundle:
    """Complexified realification of a line bundle L with first Chern class cL:
    ch(L + conj L) = exp(cL) + exp(-cL), rank 2."""
    c = GradedPoly.generator(table, "cL", truncation)
    return VirtualBundle._of(exp_truncated(c) + exp_truncated(-c))


@lru_cache(maxsize=None)
def spinor_bundle(table: GeneratorTable, dim: int) -> VirtualBundle:
    """The spinor bundle Delta of a spin manifold of dimension dim, rank
    2^(dim/2): its Chern character is the form `genera.spinor_ch`."""
    return VirtualBundle._of(spinor_ch(table, dim))


# -- q-series of Chern characters ---------------------------------------------


THETA_KINDS = ("theta1", "theta2", "theta3", "theta2+theta3", "sectors", "thetaV", "thetaL")


def _sym_factor(W: VirtualBundle, n: int, cap: int) -> QHalfSeries:
    """ch S_{q^n}(W) = sum_k ch S^k(W) q^(nk).

    Each character is over W's table at W's truncation and no q-power passes
    the cap, so the series is made as a trusted int form; so is `_lam_factor`'s.
    """
    coeffs = {2 * n * k: W.sym_power(k).ch() for k in range(cap // n + 1)}
    ring = PolyRing(W.table, W.truncation)
    return QHalfSeries._make(ring, cap, *ring.flatten(coeffs))


def _lam_factor(W: VirtualBundle, step2: int, sign: int, cap: int) -> QHalfSeries:
    """ch Lambda_{sign*q^(step2/2)}(W) = sum_k ch lam^k(W) sign^k q^(k*step2/2)."""
    coeffs = {}
    for k in range(2 * cap // step2 + 1):
        ch = W.lambda_power(k).ch()
        coeffs[k * step2] = ch if sign > 0 or k % 2 == 0 else -ch
    ring = PolyRing(W.table, W.truncation)
    return QHalfSeries._make(ring, cap, *ring.flatten(coeffs))


def theta_series(kind: str, TX: VirtualBundle, V: VirtualBundle | None = None, cap: int = 3) -> QHalfSeries:
    """Chern character of a tensor-product q-series of exterior/symmetric
    powers of the reduced inputs, over PolyRing(table, truncation of TX).

    The powers come from the lambda-ring recursions of VirtualBundle; since ch
    is a ring homomorphism, the tensor products are taken as products of
    their Chern characters.

    theta1: prod_n S_{q^n}(T~) (x) prod_m Lam_{q^m}(T~)
    theta2: prod_n S_{q^n}(T~) (x) prod_m Lam_{-q^(m-1/2)}(T~)
    theta3: prod_n S_{q^n}(T~) (x) prod_m Lam_{+q^(m-1/2)}(T~)
    theta2+theta3: prod_n S_{q^n}(T~) (x) (prod_m Lam_{-q^(m-1/2)}(T~) + prod_m Lam_{+q^(m-1/2)}(T~)),
            the sum of theta2 and theta3
    sectors: theta1 (x) V + rank(V) * (theta2+theta3), the spin case's three
            sectors with V the spinor bundle, over one symmetric-power product
    thetaV: prod_n S_{q^n}(T~) (x) prod_m Lam_{q^m}(V~)
            (x) prod_r Lam_{+q^(r-1/2)}(V~) (x) prod_s Lam_{-q^(s-1/2)}(V~)
    thetaL: prod_n S_{q^n}(T~) (x) prod_m Lam_{-q^m}(V~)

    Only P = prod_m Lam_{-q^(m-1/2)} is built: the +q^(m-1/2) product is P
    under q^(1/2) -> -q^(1/2) (`tau_shift_half`).  ThetaV's half-step pair is
    not built at all: it is prod_{m odd} Lam_{-q^m}(psi^2 V~), since per
    Chern root (1 - x e^v)(1 + x e^v) = 1 - x^2 e^(2v), so V~'s exterior
    powers are read to degree cap, not 2*cap.  The symmetric-power and
    the exterior-power factors are each multiplied sparsest (largest q-step)
    first, so the running products stay sparse; then one product joins the
    two.  `theta2+theta3` and `sectors` add P to its shift first, so that
    product runs over integer q-powers only.
    """
    if kind not in THETA_KINDS:
        raise ValueError(f"unknown theta series kind {kind!r}")
    if kind in ("sectors", "thetaV", "thetaL") and V is None:
        raise ValueError(f"kind {kind!r} needs the bundle V")
    if V is not None and V.table != TX.table:
        raise ValueError("TX and V over different generator tables")
    _nonnegative_int(cap, "q-cap")

    T = TX.reduce()
    one = QHalfSeries.one(PolyRing(TX.table, T.truncation), cap)
    whole = range(2 * cap, 0, -2)  # doubled q-steps 2m, m = cap..1
    half = range(2 * cap - 1, 0, -2)  # doubled q-steps 2m - 1, m = cap..1
    odd = whole[1 - cap % 2 :: 2]  # doubled q-steps 2m, m odd, m = cap..1

    def product(W: VirtualBundle, steps, sign: int) -> QHalfSeries:
        return reduce(mul, [_lam_factor(W, step, sign, cap) for step in steps], one)

    if kind == "theta1":
        lam = product(T, whole, +1)
    elif kind == "thetaV":
        Vr = V.reduce()
        lam = product(Vr, whole, +1) * product(Vr.adams(2), odd, -1)
    elif kind == "thetaL":
        lam = product(V.reduce(), whole, -1)
    else:  # the kinds read off P
        lam = product(T, half, -1)
        if kind == "theta3":
            lam = lam.tau_shift_half()
        elif kind != "theta2":
            lam = lam + lam.tau_shift_half()
        if kind == "sectors":
            lam = product(T, whole, +1).scale(V.ch()) + lam * V.rank
    return reduce(mul, [_sym_factor(T, n, cap) for n in range(cap, 0, -1)], one) * lam
