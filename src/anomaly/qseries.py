"""Truncated formal q-series with half-integer exponents.

Exponents are stored doubled (the key j means q^(j/2)), so only integers are
ever used as dictionary keys.  Coefficients live either in the rationals or
in a truncated graded polynomial ring; mixing the two is an error unless the
rational series is promoted explicitly.

A series is an `algebra.IntForm` over flat keys: one positive denominator
and `(degree, j2, flat key, numerator)` items, where the flat key is the
coefficient's packed key with j2 as one more digit on top (over the
rationals, the key of the empty table).  Its arithmetic is the base class's:
a product is one `_convolve` plus one gcd reduction, and `qseries_exp` keeps
the kernel's solved parts as ints, so the running products of a route pass
ints from one product to the next, and `substitute` is the base class's
single-term key rewrite (`IntForm._substituted`), which rewrites every
q-coefficient in one pass.
The coefficient map `coeffs` (j2 -> GradedPoly or Fraction) is a view,
built from the ints on first access and kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebra import (
    GeneratorTable,
    GradedPoly,
    IntForm,
    _even_truncation,
    _exp_form,
    _int_form,
    _nonnegative_int,
    _render_terms,
    as_rational,
)


class RingMismatchError(TypeError):
    """Raised when q-series over incompatible coefficient rings are combined."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose leading coefficient is not a unit."""


class RationalRing:
    """Coefficient ring marker: plain Fraction coefficients.

    Flat keys are those of the empty generator table: degree 0, j2 on top.
    """

    layout = GeneratorTable(()).layout(0)
    limit = 0  # the kernel's grade limit: every term has degree 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return as_rational(value)

    def is_zero(self, value) -> bool:
        return not value

    def flatten(self, coeffs: dict) -> tuple[int, list]:
        """j2 -> Fraction as an int form over flat keys."""
        shift = self.layout.sshift
        return self.layout.rational_form({j2 << shift: c for j2, c in coeffs.items()})

    def unflatten(self, den: int, items: list) -> dict:
        """Inverse of `flatten`."""
        return {j2: Fraction(num, den) for _, j2, _, num in items}

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(RationalRing)

    def __repr__(self):
        return "RationalRing()"


class PolyRing:
    """Coefficient ring marker: GradedPoly coefficients over a fixed table.

    Every stored coefficient sits at the ring's truncation: `coerce` cuts a
    polynomial truncated above it and rejects one truncated below it, whose
    missing degrees would otherwise read as zeros.  Flat keys follow
    `table.layout(truncation)`, and the truncation is the kernel's grade
    limit.
    """

    def __init__(self, table: GeneratorTable, truncation: int):
        self.table = table
        self.truncation = self.limit = _even_truncation(truncation)
        self.layout = table.layout(self.truncation)

    def zero(self):
        return GradedPoly.zero(self.table, self.truncation)

    def one(self):
        return GradedPoly.one(self.table, self.truncation)

    def coerce(self, value):
        if isinstance(value, GradedPoly):
            if value.table != self.table:
                raise RingMismatchError("polynomial coefficient over a different generator table")
            if value.truncation < self.truncation:
                raise RingMismatchError(
                    f"polynomial coefficient truncated at degree {value.truncation}, "
                    f"below the ring's {self.truncation}"
                )
            return value.truncate(self.truncation)
        return GradedPoly.constant(self.table, self.truncation, value)

    def is_zero(self, value) -> bool:
        return value.is_zero()

    def flatten(self, coeffs: dict) -> tuple[int, list]:
        """j2 -> GradedPoly as an int form over flat keys: each key gains j2 as its top digit."""
        den = lcm(*[poly.den for poly in coeffs.values()])
        shift = self.layout.sshift
        return self.layout.int_form({
            key | j2 << shift: num * scale
            for j2, poly in coeffs.items()
            for scale in (den // poly.den,)
            for _, _, key, num in poly.items
        }, den)

    def unflatten(self, den: int, items: list) -> dict:
        """Inverse of `flatten`: one polynomial in lowest terms per q-power."""
        mask = (1 << self.layout.sshift) - 1
        parts: dict[int, list] = {}
        for g, j2, key, num in items:
            parts.setdefault(j2, []).append((g, 0, key & mask, num))
        table, truncation = self.table, self.truncation
        return {j2: GradedPoly._make(table, truncation, *_int_form(den, parts[j2])) for j2 in sorted(parts)}

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.table == other.table and self.truncation == other.truncation

    def __hash__(self):
        return hash((PolyRing, self.table, self.truncation))

    def __repr__(self):
        return f"PolyRing({self.table!r}, {self.truncation})"


RATIONALS = RationalRing()


def merge_rings(a, b):
    if isinstance(a, RationalRing) and isinstance(b, RationalRing):
        return RATIONALS
    if isinstance(a, PolyRing) and isinstance(b, PolyRing):
        if a.table != b.table:
            raise RingMismatchError("q-series over different generator tables")
        return a if a.truncation <= b.truncation else b
    raise RingMismatchError("mixing rational and polynomial coefficients requires an explicit promotion")


def _q_power(j2: int) -> str:
    """The monomial string of q^(j2/2); empty for q^0."""
    if j2 == 0:
        return ""
    if j2 == 2:
        return "q"
    return f"q^{j2 // 2}" if j2 % 2 == 0 else f"q^({j2}/2)"


class QHalfSeries(IntForm):
    """Finite expansion sum_j c_j * q^(j/2), keyed by the doubled exponent j.

    The cap N bounds the stored powers: 0 <= j <= 2N.  The value is an
    `IntForm` over the ring's flat keys (see the module docstring), with the
    ring's truncation as grade limit and 2N as side-grade limit.  `coeffs`
    is the j2 -> coefficient view: no zero coefficient, and over a PolyRing
    every coefficient sits at the ring's truncation.
    """

    __slots__ = ("ring", "cap", "_coeffs")
    _SHAPE = ("ring", "cap")
    _KEPT = ("_coeffs",)

    def __init__(self, ring, cap: int, coeffs=None):
        self.ring = ring
        self.cap = _nonnegative_int(cap, "q-cap")
        clean = {}
        if coeffs:
            for j2, value in coeffs.items():
                j2 = int(j2)
                if j2 < 0:
                    raise ValueError("negative q-exponent")
                if j2 > 2 * cap:
                    continue
                value = ring.coerce(value)
                if not ring.is_zero(value):
                    clean[j2] = value
        self._coeffs = clean
        self.den, self.items = ring.flatten(clean)

    @property
    def layout(self):
        return self.ring.layout

    @property
    def limits(self) -> tuple[int, int]:
        return self.ring.limit, 2 * self.cap

    @property
    def coeffs(self) -> dict:
        """j2 -> coefficient, built from the ints on first access and kept."""
        if self._coeffs is None:
            self._coeffs = self.ring.unflatten(self.den, self.items)
        return self._coeffs

    def _meet(self, other: "QHalfSeries") -> tuple:
        """The merged ring, at the smaller cap."""
        return merge_rings(self.ring, other.ring), min(self.cap, other.cap)

    # -- constructors ------------------------------------------------------

    @classmethod
    def q_power(cls, ring, cap, j2, value=1):
        return cls(ring, cap, {j2: ring.coerce(value)})

    # -- accessors ----------------------------------------------------------

    def coefficient(self, j2: int):
        """Coefficient of q^(j2/2)."""
        return self.coeffs.get(int(j2)) if int(j2) in self.coeffs else self.ring.zero()

    def coefficient_q(self, n: int):
        """Coefficient of the integer power q^n."""
        return self.coefficient(2 * n)

    def integer_powers_only(self) -> bool:
        return all(j2 % 2 == 0 for _, j2, _, _ in self.items)

    def scale(self, value):
        """Multiply every coefficient by a fixed ring element or scalar.

        A polynomial's keys are its flat keys at q^0, so scaling by one is
        the product with the polynomial read as a q^0 series.
        """
        value = self.ring.coerce(value)
        if isinstance(value, GradedPoly):
            value = QHalfSeries._make(self.ring, self.cap, value.den, value.items)
        return self * value

    # -- structure maps ------------------------------------------------------

    def substitute(self, images) -> "QHalfSeries":
        """Substitute single-term images into every coefficient at once (`IntForm._substituted`).

        Each image is truncated at or above the ring's truncation, and the
        result stays in the ring.  A rational series has no generator to map:
        any image is a ValueError.
        """
        return self._substituted(images, self.ring.limit)

    def cut(self, ring: PolyRing) -> "QHalfSeries":
        """The terms of degree at most `ring.truncation`, re-keyed by generator name onto `ring.table`.

        Both rings are polynomial and the target truncation is at most this
        series' own.  A generator that this table lacks gets exponent 0, so a
        cut onto a larger table is the embedding.  A kept term that carries a
        generator the target table lacks, or a generator that it gives
        another degree, is a ValueError (`algebra._relaid`).  The q-cap is
        kept.
        """
        source = self.ring
        if not (isinstance(source, PolyRing) and isinstance(ring, PolyRing)):
            raise RingMismatchError("cut needs polynomial coefficients on both sides")
        if ring.truncation > source.truncation:
            raise ValueError(f"cannot cut a series truncated at degree {source.truncation} to degree {ring.truncation}")
        return self._reshaped(ring, self.cap)

    def promote(self, ring: PolyRing) -> "QHalfSeries":
        """Explicitly lift rational coefficients into a polynomial ring: each becomes a constant."""
        if not isinstance(self.ring, RationalRing):
            raise RingMismatchError("promote applies to rational-coefficient series")
        return self._reshaped(ring, self.cap)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        coeffs = self.coeffs
        if isinstance(self.ring, RationalRing):
            return _render_terms((coeffs[j2], _q_power(j2)) for j2 in sorted(coeffs))
        parts = []
        for j2 in sorted(coeffs):
            power = _q_power(j2)
            body = f"({coeffs[j2].render()})"
            if power:
                body = f"{body}*{power}"
            parts.append(body if not parts else f"+ {body}")
        return " ".join(parts) if parts else "0"


def qseries_exp(x: QHalfSeries) -> QHalfSeries:
    """exp of a q-series over a polynomial ring, pinned by nilpotence.

    Needs every term to carry a positive weight (polynomial degree plus the
    doubled q-exponent), i.e. the q^0 coefficient must have no constant term.
    Solved weight by weight by `algebra._exp_form` over the ring's flat keys
    (`IntForm._kernel`); the result keeps the solved parts' ints.
    """
    ring = x.ring
    if not isinstance(ring, PolyRing):
        raise RingMismatchError("qseries_exp needs polynomial coefficients")
    if x.items and x.items[0][2] == 0:  # the unit flat key is 0 and sorts first
        raise ValueError("qseries_exp needs a zero constant term at q^0")
    return x._kernel(_exp_form)


def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def eisenstein(weight: int, cap: int) -> QHalfSeries:
    """Normalized weight-4 or weight-6 Eisenstein series through q^cap."""
    if weight == 4:
        const, k = 240, 3
    elif weight == 6:
        const, k = -504, 5
    else:
        raise ValueError(f"eisenstein weight must be 4 or 6, got {weight}")
    coeffs = {0: Fraction(1)}
    for n in range(1, cap + 1):
        coeffs[2 * n] = Fraction(const * _sigma(k, n))
    return QHalfSeries(RATIONALS, cap, coeffs)


@lru_cache(maxsize=None)
def modular_basis(weight: int, cap: int) -> QHalfSeries:
    """The monic basis form of the given weight: E4, E6, E4^2 or E4*E6."""
    if weight == 4:
        return eisenstein(4, cap)
    if weight == 6:
        return eisenstein(6, cap)
    if weight == 8:
        return eisenstein(4, cap) * eisenstein(4, cap)
    if weight == 10:
        return eisenstein(4, cap) * eisenstein(6, cap)
    raise ValueError(f"no basis form of weight {weight}")
