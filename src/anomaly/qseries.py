"""Truncated formal q-series with half-integer exponents.

Exponents are stored doubled (the key j means q^(j/2)), so only integers are
ever used as dictionary keys.  Coefficients live in one kind of ring, a
truncated graded polynomial ring over a generator table (`PolyRing`).  Over
the empty table every coefficient is a constant, so that ring, `RATIONALS`,
holds the rational series: the Eisenstein series and the echelon basis
forms of M_k (`modular_basis`, the one place that knows which monomials in
E4 and E6 span a weight).  Series over different tables do not mix; a
rational series is lifted into another ring explicitly
(`QHalfSeries.promote`).

A series is an `algebra.IntForm` over flat keys: one positive denominator
and `(degree, j2, flat key, numerator)` items, where the flat key is the
coefficient's packed key with j2 as one more digit on top (over the empty
table, j2 is the only digit that is not zero).  Its arithmetic is the base
class's: a product is one `_convolve` plus one gcd reduction, and
`qseries_exp` keeps the kernel's solved parts as ints, so the running
products of a route pass ints from one product to the next, and
`substitute` is the base class's single-term key rewrite
(`IntForm._substituted`), which rewrites every q-coefficient in one pass.
The coefficient map `coeffs` (j2 -> GradedPoly) is a view, built from the
ints on first access and kept.
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
    _integer,
    _nonnegative_int,
    _render_terms,
)


class RingMismatchError(TypeError):
    """Raised when q-series over different generator tables are combined."""


class PolyRing:
    """Coefficient ring marker: GradedPoly coefficients over a fixed table.

    Every stored coefficient sits at the ring's truncation: `coerce` cuts a
    polynomial truncated above it and rejects one truncated below it, whose
    missing degrees would otherwise read as zeros.  Flat keys follow
    `table.layout(truncation)`, and the truncation is the kernel's grade
    limit.  Over the empty table at truncation 0 (`RATIONALS`) every
    coefficient is a constant polynomial: that ring is the rationals.
    """

    def __init__(self, table: GeneratorTable, truncation: int):
        self.table = table
        self.truncation = _even_truncation(truncation)
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
        return type(other) is PolyRing and self.table == other.table and self.truncation == other.truncation

    def __hash__(self):
        return hash((PolyRing, self.table, self.truncation))

    def __repr__(self):
        return f"PolyRing({self.table!r}, {self.truncation})"


RATIONALS = PolyRing(GeneratorTable(()), 0)


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
    is the j2 -> coefficient view: no zero coefficient, and every
    coefficient sits at the ring's truncation.  A q-exponent that is not an
    int is a ValueError.
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
                if _integer(j2, "q-exponents") < 0:
                    raise ValueError("negative q-exponent")
                if j2 > 2 * cap:
                    continue
                value = ring.coerce(value)
                if value.items:
                    clean[j2] = value
        self._coeffs = clean
        self.den, self.items = ring.flatten(clean)

    @property
    def layout(self):
        return self.ring.layout

    @property
    def limits(self) -> tuple[int, int]:
        return self.ring.truncation, 2 * self.cap

    @property
    def coeffs(self) -> dict:
        """j2 -> coefficient, built from the ints on first access and kept."""
        if self._coeffs is None:
            self._coeffs = self.ring.unflatten(self.den, self.items)
        return self._coeffs

    def _meet(self, other: "QHalfSeries") -> tuple:
        """One generator table, at the smaller truncation and the smaller cap."""
        a, b = self.ring, other.ring
        if a.table != b.table:
            raise RingMismatchError("q-series over different tables (a rational series needs an explicit promotion)")
        return a if a.truncation <= b.truncation else b, min(self.cap, other.cap)

    # -- accessors ----------------------------------------------------------

    def coefficient(self, j2: int):
        """Coefficient of q^(j2/2)."""
        coeffs = self.coeffs
        return coeffs[j2] if _integer(j2, "q-exponents") in coeffs else self.ring.zero()

    def coefficient_q(self, n: int):
        """Coefficient of the integer power q^n."""
        return self.coefficient(2 * _integer(n, "q-exponents"))

    def integer_powers_only(self) -> bool:
        return all(j2 % 2 == 0 for _, j2, _, _ in self.items)

    def scale(self, value):
        """Multiply every coefficient by a fixed ring element or scalar.

        A coefficient's keys are its flat keys at q^0, so scaling by one is
        the product with the coefficient read as a q^0 series.
        """
        value = self.ring.coerce(value)
        return self * QHalfSeries._make(self.ring, self.cap, value.den, value.items)

    # -- structure maps ------------------------------------------------------

    def substitute(self, images) -> "QHalfSeries":
        """Substitute single-term images into every coefficient at once (`IntForm._substituted`).

        Each image is truncated at or above the ring's truncation, and the
        result stays in the ring.  A rational series has no generator to map:
        an image over a nonempty table is a ValueError.
        """
        return self._substituted(images, self.ring.truncation)

    def cut(self, ring: PolyRing) -> "QHalfSeries":
        """The terms of degree at most `ring.truncation`, re-keyed by generator name onto `ring.table`.

        The target truncation is at most this series' own: a ValueError
        otherwise, also for a rational series, whose truncation is 0 (lift it
        with `promote`).  A generator that this table lacks gets exponent 0,
        so a cut onto a larger table is the embedding.  A kept term that
        carries a generator the target table lacks, or a generator that it
        gives another degree, is a ValueError (`algebra._relaid`).  The q-cap
        is kept.
        """
        if ring.truncation > self.ring.truncation:
            raise ValueError(f"cannot cut a series truncated at degree {self.ring.truncation} to degree {ring.truncation}")
        return self._reshaped(ring, self.cap)

    def promote(self, ring: PolyRing) -> "QHalfSeries":
        """Explicitly lift a rational series into `ring`: each coefficient becomes a constant.

        A series over the empty table is exact at every truncation, so it is
        the one series that may move to a higher truncation; any other is a
        RingMismatchError.
        """
        if self.ring.table:
            raise RingMismatchError("promote applies to rational series, those over the empty table")
        return self._reshaped(ring, self.cap)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        coeffs = self.coeffs
        if not self.ring.table:  # constant coefficients render as numbers: "1 - 264*q"
            return _render_terms((coeffs[j2].constant_term, _q_power(j2)) for j2 in sorted(coeffs))
        parts = []
        for j2 in sorted(coeffs):
            power = _q_power(j2)
            body = f"({coeffs[j2].render()})"
            if power:
                body = f"{body}*{power}"
            parts.append(body if not parts else f"+ {body}")
        return " ".join(parts) if parts else "0"


def qseries_exp(x: QHalfSeries) -> QHalfSeries:
    """exp of a q-series, pinned by nilpotence.

    Needs every term to carry a positive weight (polynomial degree plus the
    doubled q-exponent), i.e. the q^0 coefficient must have no constant term.
    Solved by q-power by `algebra._exp_form` over the ring's flat keys
    (`IntForm._kernel`): the exp of the q^0 coefficient, then each
    half-power's whole coefficient from the lower ones.  The result keeps
    the solved parts' ints.
    """
    if x.items and x.items[0][2] == 0:  # the unit flat key is 0 and sorts first
        raise ValueError("qseries_exp needs a zero constant term at q^0")
    return x._kernel(_exp_form)


def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None, typed=True)
def eisenstein(weight: int, cap: int) -> QHalfSeries:
    """Normalized weight-4 or weight-6 Eisenstein series through q^cap."""
    _integer(weight, "weights")
    _nonnegative_int(cap, "q-cap")
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


@lru_cache(maxsize=None, typed=True)
def modular_basis(weight: int, cap: int) -> tuple:
    """The echelon (Miller) basis (f_0, ..., f_{d-1}) of M_k, k = weight and
    d = dim M_k, through q^cap: f_i = q^i + O(q^d).

    The d monomials E4^a * E6^b with 4a + 6b = k are a basis of M_k; they
    are row-reduced over Q on their first d coefficients (W. Stein, *Modular
    Forms: A Computational Approach*, ch. 2), and the result is integral.
    The rows are worked through q^max(cap, k // 12), so that every pivot
    exists, and cut back to `cap`.  A weight below 4 or with no monomial (2,
    odd, negative) is a ValueError.
    """
    _integer(weight, "weights")
    work_cap = max(_nonnegative_int(cap, "q-cap"), weight // 12)
    e4, e6 = eisenstein(4, work_cap), eisenstein(6, work_cap)
    rows = [e4 ** a * e6 ** ((weight - 4 * a) // 6) for a in range(weight // 4, -1, -1) if (weight - 4 * a) % 6 == 0]
    if weight < 4 or not rows:
        raise ValueError(f"no modular basis of weight {weight}")
    # With E4's powers falling from the first row's a (E6's b), the first i rows
    # span E4^(a-3i+3)*E6^b times (E4^3)^(i-1-j)*Delta^j, j < i, as E6^2 =
    # E4^3 - 1728*Delta: forms that vanish to order j at q = 0, so no pivot is 0.
    for i in range(len(rows)):
        pivot = rows[i] * (1 / rows[i].coefficient_q(i).constant_term)
        rows = [pivot if r == i else row - pivot * row.coefficient_q(i).constant_term for r, row in enumerate(rows)]
    return tuple(row._reshaped(RATIONALS, cap) for row in rows)
