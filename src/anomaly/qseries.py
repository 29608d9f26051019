"""Truncated formal q-series with half-integer exponents.

Exponents are stored doubled (the key j means q^(j/2)), so only integers are
ever used as dictionary keys.  Coefficients live either in the rationals or
in a truncated graded polynomial ring; mixing the two is an error unless the
rational series is promoted explicitly.

Products and `qseries_exp` run on the integer-numerator kernel of `algebra`
over flat keys: each ring flattens a coefficient map to one key -> Fraction
map, keyed (j2, *exponents) over a polynomial ring and (j2,) over the
rationals, graded by polynomial degree with the doubled q-exponent as side
grade.  A product is then one `_multiply` call, so every output coefficient
is summed in ints and becomes one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .algebra import GeneratorTable, GradedPoly, _exp, _multiply, as_rational


class RingMismatchError(TypeError):
    """Raised when q-series over incompatible coefficient rings are combined."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose leading coefficient is not a unit."""


def _rational_grade(key: tuple[int]) -> tuple[int, int]:
    """Kernel grade of a flat rational key (j2,): degree 0, side grade j2."""
    return 0, key[0]


class RationalRing:
    """Coefficient ring marker: plain Fraction coefficients."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        return as_rational(value)

    def is_zero(self, value) -> bool:
        return not value

    def flatten(self, coeffs: dict) -> dict:
        """j2 -> Fraction as (j2,) -> Fraction."""
        return {(j2,): value for j2, value in coeffs.items()}

    def unflatten(self, terms: dict) -> dict:
        """Inverse of `flatten`."""
        return {key[0]: value for key, value in terms.items()}

    def flat_grade(self):
        """The kernel's grade function and grade limit for flat keys."""
        return _rational_grade, 0

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
    missing degrees would otherwise read as zeros.
    """

    def __init__(self, table: GeneratorTable, truncation: int):
        self.table = table
        self.truncation = int(truncation)

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

    def flatten(self, coeffs: dict) -> dict:
        """j2 -> GradedPoly as (j2, *exponents) -> Fraction."""
        return {(j2, *expts): c for j2, poly in coeffs.items() for expts, c in poly.terms.items()}

    def unflatten(self, terms: dict) -> dict:
        """Inverse of `flatten` for kernel output: no zero, nothing past the truncation."""
        polys: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for key, c in terms.items():
            polys.setdefault(key[0], {})[key[1:]] = c
        table, truncation = self.table, self.truncation
        return {j2: GradedPoly._make(table, truncation, poly) for j2, poly in polys.items()}

    def flat_grade(self):
        """The kernel's grade function, (degree, j2), and the truncation as grade limit."""
        degree = self.table.monomial_degree
        return (lambda key: (degree(key[1:]), key[0])), self.truncation

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


class QHalfSeries:
    """Finite expansion sum_j c_j * q^(j/2), keyed by the doubled exponent j.

    The cap N bounds the stored powers: 0 <= j <= 2N.  Instances are treated
    as immutable.  No zero coefficient is stored, and over a PolyRing every
    coefficient sits at the ring's truncation.
    """

    __slots__ = ("ring", "cap", "coeffs")

    def __init__(self, ring, cap: int, coeffs=None):
        cap = int(cap)
        if cap < 0:
            raise ValueError("q-cap must be nonnegative")
        self.ring = ring
        self.cap = cap
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
        self.coeffs = clean

    @classmethod
    def _make(cls, ring, cap: int, coeffs: dict) -> "QHalfSeries":
        """Trusted constructor for kernel results; checks nothing.

        The caller guarantees a nonnegative int cap, keys 0 <= j2 <= 2*cap and
        nonzero coefficients already in `ring`.  `coeffs` is stored, not copied.
        """
        series = object.__new__(cls)
        series.ring = ring
        series.cap = cap
        series.coeffs = coeffs
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, cap):
        return cls(ring, cap)

    @classmethod
    def one(cls, ring, cap):
        return cls(ring, cap, {0: ring.one()})

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
        return all(j2 % 2 == 0 for j2 in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, QHalfSeries)
            and self.ring == other.ring
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QHalfSeries):
            return NotImplemented
        ring = merge_rings(self.ring, other.ring)
        cap = min(self.cap, other.cap)
        coeffs = dict(self.coeffs)
        for j2, value in other.coeffs.items():
            coeffs[j2] = coeffs[j2] + value if j2 in coeffs else value
        return QHalfSeries(ring, cap, coeffs)

    def __neg__(self):
        return QHalfSeries(self.ring, self.cap, {j2: -v for j2, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The truncated product: one `algebra._multiply` over the rings' flat keys.

        Both operands are flattened in the merged ring, so a polynomial product
        is graded by degree (limit: the ring's truncation) with the doubled
        q-exponent as side grade (limit: 2*cap).
        """
        if not isinstance(other, QHalfSeries):
            return NotImplemented
        ring = merge_rings(self.ring, other.ring)
        cap = min(self.cap, other.cap)
        grade, limit = ring.flat_grade()
        terms = _multiply(ring.flatten(self.coeffs), ring.flatten(other.coeffs), grade, limit, 2 * cap)
        return QHalfSeries._make(ring, cap, ring.unflatten(terms))

    def scale(self, value):
        """Multiply every coefficient by a fixed ring element or scalar."""
        value = self.ring.coerce(value)
        return QHalfSeries(self.ring, self.cap, {j2: value * c for j2, c in self.coeffs.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = QHalfSeries.one(self.ring, self.cap)
        for _ in range(n):
            result = result * self
        return result

    # -- structure maps ------------------------------------------------------

    def tau_shift_half(self) -> "QHalfSeries":
        """The substitution q^(1/2) -> -q^(1/2): negates odd doubled exponents."""
        return QHalfSeries(self.ring, self.cap, {j2: (-v if j2 % 2 else v) for j2, v in self.coeffs.items()})

    def map_coefficients(self, fn: Callable, ring=None) -> "QHalfSeries":
        ring = self.ring if ring is None else ring
        return QHalfSeries(ring, self.cap, {j2: fn(v) for j2, v in self.coeffs.items()})

    def promote(self, ring: PolyRing) -> "QHalfSeries":
        """Explicitly lift rational coefficients into a polynomial ring."""
        if not isinstance(self.ring, RationalRing):
            raise RingMismatchError("promote applies to rational-coefficient series")
        return QHalfSeries(ring, self.cap, {j2: ring.coerce(v) for j2, v in self.coeffs.items()})

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j2 in sorted(self.coeffs):
            value = self.coeffs[j2]
            if j2 == 0:
                power = ""
            elif j2 == 2:
                power = "q"
            elif j2 % 2 == 0:
                power = f"q^{j2 // 2}"
            else:
                power = f"q^({j2}/2)"
            if isinstance(value, GradedPoly):
                body = f"({value.render()})"
                if power:
                    body = f"{body}*{power}"
                parts.append(body if not parts else f"+ {body}")
            else:
                mag = abs(value)
                if not power:
                    body = str(mag)
                elif mag == 1:
                    body = power
                else:
                    body = f"{mag}*{power}"
                if not parts:
                    parts.append(body if value > 0 else f"-{body}")
                else:
                    parts.append(f"+ {body}" if value > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QHalfSeries({self.render()})"


def tau_shift_half(a: QHalfSeries) -> QHalfSeries:
    return a.tau_shift_half()


def qseries_exp(x: QHalfSeries) -> QHalfSeries:
    """exp of a q-series over a polynomial ring, pinned by nilpotence.

    Needs every term to carry a positive weight (polynomial degree plus the
    doubled q-exponent), i.e. the q^0 coefficient must have no constant term.
    Solved weight by weight by `algebra._exp` over the ring's flat keys,
    (j2, *exponents).
    """
    ring = x.ring
    if not isinstance(ring, PolyRing):
        raise RingMismatchError("qseries_exp needs polynomial coefficients")
    q0 = x.coeffs.get(0)
    if q0 is not None and q0.constant_term:
        raise ValueError("qseries_exp needs a zero constant term at q^0")

    grade, limit = ring.flat_grade()
    terms = _exp(ring.flatten(x.coeffs), (0,) * (len(ring.table) + 1), grade, limit, 2 * x.cap)
    return QHalfSeries._make(ring, x.cap, ring.unflatten(terms))


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
