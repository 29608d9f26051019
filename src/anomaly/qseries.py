"""Truncated formal q-series with half-integer exponents.

Exponents are stored doubled (the key j means q^(j/2)), so only integers are
ever used as dictionary keys.  Coefficients live either in the rationals or
in a truncated graded polynomial ring; mixing the two is an error unless the
rational series is promoted explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .algebra import GeneratorTable, GradedPoly, _exp, as_rational


class RingMismatchError(TypeError):
    """Raised when q-series over incompatible coefficient rings are combined."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose leading coefficient is not a unit."""


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

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(RationalRing)

    def __repr__(self):
        return "RationalRing()"


class PolyRing:
    """Coefficient ring marker: GradedPoly coefficients over a fixed table."""

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
            return value if value.truncation == self.truncation else value.truncate(self.truncation)
        return GradedPoly.constant(self.table, self.truncation, value)

    def is_zero(self, value) -> bool:
        return value.is_zero()

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
    as immutable.
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
        if not isinstance(other, QHalfSeries):
            return NotImplemented
        ring = merge_rings(self.ring, other.ring)
        cap = min(self.cap, other.cap)
        out = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j = j1 + j2
                if j > 2 * cap:
                    continue
                prod = c1 * c2
                out[j] = out[j] + prod if j in out else prod
        return QHalfSeries(ring, cap, out)

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
    Solved weight by weight by `algebra._exp`, with the terms keyed by
    (j2, *exponents).
    """
    ring = x.ring
    if not isinstance(ring, PolyRing):
        raise RingMismatchError("qseries_exp needs polynomial coefficients")
    q0 = x.coeffs.get(0)
    if q0 is not None and q0.constant_term:
        raise ValueError("qseries_exp needs a zero constant term at q^0")

    table = ring.table
    degree = table.monomial_degree
    terms = _exp(
        {(j2, *expts): coeff for j2, poly in x.coeffs.items() for expts, coeff in poly.terms.items()},
        (0,) * (len(table) + 1),
        lambda key: (degree(key[1:]), key[0]),
        ring.truncation,
        2 * x.cap,
    )
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for key, coeff in terms.items():
        out.setdefault(key[0], {})[key[1:]] = coeff
    return QHalfSeries(ring, x.cap, {j2: GradedPoly._make(table, ring.truncation, poly) for j2, poly in out.items()})


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
