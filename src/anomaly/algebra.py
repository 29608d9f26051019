"""Exact graded polynomial algebra over named even-degree generators.

Coefficients are `fractions.Fraction` values throughout; no floats enter any
computation.  Every polynomial carries an even truncation degree and drops
monomials above it, so all arithmetic happens in a truncated graded ring.
Arithmetic between operands with different truncations truncates to the
smaller one.

Products run through one integer-numerator convolution, `_convolve`, shared
with the two-variable series of `theta` and the q-series of `qseries`: each
operand is scaled to integer numerators over one common denominator, the
numerators are multiplied and summed as ints, and one `Fraction` is built per
output term.  A q-series product is one `_multiply` over flat
(j2, *exponents) keys, graded by degree with the doubled q-exponent as side
grade.

Inside the kernel every key is one packed int, one fixed-width digit per
component, so a product key is one int addition.  Each operand key is packed
once per call and each output key unpacked once.  Every key component is at
most the grade or side grade it adds to (a generator exponent is at most the
degree; a doubled q-exponent or a t-power is itself one of the grades), and
the convolution keeps only products within both limits, so a digit that
holds max(limit, side_limit) never carries into its neighbour;
`_weight_recurrence` sizes its digits for limit + side_limit.  A digit is
the narrowest of 8, 16, 32 or 64 bits that holds that bound, and terms past
a limit are dropped before packing.

exp, log and inverse each have one implementation, `_exp`, `_log` and
`_inverse`, over key -> Fraction maps graded like `_convolve` input.  They
solve the weight-by-weight recurrences of `_weight_recurrence` and back
`exp_truncated`/`log_truncated` here, `TwoVarSeries.inverse`/`log` in
`theta`, `qseries_exp` in `qseries` and the genus log-coefficients in
`genera`.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping

Rational = Fraction

_ZERO = Fraction(0)

_BYTE_ORDER = sys.byteorder


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {value!r}")


class GeneratorTable:
    """Ordered table of polynomial generators with even cohomological degrees.

    Names are unique; `cL`, when present, must be the only degree-2 generator
    so that substitutions targeting cL^2 stay unambiguous.
    """

    __slots__ = ("generators", "degrees", "_index", "_degree_of")  # names derives from generators

    def __init__(self, generators: Iterable[tuple[str, int]]):
        gens = tuple((str(name), int(degree)) for name, degree in generators)
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, degree in gens:
            if degree <= 0 or degree % 2 != 0:
                raise ValueError(f"generator {name!r} needs a positive even degree, got {degree}")
        if "cL" in names:
            degree2 = [name for name, degree in gens if degree == 2]
            if degree2 != ["cL"]:
                raise ValueError("cL must be the only degree-2 generator when present")
        self.generators = gens
        self.degrees = tuple(degree for _, degree in gens)
        self._index = {name: i for i, (name, _) in enumerate(gens)}
        self._degree_of: dict[tuple[int, ...], int] = {}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __contains__(self, name) -> bool:
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, GeneratorTable) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        inner = ", ".join(f"{name}:{degree}" for name, degree in self.generators)
        return f"GeneratorTable({inner})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def degree_of(self, name: str) -> int:
        return self.degrees[self.index(name)]

    def monomial_degree(self, expts: tuple[int, ...]) -> int:
        """Degree of an exponent tuple, memoized per table."""
        degree = self._degree_of.get(expts)
        if degree is None:
            degree = self._degree_of[expts] = sum(map(mul, expts, self.degrees))
        return degree

    def family_size(self, family: str) -> int:
        """Number of consecutive generators family1, family2, ... present."""
        i = 1
        while f"{family}{i}" in self._index:
            i += 1
        return i - 1

    def monomial_string(self, expts: tuple[int, ...]) -> str:
        parts = []
        for (name, _), e in zip(self.generators, expts):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def parse_monomial(self, text: str) -> tuple[int, ...]:
        """Inverse of monomial_string; accepts e.g. "pX1^2*pX2" or "1"."""
        expts = [0] * len(self.generators)
        text = text.strip()
        if text in ("", "1"):
            return tuple(expts)
        for factor in text.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, _, power = factor.partition("^")
                e = int(power)
            else:
                name, e = factor, 1
            if e < 1:
                raise ValueError(f"bad exponent in monomial factor {factor!r}")
            expts[self.index(name.strip())] += e
        return tuple(expts)


def pontryagin_table(dim: int, *, aux: bool = False, line: bool = False) -> GeneratorTable:
    """Standard generator table for a dimension-`dim` computation.

    Generators pX1..pX_{dim//4} of degree 4i; with `aux` also pV1..pV_{dim//4};
    with `line` also the degree-2 class cL.
    """
    if dim < 4:
        raise ValueError("dimension must be at least 4")
    gens = [(f"pX{i}", 4 * i) for i in range(1, dim // 4 + 1)]
    if aux:
        gens += [(f"pV{i}", 4 * i) for i in range(1, dim // 4 + 1)]
    if line:
        gens.append(("cL", 2))
    return GeneratorTable(gens)


def _pack_bytes(key: tuple[int, ...]) -> int:
    return int.from_bytes(bytes(key), _BYTE_ORDER)


def _unpack_bytes(packed: int, length: int) -> tuple[int, ...]:
    return tuple(packed.to_bytes(length, _BYTE_ORDER))


def _key_codec(top: int):
    """`(pack, unpack)` for int-tuple keys whose components are at most `top`.

    `pack(key)` is one int with one digit per component, of the narrowest
    machine width (8, 16, 32 or 64 bits) that holds `top`;
    `unpack(packed, length)` is its inverse.  Two packed keys add
    componentwise as long as no component sum exceeds `top`.
    """
    if top < 0x100:
        return _pack_bytes, _unpack_bytes
    for code in "HIQ":
        size = array(code).itemsize
        if top < 1 << 8 * size:
            break
    else:
        raise OverflowError(f"key components up to {top} do not fit a 64-bit digit")

    def pack(key):
        return int.from_bytes(array(code, key), _BYTE_ORDER)

    def unpack(packed, length):
        return tuple(memoryview(packed.to_bytes(length * size, _BYTE_ORDER)).cast(code))

    return pack, unpack


def _scaled_terms(terms: Mapping, grade, pack, limit: int, side_limit: int = 0) -> tuple[int, list]:
    """`terms` with packed keys over one common denominator, as `_convolve` input.

    `grade(key)` returns the key's (grade, side grade).  Returns the
    denominator and the `(grade, side, packed key, numerator)` list, sorted
    by grade.  A term past `limit` or `side_limit` takes part in no product
    and is dropped here, so every packed component fits its digit.
    """
    den = lcm(*[c.denominator for c in terms.values()])
    items = [
        (g, side, pack(key), c.numerator * (den // c.denominator))
        for (g, side), (key, c) in zip(map(grade, terms), terms.items())
        if g <= limit and side <= side_limit
    ]
    items.sort(key=itemgetter(0))
    return den, items


def _convolve(acc: dict, left: list, right: list, limit: int, side_limit: int = 0) -> None:
    """Add the truncated product of two `_scaled_terms` lists into `acc`.

    Keys are packed ints that add componentwise; `acc` maps them to int sums
    of numerator products, over the product of the two lists' denominators.
    A product whose grade exceeds `limit` or whose side grade exceeds
    `side_limit` is dropped.  Both lists are sorted by grade, so each scan
    stops at the first grade past the limit.
    """
    get = acc.get
    for g1, s1, k1, n1 in left:
        room = limit - g1
        if room < 0:
            break
        side_room = side_limit - s1
        if side_room < 0:
            continue
        for g2, s2, k2, n2 in right:
            if g2 > room:
                break
            if s2 <= side_room:
                key = k1 + k2
                acc[key] = get(key, 0) + n1 * n2


def _fractions(acc: dict, den: int, unpack, length: int) -> dict:
    """The nonzero `_convolve` sums as Fractions over `den`, keyed by unpacked keys."""
    return {unpack(key, length): Fraction(value, den) for key, value in acc.items() if value}


def _multiply(a_terms: Mapping, b_terms: Mapping, grade, limit: int, side_limit: int = 0) -> dict:
    """The truncated product of two key -> Fraction maps, as a new map.

    `grade`, `limit` and `side_limit` are as for `_scaled_terms` and
    `_convolve`.  Keys are packed with digits that hold max(limit,
    side_limit).
    """
    if not a_terms or not b_terms:
        return {}
    pack, unpack = _key_codec(max(limit, side_limit))
    den1, left = _scaled_terms(a_terms, grade, pack, limit, side_limit)
    den2, right = _scaled_terms(b_terms, grade, pack, limit, side_limit)
    acc: dict = {}
    _convolve(acc, left, right, limit, side_limit)
    return _fractions(acc, den1 * den2, unpack, len(next(iter(a_terms))))


def _weight_recurrence(a_terms: Mapping, b0: dict, divisor, grade, limit: int, side_limit: int = 0) -> dict:
    """Solve a series b weight by weight through `_convolve`.

    Keys are graded by `grade(key) -> (grade, side grade)` and weighted by
    grade + side grade.  `a_terms` is scaled to integer numerators A over its
    common denominator D, and for w = 1..limit + side_limit the weight-w part
    of b is

        b_w = (sum_{v >= 1} A_v * b_(w-v)) / divisor(w, D),

    the power-series recurrence of Brent and Kung ("Fast algorithms for
    manipulating formal power series", J. ACM 1978) behind inverse and exp.
    `b0` is the weight-0 part.  Keys are packed with digits that hold
    limit + side_limit.  Each solved b_w stays packed, over its own common
    denominator, for the later weights, so every b_w is summed in ints and
    every key is unpacked and turned into a Fraction once.  Returns all of b
    as one key -> Fraction dict.
    """
    pack, unpack = _key_codec(limit + side_limit)
    length = len(next(iter(b0)))
    den, items = _scaled_terms(a_terms, grade, pack, limit, side_limit)
    a: dict[int, list] = {}
    for item in items:
        weight = item[0] + item[1]
        if weight:
            a.setdefault(weight, []).append(item)
    b = dict(b0)
    solved = {0: _scaled_terms(b0, grade, pack, limit, side_limit)}
    for w in range(1, limit + side_limit + 1):
        parts = [(av, solved[w - v]) for v, av in a.items() if w - v in solved]
        if not parts:
            continue
        common = lcm(*[bden for _, (bden, _) in parts])
        acc: dict = {}
        for av, (bden, bu) in parts:
            scale = common // bden
            left = av if scale == 1 else [(g, side, key, num * scale) for g, side, key, num in av]
            _convolve(acc, left, bu, limit, side_limit)
        total = divisor(w, den) * common
        bucket = [(packed, Fraction(value, total)) for packed, value in acc.items() if value]
        if not bucket:
            continue
        bden = lcm(*[c.denominator for _, c in bucket])
        items = []
        for packed, c in bucket:
            key = unpack(packed, length)
            b[key] = c
            items.append((*grade(key), packed, c.numerator * (bden // c.denominator)))
        items.sort(key=itemgetter(0))
        solved[w] = (bden, items)
    return b


# exp, log and inverse of key -> Fraction maps.  `grade`, `limit` and
# `side_limit` are as for `_convolve`; `unit` is the key of the constant term.
# The callers check the constant term: these helpers trust it.


def _euler(terms: Mapping, grade) -> dict:
    """The Euler operator E: each term scaled by its weight, grade + side grade."""
    scaled = {}
    for key, c in terms.items():
        weight = sum(grade(key))
        if weight:
            scaled[key] = c * weight
    return scaled


def _exp(terms: Mapping, unit, grade, limit: int, side_limit: int = 0) -> dict:
    """exp(x) for x with no weight-0 term: w * f_w = sum_v E(x)_v * f_(w-v)."""
    return _weight_recurrence(
        _euler(terms, grade), {unit: Fraction(1)}, lambda w, den: w * den, grade, limit, side_limit
    )


def _inverse(terms: Mapping, unit, grade, limit: int, side_limit: int = 0) -> dict:
    """a^(-1) for a nonzero constant a_0: b_w = -(1/a_0) * sum_{v >= 1} a_v * b_(w-v)."""
    lead = terms[unit]
    return _weight_recurrence(
        terms, {unit: 1 / lead}, lambda w, den: -lead.numerator * (den // lead.denominator), grade, limit, side_limit
    )


def _log(terms: Mapping, unit, grade, limit: int, side_limit: int = 0) -> dict:
    """log(a) for a_0 = 1, by the Euler-operator identity w * log(a)_w = (E(a) * a^(-1))_w."""
    inverse = _inverse(terms, unit, grade, limit, side_limit)
    product = _multiply(_euler(terms, grade), inverse, grade, limit, side_limit)
    return {key: c / sum(grade(key)) for key, c in product.items()}


class GradedPoly:
    """Truncated polynomial with Fraction coefficients over a GeneratorTable.

    Terms are keyed by exponent tuples parallel to the table; zero
    coefficients and terms above the truncation degree are never stored.
    Instances are treated as immutable.

    The public constructor validates and cleans its input.  Arithmetic
    results go through `_make` instead, which trusts that the invariants
    already hold.  Products use the integer-numerator kernel (`_multiply`
    over `_convolve`), with both operands sorted by degree so each scan
    stops at the truncation.
    """

    __slots__ = ("table", "truncation", "terms")

    def __init__(self, table: GeneratorTable, truncation: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        truncation = int(truncation)
        if truncation < 0 or truncation % 2 != 0:
            raise ValueError(f"truncation must be a nonnegative even integer, got {truncation}")
        self.table = table
        self.truncation = truncation
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expts, coeff in terms.items():
                coeff = as_rational(coeff)
                if not coeff:
                    continue
                expts = tuple(int(e) for e in expts)
                if len(expts) != len(table):
                    raise ValueError("exponent tuple does not match the generator table")
                if table.monomial_degree(expts) <= truncation:
                    clean[expts] = coeff
        self.terms = clean

    @classmethod
    def _make(cls, table: GeneratorTable, truncation: int, terms: dict[tuple[int, ...], Fraction]) -> "GradedPoly":
        """Trusted constructor for arithmetic results; checks nothing.

        The caller guarantees a nonnegative even int truncation, exponent
        tuples of the table's length, nonzero Fraction coefficients and no
        term above the truncation.  `terms` is stored, not copied.
        """
        poly = object.__new__(cls)
        poly.table = table
        poly.truncation = truncation
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table, truncation) -> "GradedPoly":
        return cls(table, truncation)

    @classmethod
    def constant(cls, table, truncation, value) -> "GradedPoly":
        return cls(table, truncation, {(0,) * len(table): as_rational(value)})

    @classmethod
    def one(cls, table, truncation) -> "GradedPoly":
        return cls.constant(table, truncation, 1)

    @classmethod
    def generator(cls, table, name, truncation) -> "GradedPoly":
        expts = [0] * len(table)
        expts[table.index(name)] = 1
        return cls(table, truncation, {tuple(expts): Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _check_table(self, other: "GradedPoly"):
        if self.table != other.table:
            raise ValueError("polynomials live over different generator tables")

    def __add__(self, other):
        terms = dict(self.terms)
        if isinstance(other, (int, Fraction)):
            unit = (0,) * len(self.table)
            value = terms.get(unit, _ZERO) + other
            if value:
                terms[unit] = value
            else:
                terms.pop(unit, None)
            return GradedPoly._make(self.table, self.truncation, terms)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_table(other)
        for expts, coeff in other.terms.items():
            value = terms.get(expts)
            if value is None:
                terms[expts] = coeff
                continue
            value += coeff
            if value:
                terms[expts] = value
            else:
                del terms[expts]
        trunc = min(self.truncation, other.truncation)
        if trunc < max(self.truncation, other.truncation):
            degree = self.table.monomial_degree
            terms = {e: c for e, c in terms.items() if degree(e) <= trunc}
        return GradedPoly._make(self.table, trunc, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._make(self.table, self.truncation, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = {e: other * v for e, v in self.terms.items()} if other else {}
            return GradedPoly._make(self.table, self.truncation, terms)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_table(other)
        trunc = min(self.truncation, other.truncation)
        degree = self.table.monomial_degree
        terms = _multiply(self.terms, other.terms, lambda expts: (degree(expts), 0), trunc)
        return GradedPoly._make(self.table, trunc, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_rational(scalar)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = GradedPoly.one(self.table, self.truncation)
        for _ in range(n):
            result = result * self
            if result.is_zero():
                break
        return result

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and self.table == other.table
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    __hash__ = None

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.table), _ZERO)

    def coefficient(self, monomial: Mapping[str, int] | str) -> Fraction:
        if isinstance(monomial, str):
            expts = self.table.parse_monomial(monomial)
        else:
            e = [0] * len(self.table)
            for name, power in monomial.items():
                e[self.table.index(name)] = int(power)
            expts = tuple(e)
        return self.terms.get(expts, _ZERO)

    def homogeneous_component(self, d: int) -> "GradedPoly":
        degree = self.table.monomial_degree
        return GradedPoly._make(self.table, self.truncation, {e: c for e, c in self.terms.items() if degree(e) == d})

    def degrees_present(self) -> list[int]:
        degree = self.table.monomial_degree
        return sorted({degree(e) for e in self.terms})

    def truncate(self, truncation: int) -> "GradedPoly":
        """The polynomial truncated to `truncation`; itself if that lowers nothing."""
        if truncation >= self.truncation:
            return self
        return GradedPoly(self.table, truncation, self.terms)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, "GradedPoly"], truncation: int | None = None) -> "GradedPoly":
        """Replace generators by polynomials; unmapped generators pass through.

        All image polynomials must share one generator table, which becomes
        the table of the result; unmapped generators must exist there by name.
        Each power of an image is built once per call.
        """
        target = None
        for poly in images.values():
            if target is None:
                target = poly.table
            elif poly.table != target:
                raise ValueError("substitution images live over different generator tables")
        if target is None:
            target = self.table
        trunc = self.truncation if truncation is None else truncation
        for poly in images.values():
            trunc = min(trunc, poly.truncation)

        cache: list[GradedPoly | None] = [None] * len(self.table)

        def image_of(i: int) -> GradedPoly:
            if cache[i] is None:
                name = self.table.generators[i][0]
                if name in images:
                    cache[i] = images[name].truncate(trunc)
                else:
                    cache[i] = GradedPoly.generator(target, name, trunc)
            return cache[i]

        powers: dict[tuple[int, int], GradedPoly] = {}

        def power_of(i: int, e: int) -> GradedPoly:
            """image_of(i) ** e, each (i, e) built once per call."""
            power = powers.get((i, e))
            if power is None:
                power = image_of(i) if e == 1 else power_of(i, e - 1) * image_of(i)
                powers[(i, e)] = power
            return power

        acc = GradedPoly.zero(target, trunc)
        for expts, coeff in self.terms.items():
            term = GradedPoly.constant(target, trunc, coeff)
            for i, e in enumerate(expts):
                if e:
                    term = term * power_of(i, e)
                    if term.is_zero():
                        break
            acc = acc + term
        return acc

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (degree, exponents)."""
        if not self.terms:
            return "0"
        degree = self.table.monomial_degree
        items = sorted(self.terms.items(), key=lambda kv: (degree(kv[0]), kv[0]))
        parts: list[str] = []
        for expts, coeff in items:
            mono = self.table.monomial_string(expts)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"GradedPoly({self.render()})"


def top_component(x: GradedPoly, d: int) -> GradedPoly:
    """Degree-d homogeneous component of x (the {.}^{(d)} extraction)."""
    return x.homogeneous_component(d)


def power_sum_in_pontryagin(table: GeneratorTable, family: str, m: int, truncation: int | None = None) -> GradedPoly:
    """m-th power sum of squared roots, written in the family's generators.

    With the family generators playing the elementary symmetric functions of
    the squared roots, returns the degree-4m polynomial expressing the m-th
    power sum via the Newton recursion.  Generators whose degree exceeds the
    truncation act as zero.
    """
    if m <= 0:
        raise ValueError("power sum index must be positive")
    size = table.family_size(family)
    if size == 0:
        raise ValueError(f"unknown generator family {family!r}")
    if truncation is None:
        truncation = max(table.degrees)
    zero = GradedPoly.zero(table, truncation)
    elem: list[GradedPoly] = []
    for i in range(1, m + 1):
        if 4 * i > truncation:
            elem.append(zero)
        elif i <= size:
            elem.append(GradedPoly.generator(table, f"{family}{i}", truncation))
        else:
            raise ValueError(f"family {family!r} is missing generator {family}{i} below the truncation")
    sums: list[GradedPoly] = []
    for k in range(1, m + 1):
        acc = (k if (k - 1) % 2 == 0 else -k) * elem[k - 1]
        for i in range(1, k):
            contrib = elem[i - 1] * sums[k - i - 1]
            acc = acc + (contrib if (i - 1) % 2 == 0 else -contrib)
        sums.append(acc)
    return sums[m - 1]


def _series_map(kernel, x: GradedPoly) -> GradedPoly:
    """Apply an exp/log kernel to a polynomial, graded by degree."""
    degree = x.table.monomial_degree
    unit = (0,) * len(x.table)
    terms = kernel(x.terms, unit, lambda expts: (degree(expts), 0), x.truncation)
    return GradedPoly._make(x.table, x.truncation, terms)


def exp_truncated(x: GradedPoly) -> GradedPoly:
    """exp of a polynomial with zero constant term (nilpotent under truncation)."""
    if x.constant_term:
        raise ValueError("exp_truncated needs a zero constant term")
    return _series_map(_exp, x)


def log_truncated(x: GradedPoly) -> GradedPoly:
    """log of a polynomial with constant term 1."""
    if x.constant_term != 1:
        raise ValueError("log_truncated needs constant term 1")
    return _series_map(_log, x)
