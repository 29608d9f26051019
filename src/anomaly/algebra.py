"""Exact graded polynomial algebra over named even-degree generators.

Values are exact rationals throughout; no floats enter any computation.
Every polynomial carries an even truncation degree and drops monomials above
it, so all arithmetic happens in a truncated graded ring.  Arithmetic
between operands with different truncations truncates to the smaller one.

The int form.  A `GradedPoly` keeps one positive int denominator and its
terms as int numerators over it, in lowest terms (gcd(den, *numerators) =
1), so the form is canonical and equality compares ints.  The terms are
`(degree, side grade, packed key, numerator)` tuples in sorted order, which
is exactly the input of the one convolution, `_convolve`: a product is one
`_convolve` plus one gcd reduction (`_int_form`), and its result feeds the
next product as it stands.  The q-series of `qseries`, the theta quotients
of `theta` among them (over the one generator t), keep the same form over
flat keys, with the doubled q-exponent as side grade: every series is an
int form.  The `Fraction` map `GradedPoly.terms` is a view, built on demand
for rendering, evaluation and the public API.

Packed keys (`KeyLayout`).  A key is one int: a monomial's exponents one
digit each from the lowest digit up, then its degree, then the doubled
q-exponent j2 of a q-series term as the top digit (0 for a polynomial).  A
digit is the narrowest of 8, 16, 32 or 64 bits that holds the truncation,
which bounds every exponent and degree kept.  The convolution adds two keys
only when their degree sum and their j2 sum are within the limits, so no
digit carries into its neighbour and a product key is one int addition.  A
key's degree and j2 are read off its digits.

The arithmetic of the int form is written once, in the base class
`IntForm`: equality, negation, sums, scalar and series products, the tau
shift, powers, the unit, `repr`, operand alignment and the exp kernel.
`GradedPoly` here and `qseries.QHalfSeries` are its two subclasses; each
gives only its shape (table or ring, and caps), its key layout, its kernel
limits and `_meet`, the one shape that two operands are brought onto.  One
routine, `_relaid`, moves a form onto another shape: every truncation, cut,
promotion and alignment re-keys through it.

exp is the one series kernel, `_exp_form` over int forms, which solves the
recurrence of `_weight_recurrence`.  The exp of a polynomial steps by weight
(grade + side grade).  The exp of a series with a side grade is solved by
q-power: the exp of its q^0 slice first, by weight, then one step per side
grade, each a few convolutions of whole slices.  `IntForm._kernel` applies
it to either class: it backs `exp_truncated` here and `qseries_exp` in
`qseries`.  No series is inverted, and none has its logarithm taken: the
theta route writes its logarithms in closed form, and the bundle route's
genera take theirs from one-variable factorial series by a recurrence of
their own, so the two routes share no log.

Substitution has one implementation too, the key rewrite
`_substitute_monomials`: each image is a single term (or zero) over the
form's own table, as the case conditions pX1 -> 3*pV1, cL^2 and 3*cL^2 are,
so a term's exponents move to the image's monomial with no product and no
power.  `IntForm._substituted` checks the images and rewrites the keys; it
backs `GradedPoly.substitute` and `QHalfSeries.substitute`.

Coordinates.  Every integrand is a product over Chern roots, so it depends
on the roots only through the power sums s_m of their squares.  A root
family's classes come in two generator tables with the same families,
order and degrees: `pontryagin_table`, whose degree-4m generator pF_m is
the m-th elementary symmetric function of the squared roots, and
`power_sum_table`, whose sF_m is the power sum s_m.  On the first,
`power_sum_in_pontryagin` is the Newton polynomial of s_m, with p(m)
terms; on the second, it is the generator itself.  The bundle, genus and
theta modules compute in the coordinates of the table they are given.  The
verifier builds the routes and the identity catalog's index forms over
power sums, where the inputs have one term per power sum, and converts
only what it reports, by the ring isomorphism `to_pontryagin`.  Since
s1 = p1, a monomial in first classes and cL, as each case condition is,
reads alike in both coordinates (`first_classes`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from collections.abc import Iterable, Mapping

_ZERO = Fraction(0)

_BYTE_ORDER = sys.byteorder


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {value!r}")


def _is_int(value) -> bool:
    """An int that is not a bool: True and False are not ranks, powers, caps or truncations."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """`value` itself when it is an int (not a bool); ValueError naming `what`, a plural, otherwise."""
    if not _is_int(value):
        raise ValueError(f"{what} must be integers, got {value!r}")
    return value


def _nonnegative_int(value, what: str) -> int:
    """`value` itself when it is a nonnegative int; ValueError naming `what` otherwise."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _even_truncation(truncation) -> int:
    """`truncation` itself when it is a nonnegative even int; ValueError otherwise."""
    if _nonnegative_int(truncation, "truncation") % 2:
        raise ValueError(f"truncation must be even, got {truncation!r}")
    return truncation


class GeneratorTable:
    """Ordered table of polynomial generators with even cohomological degrees.

    Names are unique; `cL`, when present, must be the only degree-2 generator
    so that substitutions targeting cL^2 stay unambiguous.  A name must
    round-trip through `monomial_string` and `parse_monomial`: it is not
    empty, not "1" (the unit monomial), and holds no `*`, `^` or whitespace.
    """

    # names derives from generators; pontryagin is set on the tables of `power_sum_table` only
    __slots__ = ("generators", "degrees", "pontryagin", "_index", "_degree_of", "_layouts", "_power_sums", "_images")

    def __init__(self, generators: Iterable[tuple[str, int]]):
        gens = tuple((name, degree) for name, degree in generators)
        names = [name for name, _ in gens]
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"generator names must be strings, got {name!r}")
            if name in ("", "1") or any(c in "*^" or c.isspace() for c in name):
                raise ValueError(f"generator name {name!r} cannot be written in a monomial")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, degree in gens:
            if not _is_int(degree) or degree <= 0 or degree % 2 != 0:
                raise ValueError(f"generator {name!r} needs a positive even degree, got {degree!r}")
        if "cL" in names:
            degree2 = [name for name, degree in gens if degree == 2]
            if degree2 != ["cL"]:
                raise ValueError("cL must be the only degree-2 generator when present")
        self.generators = gens
        self.degrees = tuple(degree for _, degree in gens)
        self._index = {name: i for i, (name, _) in enumerate(gens)}
        self._degree_of: dict[tuple[int, ...], int] = {}
        self._layouts: dict[int, KeyLayout] = {}
        self._power_sums: dict[tuple[str, int], list] = {}
        self.pontryagin: GeneratorTable | None = None
        self._images: dict[int, dict[int, GradedPoly]] = {}

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

    def monomial_degree(self, expts: tuple[int, ...]) -> int:
        """Degree of an exponent tuple, memoized per table."""
        degree = self._degree_of.get(expts)
        if degree is None:
            degree = self._degree_of[expts] = sum(map(mul, expts, self.degrees))
        return degree

    def layout(self, truncation: int) -> "KeyLayout":
        """The packed-key layout for polynomials truncated at `truncation`, one per digit width."""
        bits = _digit_bits(truncation)
        layout = self._layouts.get(bits)
        if layout is None:
            layout = self._layouts[bits] = KeyLayout(self, truncation)
        return layout

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
                if not (power.isascii() and power.isdigit()):
                    raise ValueError(f"bad exponent in monomial factor {factor!r}: expected ASCII digits")
                e = int(power)
            else:
                name, e = factor, 1
            if e < 1:
                raise ValueError(f"bad exponent in monomial factor {factor!r}")
            expts[self.index(name.strip())] += e
        return tuple(expts)


# The interned tables of `pontryagin_table` and `power_sum_table`, by (dim // 4, aux, line, power sums).
_TABLES: dict[tuple[int, bool, bool, bool], GeneratorTable] = {}


def pontryagin_table(dim: int, *, aux: bool = False, line: bool = False) -> GeneratorTable:
    """Standard generator table for a dimension-`dim` computation.

    Generators pX1..pX_{dim//4} of degree 4i; with `aux` also pV1..pV_{dim//4};
    with `line` also the degree-2 class cL.  The tables are interned: equal
    generators give the same instance, however the arguments are spelled, so
    every caller shares its power sums, degree memo and key layouts.
    """
    return _interned(dim, bool(aux), bool(line), False)


def power_sum_table(dim: int, *, aux: bool = False, line: bool = False) -> GeneratorTable:
    """The power-sum table of `pontryagin_table(dim, aux=aux, line=line)`.

    It has the same root families, in the same order, and cL, but its
    degree-4m generator of a family is the power sum s_m of the family's
    squared roots: sX1..sX_{dim//4} and sV1..sV_{dim//4}.  Its `pontryagin`
    is that Pontryagin table, which `to_pontryagin` moves forms onto.  The
    tables are interned like the Pontryagin tables.
    """
    return _interned(dim, bool(aux), bool(line), True)


def _interned(dim, aux: bool, line: bool, power_sums: bool) -> GeneratorTable:
    if not _is_int(dim):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if dim < 4:
        raise ValueError("dimension must be at least 4")
    key = (dim // 4, aux, line, power_sums)
    table = _TABLES.get(key)
    if table is None:
        if power_sums:
            pontryagin = _interned(dim, aux, line, False)
            table = GeneratorTable((_power_sum_name(name) if degree % 4 == 0 else name, degree) for name, degree in pontryagin.generators)
            table.pontryagin = pontryagin
        else:
            gens = [(f"pX{i}", 4 * i) for i in range(1, dim // 4 + 1)]
            if aux:
                gens += [(f"pV{i}", 4 * i) for i in range(1, dim // 4 + 1)]
            if line:
                gens.append(("cL", 2))
            table = GeneratorTable(gens)
        _TABLES[key] = table
    return table


def _power_sum_name(name: str) -> str:
    """The power-sum generator of a Pontryagin generator's family and degree: pX2 -> sX2."""
    return f"s{name[1:]}"


def first_classes(table: GeneratorTable, monomial: str) -> tuple[int, ...]:
    """The exponents on `table` of a monomial in degree-2 and degree-4 classes
    written in Pontryagin names, such as "pX1", "pV1" or "cL^2".

    A root family's first Pontryagin class is its first power sum, p1 = s1,
    so on a power-sum table the monomial names the same class as on its
    Pontryagin table, with the same exponents.  A generator of higher degree
    is a ValueError.
    """
    source = table.pontryagin or table
    expts = source.parse_monomial(monomial)
    if any(e and degree > 4 for e, degree in zip(expts, source.degrees)):
        raise ValueError(f"monomial {monomial!r} is not in degree-2 and degree-4 classes")
    return expts


# -- packed keys -------------------------------------------------------------------


def _digit_bits(top: int) -> int:
    """The narrowest digit width, 8, 16, 32 or 64 bits, that holds `top`."""
    for bits in (8, 16, 32, 64):
        if top < 1 << bits:
            return bits
    raise OverflowError(f"key components up to {top} do not fit a 64-bit digit")


def _pack_bytes(key: tuple[int, ...]) -> int:
    return int.from_bytes(bytes(key), _BYTE_ORDER)


def _unpack_bytes(packed: int, length: int) -> tuple[int, ...]:
    return tuple(packed.to_bytes(length, _BYTE_ORDER))


def _key_codec(top: int):
    """`(bits, pack, unpack)` for int-tuple keys whose components are at most `top`.

    `pack(key)` is one int with one digit per component, `bits` wide: the
    narrowest machine width (8, 16, 32 or 64 bits) that holds `top`, the
    first component in the lowest digit.  `unpack(packed, length)` is its
    inverse.  Two packed keys add componentwise as long as no component sum
    exceeds `top`.
    """
    if _digit_bits(top) == 8:
        return 8, _pack_bytes, _unpack_bytes
    for code in "HIQ":
        size = array(code).itemsize
        if top < 1 << 8 * size:
            break

    def pack(key):
        return int.from_bytes(array(code, key), _BYTE_ORDER)

    def unpack(packed, length):
        return tuple(memoryview(packed.to_bytes(length * size, _BYTE_ORDER)).cast(code))

    return 8 * size, pack, unpack


class KeyLayout:
    """Packed int keys over one generator table, at the digit width of a truncation.

    From the lowest digit up a key holds the monomial's exponents, then its
    degree, then the doubled q-exponent j2 of a q-series term (`qseries`); a
    polynomial's keys have j2 = 0 and the unit monomial's key is 0.  Each
    digit is `bits` wide and holds the truncation, which bounds every
    exponent (generator degrees are at least 2) and every degree kept; j2,
    the top digit, is unbounded.  Tables are equal by their generators, and
    equal tables lay keys out alike.
    """

    __slots__ = ("table", "bits", "mask", "gshift", "sshift", "_pack", "_unpack")

    def __init__(self, table: GeneratorTable, truncation: int):
        self.table = table
        self.bits, self._pack, self._unpack = _key_codec(truncation)
        self.mask = (1 << self.bits) - 1
        self.gshift = self.bits * len(table)
        self.sshift = self.gshift + self.bits

    def pack(self, expts: tuple[int, ...]) -> int:
        """The key of a monomial whose degree is within the truncation."""
        return self._pack(expts) | self.table.monomial_degree(expts) << self.gshift

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key."""
        return self._unpack(key & ((1 << self.gshift) - 1), len(self.table))

    def int_form(self, acc: dict, den: int) -> tuple[int, list]:
        """The nonzero sums of `acc` (key -> int) over `den`, as a canonical int form.

        The degree and j2 of each key are read off its digits.
        """
        gshift, sshift, mask = self.gshift, self.sshift, self.mask
        return _int_form(den, [((key >> gshift) & mask, key >> sshift, key, num) for key, num in acc.items() if num])

    def rational_form(self, coeffs: dict) -> tuple[int, list]:
        """key -> nonzero Fraction as a canonical int form, over the lcm of the denominators."""
        den = lcm(*[c.denominator for c in coeffs.values()])
        return self.int_form({key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den)


def _int_form(den: int, items: list) -> tuple[int, list]:
    """`(den, items)` sorted and in lowest terms; `den` must be positive.

    `items` are `(grade, side grade, packed key, numerator)` tuples with
    nonzero numerators and distinct keys; sorting them orders them by grade
    as `_convolve` scans them.  The result is divided through by
    gcd(den, *numerators); with no items it is (1, []).
    """
    items.sort()
    d = gcd(den, *map(itemgetter(3), items))
    if d != 1:
        den //= d
        items = [(g, side, key, num // d) for g, side, key, num in items]
    return den, items


def _relaid(items: list, old: KeyLayout, new: KeyLayout, limit: int, side_limit: int) -> list:
    """The items of grade at most `limit` and side grade at most `side_limit`,
    their keys moved from `old`'s table onto `new`'s by generator name.

    A key is packed exponents | grade << gshift | side grade << sshift: the
    grade and the side grade stay in their digits.  A generator that the old
    table lacks gets exponent 0.  A shared generator of another degree in
    the new table, or a kept term that carries a generator the new table
    lacks, is a ValueError.  When `new is old` the items are only filtered.
    The result is a new list, unsorted and not reduced: pass it through
    `_int_form`.
    """
    if new is old:
        return [item for item in items if item[0] <= limit and item[1] <= side_limit]
    table, target = old.table, new.table
    for name, degree in target.generators:
        if name in table and table.degrees[table.index(name)] != degree:
            raise ValueError(f"generator {name!r} has another degree, {degree}, in the target table")
    missing = [(i, name) for i, name in enumerate(table.names) if name not in target]
    lacked = sum(old.mask << old.bits * i for i, _ in missing)
    # A generator that the old table lacks reads the 0 appended to each exponent tuple.
    picks = [table.index(name) if name in table else len(table) for name in target.names]
    pack, unpack, gshift, sshift = new._pack, old.unpack, new.gshift, new.sshift
    kept = []
    for g, side, key, num in items:
        if g > limit:
            break  # the items are sorted by grade
        if side > side_limit:
            continue
        if key & lacked:
            name = next(name for i, name in missing if key >> old.bits * i & old.mask)
            raise ValueError(f"a degree-{g} term carries generator {name!r}, which the target table lacks")
        expts = unpack(key) + (0,)
        kept.append((g, side, pack(tuple(expts[i] for i in picks)) | g << gshift | side << sshift, num))
    return kept


def _convolve(acc: dict, left: list, right: list, limit: int, side_limit: int = 0) -> None:
    """Add the truncated product of two int forms' items into `acc`.

    Keys are packed ints that add componentwise; `acc` maps them to int sums
    of numerator products, over the product of the two denominators.  A
    product whose grade exceeds `limit` or whose side grade exceeds
    `side_limit` is dropped.  Both lists are sorted by grade, so each inner
    scan stops at the first grade past the room its outer term leaves; the
    operands are within the limits, so every outer term leaves some.
    """
    get = acc.get
    for g1, s1, k1, n1 in left:
        room, side_room = limit - g1, side_limit - s1
        for g2, s2, k2, n2 in right:
            if g2 > room:
                break
            if s2 <= side_room:
                key = k1 + k2
                acc[key] = get(key, 0) + n1 * n2


# -- exp ---------------------------------------------------------------------------
#
# Over int forms: `items` are sorted `_convolve` input over `den`, and
# `finish(acc, den)` turns a `_convolve` accumulator into an int form (it
# grades the keys: `KeyLayout.int_form` reads the digits).  A term is
# weighted by grade + side grade; the unit key, of weight 0, is 0.  The
# callers check the constant term: these helpers trust it.


def _weight_recurrence(
    den: int, items: list, b0: tuple, divisor, finish, limit: int, side_limit: int = 0, by_side: bool = False
) -> list:
    """Solve a series b step by step through `_convolve`.

    A term's step is its weight, grade + side grade, or with `by_side` its
    side grade alone.  With a = A / den the int form `items`, for
    w = 1..limit + side_limit (by side: w = 1..side_limit) the step-w part
    of b is

        b_w = (sum_{v >= 1} A_v * b_(w-v)) / divisor(w, den),

    the power-series recurrence of Brent and Kung ("Fast algorithms for
    manipulating formal power series", J. ACM 1978) behind the exp.
    `b0` is the step-0 part as an int form: the unit, or by side a whole
    side-0 slice.  Each b_w is summed in ints and kept as its own int form
    for the later steps.  Returns the nonzero parts, b_0 first.
    """
    a: dict[int, list] = {}
    for item in items:
        weight = item[1] if by_side else item[0] + item[1]
        if weight:
            a.setdefault(weight, []).append(item)
    solved = {0: b0}
    for w in range(1, (side_limit if by_side else limit + side_limit) + 1):
        parts = [(av, solved[w - v]) for v, av in a.items() if w - v in solved]
        if not parts:
            continue
        common = lcm(*[bden for _, (bden, _) in parts])
        acc: dict = {}
        for av, (bden, bu) in parts:
            scale = common // bden
            left = av if scale == 1 else [(g, side, key, num * scale) for g, side, key, num in av]
            _convolve(acc, left, bu, limit, side_limit)
        bden, bu = finish(acc, divisor(w, den) * common)
        if bu:
            solved[w] = (bden, bu)
    return list(solved.values())


def _joined(parts: list) -> tuple[int, list]:
    """Int forms with disjoint keys as one int form over the lcm of their denominators.

    Each part is in lowest terms, so the sum is too.
    """
    den = lcm(*[pden for pden, _ in parts])
    items = [
        (g, side, key, num * scale)
        for pden, part in parts
        for scale in (den // pden,)
        for g, side, key, num in part
    ]
    items.sort()
    return den, items


def _exp_form(den: int, items: list, finish, limit: int, side_limit: int = 0) -> tuple[int, list]:
    """exp(x) for x with no weight-0 term.

    With no side grade, weight by weight: w * f_w = sum_v E(x)_v * f_(w-v),
    with E the Euler operator, which scales each term by its weight.
    A series is solved by side grade (its doubled q-exponent), as
    exp(x) = exp(x_0) * exp(x - x_0): f_0 = exp(x_0) of the side-0 slice by
    the weight recurrence, then s * f_s = sum_k k * x_k * f_(s-k) for
    s = 1..side_limit, each x_k and f_s a whole slice.  That is at most
    side_limit steps of few, large convolutions instead of one step per weight.
    """
    if not side_limit:
        unit = (1, [(0, 0, 0, 1)])
        euler = [(g, side, key, num * (g + side)) for g, side, key, num in items if g + side]
        return _joined(_weight_recurrence(den, euler, unit, lambda w, d: w * d, finish, limit))
    f0 = _exp_form(den, [item for item in items if not item[1]], finish, limit)
    sided = [(g, side, key, num * side) for g, side, key, num in items if side]
    return _joined(_weight_recurrence(den, sided, f0, lambda s, d: s * d, finish, limit, side_limit, by_side=True))


# -- monomial substitution ----------------------------------------------------------


def _substitute_monomials(den: int, items: list, layout: KeyLayout, images: Mapping[str, "GradedPoly"], limit: int):
    """Substitute single-term images for generators by rewriting packed keys.

    Every image is one monomial with a coefficient, or zero, over
    `layout.table`, and `limit` fits `layout`'s digits; the image's
    monomial is packed onto `layout`.  A term's exponent e of a
    mapped generator moves to the image's monomial, and its numerator takes
    the coefficient to the power e; a zero image, or one of degree past
    `limit`, drops the terms that carry its generator.  The degree digit
    moves with the key, and terms whose new degree exceeds `limit` are
    dropped.  The substitution is simultaneous: exponents are read from the
    original key.  The side digit (j2) is untouched, so q-series items are
    rewritten in one pass.  Returns the int form of the result, on `layout`.
    """
    table, bits, mask = layout.table, layout.bits, layout.mask
    subs, vanish = [], 0
    for name, image in images.items():
        if name not in table:
            continue  # no term carries it
        i = table.index(name)
        if not image.items or image.items[0][0] > limit:
            vanish |= mask << (bits * i)
            continue
        ((img_degree, _, img_key, img_num),) = image.items
        gen_key = 1 << (bits * i) | table.degrees[i] << layout.gshift
        img_key = layout.pack(image.layout.unpack(img_key))
        subs.append((bits * i, img_key - gen_key, img_degree - table.degrees[i], img_num, image.den))
    rows = []
    for g, side, key, num in items:
        if key & vanish:
            continue
        new_key, fnum, fden = key, 1, 1
        for shift, dkey, dg, cnum, cden in subs:
            e = (key >> shift) & mask
            if e:
                new_key += e * dkey
                g += e * dg
                fnum *= cnum ** e
                fden *= cden ** e
        if g <= limit:
            rows.append((new_key, num * fnum, fden))
    common = lcm(*[fden for _, _, fden in rows])
    acc: dict = {}
    get = acc.get
    for key, num, fden in rows:
        acc[key] = get(key, 0) + num * (common // fden)
    return layout.int_form(acc, den * common)


def _render_terms(pairs: Iterable[tuple[Fraction, str]]) -> str:
    """`(coefficient, monomial string)` pairs as `a + b*m - c*m` text; "0" for none.

    An empty monomial string is the unit monomial, and a coefficient of
    magnitude 1 is not written before a monomial.
    """
    parts: list[str] = []
    for coeff, mono in pairs:
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
    return " ".join(parts) if parts else "0"


class IntForm:
    """A truncated polynomial or series in int form, with its arithmetic written once.

    The value is sum numerator * key / den over one positive int denominator
    `den`, in lowest terms: gcd(den, *numerators) = 1.  `items` holds the
    terms as sorted `(grade, side grade, packed key, numerator)` tuples, the
    input of `_convolve`, with no zero numerator and nothing past the
    limits.  So the form is canonical, and equality compares ints.
    Instances are treated as immutable.

    A subclass names its two shape fields in `_SHAPE` (its table or ring and
    its caps) and the per-instance caches that start empty in `_KEPT`, and
    gives:

    - `layout`, the `KeyLayout` of its keys;
    - `limits`, the kernels' grade and side-grade limits;
    - `_meet(other)`, the one shape that two operands are brought onto.

    Its public constructor validates and cleans its input.  Arithmetic
    results go through `_make` instead, which trusts that the invariants
    already hold.  `_reshaped` moves a form onto another shape (`_relaid`),
    and every truncation, cut, promotion and operand alignment goes
    through it.
    """

    __slots__ = ("den", "items")
    _SHAPE: tuple[str, ...] = ()
    _KEPT: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._shape = property(attrgetter(*cls._SHAPE))  # the two shape fields as a tuple, in one C call

    @classmethod
    def _make(cls, first, second, den: int, items: list):
        """Trusted constructor: the two shape fields, then `den` and `items`; checks nothing.

        The caller guarantees a valid shape and a canonical int form over
        its key layout within its limits.  `items` is stored, not copied,
        and the caches start empty.
        """
        form = object.__new__(cls)
        name1, name2 = cls._SHAPE
        setattr(form, name1, first)
        setattr(form, name2, second)
        form.den = den
        form.items = items
        for name in cls._KEPT:
            setattr(form, name, None)
        return form

    @classmethod
    def zero(cls, *shape):
        return cls(*shape)

    @classmethod
    def one(cls, *shape):
        cls.zero(*shape)  # validates the shape
        return cls._make(*shape, 1, [(0, 0, 0, 1)])  # the unit key is 0 in every layout

    def _reshaped(self, first, second):
        """This form on the shape `(first, second)`: the terms within its limits, laid out on its keys."""
        form = self._make(first, second, 1, [])
        form.den, form.items = _int_form(self.den, _relaid(self.items, self.layout, form.layout, *form.limits))
        return form

    def _aligned(self, other):
        """Both operands on the shape `_meet(other)`; one already on it is kept as it is."""
        shape = self._meet(other)
        a = self if self._shape == shape else self._reshaped(*shape)
        b = other if other._shape == shape else other._reshaped(*shape)
        return a, b

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._shape == other._shape
            and self.den == other.den
            and self.items == other.items
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.items

    def __neg__(self):
        return self._make(*self._shape, self.den, [(g, side, key, -num) for g, side, key, num in self.items])

    def __add__(self, other):
        """The termwise sum, over the lcm of the two denominators."""
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._aligned(other)
        den = lcm(a.den, b.den)
        scale = den // a.den
        acc = {key: num * scale for _, _, key, num in a.items}
        get = acc.get
        scale = den // b.den
        for _, _, key, num in b.items:
            acc[key] = get(key, 0) + num * scale
        return a._make(*a._shape, *a.layout.int_form(acc, den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """A scalar multiple, or the truncated product: one `_convolve` within the limits."""
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            items = [(g, side, key, num * c.numerator) for g, side, key, num in self.items] if c else []
            return self._make(*self._shape, *_int_form(self.den * c.denominator, items))
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._aligned(other)
        acc: dict = {}
        _convolve(acc, a.items, b.items, *a.limits)
        return a._make(*a._shape, *a.layout.int_form(acc, a.den * b.den))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _nonnegative_int(n, "a power")
        result = self.one(*self._shape)
        for _ in range(n):
            result = result * self
            if result.is_zero():
                break
        return result

    def tau_shift_half(self):
        """The substitution q^(1/2) -> -q^(1/2): negates the terms of odd side grade.

        The side grade of a q-series term is its doubled q-exponent.
        """
        items = [(g, side, key, -num if side % 2 else num) for g, side, key, num in self.items]
        return self._make(*self._shape, self.den, items)

    def homogeneous_component(self, d: int):
        """The terms of grade d: a polynomial's degree-d part, a q-series' degree-d
        part of every coefficient."""
        items = [item for item in self.items if item[0] == d]
        return self._make(*self._shape, *_int_form(self.den, items))

    def _substituted(self, images: Mapping[str, "GradedPoly"], limit: int):
        """This form with generators replaced by single-term images, terms past `limit` dropped.

        The one substitution of the package: `GradedPoly.substitute` and
        `qseries.QHalfSeries.substitute` call it.  Each image must be a
        `GradedPoly` over this form's generator table, one term or zero,
        truncated at or above `limit`, which is at most this form's grade
        limit; any other image is a ValueError naming its generator.  The
        keys are then rewritten in one pass (`_substitute_monomials`).
        """
        table = self.layout.table
        for name, image in images.items():
            if not (
                isinstance(image, GradedPoly)
                and image.table == table
                and image.truncation >= limit
                and len(image.items) <= 1
            ):
                raise ValueError(
                    f"the image of {name!r} must be a single term or zero over {table!r}, "
                    f"truncated at or above degree {limit}"
                )
        return self._make(*self._shape, *_substitute_monomials(self.den, self.items, self.layout, images, limit))

    def _kernel(self, form):
        """An int-form kernel, `_exp_form`, applied within the limits."""
        return self._make(*self._shape, *form(self.den, self.items, self.layout.int_form, *self.limits))

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class GradedPoly(IntForm):
    """Truncated polynomial over a GeneratorTable, in int form (`IntForm`).

    The terms are `(degree, 0, packed key, numerator)` tuples, keys laid out
    by `table.layout(truncation)`, with no term above the truncation.  A
    product is one `_convolve` plus one gcd reduction, and its result feeds
    the next product unchanged.  `terms`, the exponent tuple -> Fraction
    map, is a view built on each access, for rendering, evaluation and the
    public API; the arithmetic reads the ints.
    """

    __slots__ = ("table", "truncation")
    _SHAPE = ("table", "truncation")

    def __init__(self, table: GeneratorTable, truncation: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.table = table
        self.truncation = _even_truncation(truncation)
        layout = table.layout(truncation)
        clean: dict[int, Fraction] = {}
        if terms:
            for expts, coeff in terms.items():
                coeff = as_rational(coeff)
                if not coeff:
                    continue
                if len(expts) != len(table):
                    raise ValueError("exponent tuple does not match the generator table")
                if not all(map(_is_int, expts)):
                    raise ValueError(f"exponents must be integers, got {expts!r}")
                if any(e < 0 for e in expts):
                    raise ValueError(f"negative exponent in {expts}")
                if table.monomial_degree(expts) <= truncation:
                    clean[layout.pack(expts)] = coeff
        self.den, self.items = layout.rational_form(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, table, truncation, value) -> "GradedPoly":
        return cls(table, truncation, {(0,) * len(table): as_rational(value)})

    @classmethod
    def generator(cls, table, name, truncation) -> "GradedPoly":
        expts = [0] * len(table)
        expts[table.index(name)] = 1
        return cls(table, truncation, {tuple(expts): Fraction(1)})

    # -- the int form's layout and the Fraction view -------------------------

    @property
    def layout(self) -> KeyLayout:
        return self.table.layout(self.truncation)

    @property
    def limits(self) -> tuple[int, int]:
        return self.truncation, 0

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> nonzero Fraction, built from the ints on each access."""
        unpack, den = self.layout.unpack, self.den
        return {unpack(key): Fraction(num, den) for _, _, key, num in self.items}

    # -- ring structure ----------------------------------------------------

    def _meet(self, other: "GradedPoly") -> tuple[GeneratorTable, int]:
        """One generator table, at the smaller truncation."""
        if self.table != other.table:
            raise ValueError("polynomials live over different generator tables")
        return self.table, min(self.truncation, other.truncation)

    def __add__(self, other):
        """Scalars add to the constant term."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            other = as_rational(other)
            other = GradedPoly._make(self.table, self.truncation, other.denominator, [(0, 0, 0, other.numerator)])
        return IntForm.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, scalar):
        c = as_rational(scalar)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    # -- inspection --------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        items = self.items
        if items and items[0][2] == 0:  # the unit key is 0 and sorts first
            return Fraction(items[0][3], self.den)
        return _ZERO

    def coefficient(self, monomial: str) -> Fraction:
        expts = self.table.parse_monomial(monomial)
        degree = self.table.monomial_degree(expts)
        if degree > self.truncation or any(e < 0 for e in expts):
            return _ZERO
        key = self.layout.pack(expts)
        items = self.items
        i = bisect_left(items, (degree, 0, key))
        if i < len(items) and items[i][2] == key:
            return Fraction(items[i][3], self.den)
        return _ZERO

    def truncate(self, truncation: int) -> "GradedPoly":
        """The polynomial truncated to `truncation`; itself if that lowers nothing."""
        if _even_truncation(truncation) >= self.truncation:
            return self
        return self._reshaped(self.table, truncation)

    def cut(self, table: GeneratorTable, truncation: int) -> "GradedPoly":
        """The terms of degree at most `truncation`, re-keyed by generator name onto `table`.

        The truncation is at most this polynomial's own.  A generator that
        this table lacks gets exponent 0, so a cut onto a larger table is the
        embedding.  A kept term that carries a generator `table` lacks, or a
        generator that `table` gives another degree, is a ValueError
        (`_relaid`).
        """
        if _even_truncation(truncation) > self.truncation:
            raise ValueError(f"cannot cut a polynomial truncated at degree {self.truncation} to degree {truncation}")
        return self._reshaped(table, truncation)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, "GradedPoly"]) -> "GradedPoly":
        """Replace generators by single-term images (`IntForm._substituted`);
        unmapped generators pass through.

        An image truncated below this polynomial lowers the result's
        truncation to its own.
        """
        low = min([self.truncation] + [image.truncation for image in images.values() if isinstance(image, GradedPoly)])
        return self._substituted(images, low).truncate(low)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (degree, exponents)."""
        degree, monomial = self.table.monomial_degree, self.table.monomial_string
        terms = sorted(self.terms.items(), key=lambda kv: (degree(kv[0]), kv[0]))
        return _render_terms((coeff, monomial(expts)) for expts, coeff in terms)


def power_sum_in_pontryagin(table: GeneratorTable, family: str, m: int, truncation: int) -> GradedPoly:
    """m-th power sum of squared roots, written in the family's generators.

    On a Pontryagin table the family generators play the elementary
    symmetric functions of the squared roots, and this is the degree-4m
    polynomial of the Newton recursion.  On a power-sum table
    (`power_sum_table`) it is the family's generator s_m itself.  Generators
    whose degree exceeds the truncation act as zero.  The table keeps the
    power sums, one list per (family, truncation), extended as far as a call
    needs.
    """
    if m <= 0:
        raise ValueError("power sum index must be positive")
    size = (table.pontryagin or table).family_size(family)
    if size == 0:
        raise ValueError(f"unknown generator family {family!r}")
    top = min(m, truncation // 4)  # s_k has degree 4k
    if top > size:
        raise ValueError(f"family {family!r} is missing generator {family}{size + 1} below the truncation")
    if top < m:
        return GradedPoly.zero(table, truncation)
    sums = table._power_sums.setdefault((family, truncation), [])
    if len(sums) < top and table.pontryagin is not None:  # a power-sum table: s_k is its own generator
        sums += [GradedPoly.generator(table, _power_sum_name(f"{family}{k}"), truncation) for k in range(len(sums) + 1, top + 1)]
    elif len(sums) < top:  # a Pontryagin table: the Newton recursion, summed in ints
        layout = table.layout(truncation)
        index = [table.index(f"{family}{i}") for i in range(1, top + 1)]
        if any(table.degrees[j] != 4 * i for i, j in enumerate(index, 1)):
            raise ValueError(f"family {family!r} needs each generator {family}i in degree 4i")
        elem = [1 << layout.bits * j | 4 * i << layout.gshift for i, j in enumerate(index, 1)]
        for k in range(len(sums) + 1, top + 1):
            # s_k = (-1)^(k-1) k e_k + sum_{i<k} (-1)^(i-1) e_i s_(k-i); each e_i s_(k-i) shifts keys,
            # and every s_k has integer coefficients, so its int form is over 1
            acc = {elem[k - 1]: k if k % 2 else -k}
            get = acc.get
            for i in range(1, k):
                shift, sign = elem[i - 1], 1 if i % 2 else -1
                for _, _, key, num in sums[k - i - 1].items:
                    key += shift
                    acc[key] = get(key, 0) + sign * num
            sums.append(GradedPoly._make(table, truncation, *layout.int_form(acc, 1)))
    return sums[m - 1]


def _summed_images(den: int, rows: list, layout: KeyLayout) -> tuple[int, list]:
    """The int form under `layout` of sum_i num_i * image_i, over `den`.

    `rows` are (image, side key, num) triples, each image a `GradedPoly` laid
    out by `layout`'s table and truncation and the side key a side digit (a
    doubled q-exponent) that is OR-ed onto each of its image's keys.  One
    flat int pass adds every row into one accumulator over the lcm of the
    images' denominators.
    """
    common = lcm(*[image.den for image, _, _ in rows])
    acc: dict = {}
    get = acc.get
    for image, side, num in rows:
        scale = num * (common // image.den)
        for _, _, key, image_num in image.items:
            key |= side
            acc[key] = get(key, 0) + image_num * scale
    return layout.int_form(acc, common * den)


def _pontryagin_image(table: GeneratorTable, truncation: int, key: int) -> GradedPoly:
    """The image on `table.pontryagin` of the monomial with packed key `key`
    on the power-sum table `table`, at `truncation`.

    The images are kept on the table, one dict per truncation.  A
    generator's image is s_m's Newton polynomial (`power_sum_in_pontryagin`)
    or cL itself; any other monomial's is one product, the image of the
    monomial less its last generator times that generator's image.
    """
    images = table._images.setdefault(truncation, {})
    image = images.get(key)
    if image is None:
        target = table.pontryagin
        if not key:
            image = GradedPoly.one(target, truncation)
        else:
            layout = table.layout(truncation)
            i = max(i for i, e in enumerate(layout.unpack(key)) if e)
            name, degree = target.generators[i]
            last = 1 << layout.bits * i | degree << layout.gshift
            if key != last:
                image = _pontryagin_image(table, truncation, key - last) * _pontryagin_image(table, truncation, last)
            elif degree % 4:
                image = GradedPoly.generator(target, name, truncation)
            else:
                image = power_sum_in_pontryagin(target, name.rstrip("0123456789"), degree // 4, truncation)
        images[key] = image
    return image


def to_pontryagin(x: IntForm) -> IntForm:
    """A `GradedPoly` or `qseries.QHalfSeries` over a power-sum table
    (`power_sum_table`), moved onto the Pontryagin table of its families.

    The map sends each s_m to `power_sum_in_pontryagin` on that table and
    cL to itself; it is a ring isomorphism, and each monomial's image is
    homogeneous of the monomial's degree.  The images are built once per
    table and truncation (`_pontryagin_image`); each has integer
    coefficients, as Newton's s_m has, so its int form is over 1.  Then one
    flat int pass (`_summed_images`) adds each term's numerator times its
    image, the term's side digit (a q-series term's doubled q-exponent)
    carried over, into one int form: both tables lay out keys alike.  A
    form over another table is a ValueError.
    """
    table = x.layout.table
    target = table.pontryagin
    if target is None:
        raise ValueError(f"{table!r} is not a power-sum table")
    limit = x.limits[0]
    monomial = (1 << x.layout.sshift) - 1
    rows = [(_pontryagin_image(table, limit, key & monomial), key & ~monomial, num) for _, _, key, num in x.items]
    # a q-series moves to its ring's class over the target table; algebra does not import qseries
    shape = (target, limit) if isinstance(x, GradedPoly) else (type(x.ring)(target, limit), x.cap)
    return x._make(*shape, *_summed_images(x.den, rows, target.layout(limit)))


def exp_truncated(x: GradedPoly) -> GradedPoly:
    """exp of a polynomial with zero constant term (nilpotent under truncation)."""
    if x.constant_term:
        raise ValueError("exp_truncated needs a zero constant term")
    return x._kernel(_exp_form)

