"""Elements: finitely supported Q-linear combinations of basis indices,
and the one sum kernel over their packed form."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import chain
from math import lcm

from .basis import BasisIndex, ONE, ZERO, as_scalar


class Element:
    """Finitely supported Q-linear combination of basis indices.

    Immutable by convention; all operations return fresh Elements and the
    stored dict never holds a zero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BasisIndex, Fraction] | None = None):
        if terms:
            self.terms = {i: c for i, c in terms.items() if c}
        else:
            self.terms = {}

    @staticmethod
    def zero() -> "Element":
        return _ZERO_ELEMENT

    @staticmethod
    def basis(idx: BasisIndex) -> "Element":
        return Element({idx: ONE})

    @staticmethod
    def single(idx: BasisIndex, coeff) -> "Element":
        c = as_scalar(coeff)
        return Element({idx: c}) if c else _ZERO_ELEMENT

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, idx: BasisIndex) -> Fraction:
        return self.terms.get(idx, ZERO)

    def support(self) -> list[BasisIndex]:
        return sorted(self.terms)

    def items(self) -> list[tuple[BasisIndex, Fraction]]:
        return sorted(self.terms.items())

    def __iter__(self) -> Iterator[tuple[BasisIndex, Fraction]]:
        return iter(self.items())

    def __add__(self, other: "Element") -> "Element":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return combine([(1, 1, pack(self)), (1, 1, pack(other))])

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return _wrap({i: -c for i, c in self.terms.items()})

    def scale(self, coeff) -> "Element":
        c = as_scalar(coeff)
        if not c:
            return _ZERO_ELEMENT
        if c == 1:
            return self
        return _wrap({i: c * v for i, v in self.terms.items()})

    def __mul__(self, coeff) -> "Element":
        return self.scale(coeff)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        from .core import render  # the grammar imports this module

        return render(self)


def _wrap(terms: dict[BasisIndex, Fraction]) -> Element:
    el = Element.__new__(Element)
    el.terms = terms
    return el


_ZERO_ELEMENT = _wrap({})


def element_combine(pairs: Iterable[tuple[object, Element]]) -> Element:
    """Exact linear combination sum(c_k * e_k)."""
    parts = []
    for coeff, el in pairs:
        c = as_scalar(coeff)
        parts.append((c.numerator, c.denominator, pack(el)))
    return combine(parts)


def pack(element: Element) -> tuple:
    """(den, o_1, n_1, o_2, n_2, ...) with element = sum n_i/den o_i in term
    order, den the lcm of the denominators; zero packs to ().  Structure
    constants and map images are stored in this form."""
    terms = element.terms
    if not terms:
        return ()
    den = lcm(*[c.denominator for c in terms.values()])
    return (den, *chain.from_iterable((o, c.numerator * (den // c.denominator)) for o, c in terms.items()))


def unpack(entry: tuple) -> Element:
    """The Element of a packed entry."""
    return _wrap({o: Fraction(n, entry[0]) for o, n in zip(entry[1::2], entry[2::2])})


def combine(parts: Iterable[tuple]) -> Element:
    """Exact sum of num/den * entry over (num, den, packed entry) triples.

    The package's one sum kernel: every term is accumulated as an int over
    one common denominator, and one Element is built at the end.
    """
    parts = [(n, d * e[0], e) for n, d, e in parts if e]
    # star-args from a list: CPython builds a generator's tuple at a guessed
    # length and shrinks it, which piles tuples up on the small free lists
    den = lcm(*[d for _, d, _ in parts])
    acc: dict = {}
    get = acc.get
    for n, d, e in parts:
        f = n * (den // d)
        for o, c in zip(e[1::2], e[2::2]):
            acc[o] = get(o, 0) + f * c
    return _wrap({o: Fraction(v, den) for o, v in acc.items() if v})
