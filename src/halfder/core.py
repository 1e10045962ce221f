"""Exact scalars, graded basis indices, and finitely supported elements.

Everything downstream computes over Q with fractions.Fraction, so a zero
residual means zero, never "small".  Basis vectors carry a family tag plus
a doubled degree (``degree2``); doubling keeps half-integer gradings (the
Neveu-Schwarz G generators) inside plain ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from enum import IntEnum
from fractions import Fraction
from itertools import chain
from math import lcm

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


class Family(IntEnum):
    """Generator families; the enum order fixes the canonical term order."""

    E = 0
    L = 1
    I = 2
    J = 3
    GPLUS = 4
    GMINUS = 5
    C = 6


_FAMILY_TOKEN = {
    Family.E: "e",
    Family.L: "L",
    Family.I: "I",
    Family.J: "J",
    Family.GPLUS: "G+",
    Family.GMINUS: "G-",
    Family.C: "c",
}

# "G" is accepted on input as an alias for "G+" (single-G superalgebras).
_TOKEN_FAMILY = {tok: fam for fam, tok in _FAMILY_TOKEN.items()}
_TOKEN_FAMILY["G"] = Family.GPLUS

_ODD_FAMILIES = frozenset((Family.GPLUS, Family.GMINUS))

_INDEX_CACHE: dict[tuple[int, int], "BasisIndex"] = {}


class BasisIndex:
    """Immutable label (family, degree2) for one basis vector.

    degree2 is twice the grading degree, always an int; parity is fixed by
    the family (G families odd, everything else even).  Family C is the
    central label and must sit in degree 0.
    """

    __slots__ = ("family", "degree2", "parity", "_key", "_hash")

    def __init__(self, family: Family, degree2: int = 0):
        if family is Family.C and degree2 != 0:
            raise ValueError("central index c must have degree2 = 0")
        self.family = family
        self.degree2 = degree2
        self.parity = 1 if family in _ODD_FAMILIES else 0
        self._key = (int(family), degree2)
        self._hash = hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisIndex) and self._key == other._key

    def __lt__(self, other: "BasisIndex") -> bool:
        return self._key < other._key

    def __le__(self, other: "BasisIndex") -> bool:
        return self._key <= other._key

    @property
    def token(self) -> str:
        fam = self.family
        if fam is Family.C:
            return "c"
        d = self.degree2
        sub = str(d // 2) if d % 2 == 0 else f"{d}/2"
        return f"{_FAMILY_TOKEN[fam]}_{sub}"

    def __repr__(self) -> str:
        return self.token


def bidx(family: Family, degree2: int = 0) -> BasisIndex:
    """Interned BasisIndex constructor (hot paths churn through many)."""
    key = (int(family), degree2)
    idx = _INDEX_CACHE.get(key)
    if idx is None:
        idx = _INDEX_CACHE[key] = BasisIndex(family, degree2)
    return idx


C_INDEX = bidx(Family.C, 0)


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

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def __repr__(self) -> str:
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


def render(element: Element) -> str:
    """Canonical text form: terms by family order then degree2 ascending."""
    if not element.terms:
        return "0"
    parts: list[str] = []
    for idx, c in element.items():
        mag = -c if c < 0 else c
        piece = idx.token if mag == 1 else f"{mag}*{idx.token}"
        if not parts:
            parts.append(f"-{piece}" if c < 0 else piece)
        else:
            parts.append(f" - {piece}" if c < 0 else f" + {piece}")
    return "".join(parts)


class ParseError(ValueError):
    """Element grammar violation, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_basis_token(sc: _Scanner, alg) -> BasisIndex:
    sc.skip_ws()
    start = sc.pos
    text = sc.text
    fam = None
    for tok in ("G+", "G-", "G", "e", "L", "I", "J", "c"):
        if text.startswith(tok, sc.pos):
            fam = _TOKEN_FAMILY[tok]
            sc.pos += len(tok)
            break
    if fam is None:
        raise ParseError("expected a basis token", start)
    if fam is Family.C:
        idx = C_INDEX
    else:
        if not sc.take("_"):
            raise ParseError("expected '_' after family token", sc.pos)
        k = sc.integer()
        if sc.take("/"):
            dpos = sc.pos
            d = sc.integer()
            if d != 2:
                raise ParseError("only halves are allowed in subscripts", dpos)
            degree2 = k
        else:
            degree2 = 2 * k
        if degree2 % 2 and fam not in _ODD_FAMILIES:
            raise ParseError(
                f"half-integer subscript is only valid for G generators, not {_FAMILY_TOKEN[fam]}",
                start,
            )
        idx = bidx(fam, degree2)
    if alg is not None and not alg.valid_index(idx):
        raise ParseError(f"index {idx.token} is not valid in algebra {alg.name}", start)
    return idx


def parse_element(text: str, alg=None) -> Element:
    """Parse the ASCII element grammar; round-trips with render().

    Grammar: expr = ['-'] term (('+'|'-') term)*, term = [coeff '*'] basis,
    coeff = int or int/posint, basis = family '_' subscript (or bare 'c'),
    subscript = int or int/2.  The single literal "0" is the zero element.
    When an algebra is supplied every index is validated against it.
    """
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty element text", 0)
    stripped = text.strip()
    if stripped == "0":
        return _ZERO_ELEMENT
    parts = []
    sign = -1 if sc.take("-") else 1
    while True:
        sc.skip_ws()
        num = den = 1
        if sc.peek().isdigit():
            num = sc.integer()
            if sc.take("/"):
                dpos = sc.pos
                den = sc.integer()
                if den <= 0:
                    raise ParseError("denominator must be positive", dpos)
            star = sc.pos
            if not sc.take("*"):
                raise ParseError("expected '*' between coefficient and basis token", star)
        parts.append((sign * num, den, (1, _parse_basis_token(sc, alg), 1)))
        if sc.done():
            break
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
    return combine(parts)
