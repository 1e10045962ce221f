"""Exact scalars and graded basis indices.

Everything downstream computes over Q with fractions.Fraction, so a zero
residual means zero, never "small".  Basis vectors carry a family tag plus
a doubled degree (``degree2``); doubling keeps half-integer gradings (the
Neveu-Schwarz G generators) inside plain ints.
"""

from __future__ import annotations

import re
from enum import IntEnum
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# The one grammar of every number read from text (flags, --param values,
# product literals, JSON coefficients, closed_form_map keys and element
# coefficients): ASCII digits with an optional '-' sign.  int() and
# Fraction(str) would also take '٣', '+3' and '1_0'.
INTEGER = "-?[0-9]+"


def as_scalar(value) -> Fraction:
    """Coerce an int, a Fraction, or text "p" or "p/q" (p on INTEGER, q a
    positive integer, surrounding whitespace stripped) to an exact scalar;
    a bool is no scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if re.fullmatch(f"{INTEGER}(/0*[1-9][0-9]*)?", value.strip()):
            return Fraction(value.strip())
        raise ValueError(f"not an exact rational: {value!r}")
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def as_int(value) -> int:
    """An int, or text on INTEGER with surrounding whitespace stripped; a
    bool, a float or any other value raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(INTEGER, value.strip()):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


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

_ODD_FAMILIES = frozenset((Family.GPLUS, Family.GMINUS))

_INDEX_CACHE: dict[tuple[int, int], "BasisIndex"] = {}


class BasisIndex(tuple):
    """Immutable label for one basis vector: the tuple (family, degree2),
    which gives the index its hash, equality and order.

    degree2 is twice the grading degree, always an int; parity is fixed by
    the family (G families odd, everything else even).  Family C is the
    central label and must sit in degree 0.  Copying or pickling an index
    gives back the interned one.
    """

    def __new__(cls, family: Family, degree2: int = 0):
        if family is Family.C and degree2 != 0:
            raise ValueError("central index c must have degree2 = 0")
        self = super().__new__(cls, (family, degree2))
        self.family = family
        self.degree2 = degree2
        self.parity = 1 if family in _ODD_FAMILIES else 0
        return self

    def __reduce__(self):
        return bidx, (self.family, self.degree2)

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
