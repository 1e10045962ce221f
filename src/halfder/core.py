"""The element grammar: the text form of an element (`render`,
`parse_element`, `ParseError`).

The scalars and indices live in `halfder.basis`, `Element` and the sum
kernel in `halfder.element`.
"""

from __future__ import annotations

import re

from .basis import INTEGER, BasisIndex, C_INDEX, Family, _FAMILY_TOKEN, _ODD_FAMILIES, bidx
from .element import _ZERO_ELEMENT, Element, combine

# "G" is accepted on input as an alias for "G+" (single-G superalgebras).
# The tokens go longest first, so G+ and G- are tried before G.
_TOKEN_FAMILY = {tok: fam for fam, tok in _FAMILY_TOKEN.items()} | {"G": Family.GPLUS}
_TOKEN_FAMILY = dict(sorted(_TOKEN_FAMILY.items(), key=lambda tf: -len(tf[0])))


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
        m = re.compile(INTEGER).match(self.text, self.pos)
        if m is None:
            raise ParseError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m[0])


def _parse_basis_token(sc: _Scanner, alg) -> BasisIndex:
    sc.skip_ws()
    start = sc.pos
    text = sc.text
    for tok, fam in _TOKEN_FAMILY.items():
        if text.startswith(tok, sc.pos):
            sc.pos += len(tok)
            break
    else:
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
        # a coefficient starts with a digit: the term's sign is read above
        if re.match(INTEGER, sc.peek()):
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
