"""AlgebraSpec, one algebra's index vocabulary and lazy structure
constants; `_check_bound`, the one rule for a window or shift bound;
multilinear, the extension of a basis rule to Elements; and `_skew`, the
extension of a bracket rule on ascending tuples to every ordering, which
the builders of `halfder.catalogue`, `halfder.finite` and
`halfder.superconformal` wrap their rules in.

Structure constants are exact rationals, stored as packed int entries
(element.pack) and read in int arithmetic: in the algebra's own memo, or in
a BracketTable that lives only as long as the solve that reads it.
"""

from __future__ import annotations

from itertools import combinations

from .basis import C_INDEX, Family, ONE, bidx
from .element import Element, combine, pack, unpack

_C = Family.C


class AlgebraSpec:
    """One algebra: index vocabulary plus lazy multiplication rules.

    patterns lists (family, degree2 mod 2, min degree2 or None) for the
    infinite families; finite algebras carry an explicit basis instead.
    grade2 is the additive grading that splits every solve into classes
    with parity: 0 on a finite algebra, whose labels are positional and
    carry no grading; else degree2, unless grade2_fn reads a positional
    label.
    bracket_fn maps a basis tuple to an Element; assoc_fn, when given, maps
    a basis pair to their commutative associative product.
    """

    def __init__(self, name, arity=2, params=None, patterns=(), has_center=False,
                 basis_list=None, bracket_fn=None, assoc_fn=None, grade2_fn=None, display=""):
        self.name, self.arity = name, arity
        self.params = {} if params is None else params
        self.patterns, self.has_center, self.basis_list = patterns, has_center, basis_list
        self.bracket_fn, self.assoc_fn, self.grade2_fn = bracket_fn, assoc_fn, grade2_fn
        self.display = display
        self._bcache = {}
        self._acache = {}
        # a separate method: perfbench/spans.py wraps it by name to count structure constants
        self.__post_init__()

    @property
    def is_finite(self) -> bool:
        return self.basis_list is not None

    def valid_index(self, idx) -> bool:
        if self.basis_list is not None:
            return idx in self._basis_set
        if idx.family is _C:
            return self.has_center
        for fam, off, lo in self.patterns:
            if idx.family is fam and idx.degree2 % 2 == off:
                if lo is None or idx.degree2 >= lo:
                    return True
        return False

    def __post_init__(self):
        if self.basis_list is not None:
            self._basis_set = frozenset(self.basis_list)
        if not self.display:
            self.display = self.name

    def grade2(self, idx) -> int:
        if self.basis_list is not None:
            return 0
        if self.grade2_fn is not None:
            return self.grade2_fn(idx)
        return idx.degree2

    def indices_in_degree2_range(self, lo: int, hi: int) -> list:
        """Valid indices of an infinite algebra with lo <= degree2 <= hi,
        canonically sorted."""
        out = []
        for fam, off, fmin in self.patterns:
            start = lo if lo % 2 == off else lo + 1
            if fmin is not None and start < fmin:
                start = fmin if fmin % 2 == off else fmin + 1
            d = start
            while d <= hi:
                out.append(bidx(fam, d))
                d += 2
        if self.has_center and lo <= 0 <= hi:
            out.append(C_INDEX)
        return sorted(out)

    def window_indices(self, window: int) -> list:
        """All valid sources for the window: |degree2| <= 2W, center always.
        A finite algebra ignores W; an infinite one checks it (_check_bound)."""
        if self.basis_list is not None:
            return sorted(self.basis_list)
        _check_bound("window", window)
        return self.indices_in_degree2_range(-2 * window, 2 * window)

    def _check(self, idxs: tuple) -> None:
        for i in idxs:
            if not self.valid_index(i):
                raise ValueError(f"index {i.token} is not valid in algebra {self.name}")

    def _bracket_entry(self, idxs: tuple) -> tuple:
        """The packed structure constants of a basis tuple, computed: the
        one miss path of the algebra's memo and of every BracketTable."""
        self._check(idxs)
        return pack(self.bracket_fn(idxs))

    def bracket_ints(self, idxs: tuple) -> tuple:
        """Structure constants on a basis tuple as a packed entry, memoized."""
        out = self._bcache.get(idxs)
        if out is None:
            out = self._bcache[idxs] = self._bracket_entry(idxs)
        return out

    def bracket_basis(self, idxs: tuple) -> Element:
        """Structure constants on a basis tuple, built from the packed table."""
        return unpack(self.bracket_ints(idxs))

    def bracket(self, *args: Element) -> Element:
        """Multilinear extension of the bracket to Elements."""
        if len(args) != self.arity:
            raise ValueError(f"{self.name} bracket takes {self.arity} arguments, got {len(args)}")
        return multilinear(args, lambda idxs: [(1, 1, self.bracket_ints(idxs))])

    def assoc_ints(self, x, y) -> tuple:
        """The associative product of two basis indices as a packed entry, memoized."""
        if self.assoc_fn is None:
            raise ValueError(f"algebra {self.name} has no associative product")
        out = self._acache.get((x, y))
        if out is None:
            self._check((x, y))
            out = self._acache[(x, y)] = pack(self.assoc_fn(x, y))
        return out

    def assoc(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the associative product."""
        return multilinear((x, y), lambda xy: [(1, 1, self.assoc_ints(*xy))])


def _check_bound(name: str, bound) -> None:
    """Raise ValueError, naming the bound, unless it is an int (not a bool)
    of at least 1: the one rule for every window and shift bound."""
    if type(bound) is not int:
        raise ValueError(f"{name} must be an int, got {bound!r}")
    if bound < 1:
        raise ValueError(f"{name} must be positive")


class BracketTable(dict):
    """A bracket table apart from the algebra's memo: table[idxs] is the
    packed entry of alg.bracket_ints, computed on a miss through the same
    path, AlgebraSpec._bracket_entry.  The table refers to the algebra and
    not the other way round, so it is freed with the last reference to
    it, and its entries with it."""

    __slots__ = ("_miss",)

    def __init__(self, alg: AlgebraSpec):
        super().__init__()
        self._miss = alg._bracket_entry

    def __missing__(self, idxs: tuple) -> tuple:
        out = self[idxs] = self._miss(idxs)
        return out


def multilinear(args, rule) -> Element:
    """Multilinear extension of rule to Element args: rule maps a basis
    tuple to element.combine parts (num, den, packed entry), and one combine
    sums them all, scaled by the product of the tuple's coefficients."""
    stack = [((), ONE)]
    for a in args:
        stack = [(idxs + (i,), coeff * c) for idxs, coeff in stack for i, c in a.terms.items()]
    # a list, not a generator: the rules fill the structure-constant tables
    # before combine allocates its short-lived tuples, so the two do not
    # interleave in memory (a generator raised the peak RSS of witness scans)
    return combine([(c.numerator * n, c.denominator * d, e) for idxs, c in stack for n, d, e in rule(idxs)])


def _skew(rule):
    """The bracket rule on every ordering from rule, which is read only on
    ascending tuples (BasisIndex order).  Sorting takes one swap of
    neighbours per out-of-order pair, and each swap scales the bracket by
    -1, or by +1 when both are odd."""

    def skew(idxs):
        out = rule(tuple(sorted(idxs)))
        swaps = sum(y < x and not (x.parity and y.parity) for x, y in combinations(idxs, 2))
        return out.scale(-1) if swaps % 2 else out

    return skew
