"""The algebra abstraction: AlgebraSpec and the operations on it.

Each AlgebraSpec bundles lazy structure constants (bracket on basis
indices), an optional commutative associative product for the ambient
function algebras, and enough index bookkeeping to enumerate degree
windows.  Structure constants are exact rationals, stored once per
algebra as packed int entries (core.pack) and read in int arithmetic.  The
built-in algebras live in `halfder.catalogue`; `make_algebra` builds
them by name.  Algebras built from data live in `halfder.tables`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import C_INDEX, Element, Family, ONE, as_scalar, bidx, combine, pack, unpack

ALGEBRA_NAMES = (
    "witt",
    "laurent",
    "wab",
    "virasoro",
    "svir",
    "n2sca",
    "thin",
    "solvable",
    "extended_laurent",
    "sl2",
    "heisenberg",
    "schrodinger",
    "nary_simple",
)

_C = Family.C


def __getattr__(name):
    """The algebras built from data, from halfder.tables on first use, so a solve never compiles them."""
    if name not in ("algebra_from_structure_json", "direct_sum", "finite_structure_json"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables
    return getattr(tables, name)


class AlgebraSpec:
    """One algebra: index vocabulary plus lazy multiplication rules.

    patterns lists (family, degree2 mod 2, min degree2 or None) for the
    infinite families; finite algebras carry an explicit basis instead.
    grade2 is the additive grading used for gradedness checks; it defaults
    to degree2 and only deviates where the index label is positional.
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
        if self.grade2_fn is not None:
            return self.grade2_fn(idx)
        return idx.degree2

    def indices_in_degree2_range(self, lo: int, hi: int) -> list:
        """Valid indices with lo <= degree2 <= hi, canonically sorted."""
        if self.basis_list is not None:
            return sorted(i for i in self.basis_list if lo <= i.degree2 <= hi)
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
        """All valid sources for the window: |degree2| <= 2W, center always."""
        if self.basis_list is not None:
            return sorted(self.basis_list)
        return self.indices_in_degree2_range(-2 * window, 2 * window)

    def _check(self, idxs: tuple) -> None:
        for i in idxs:
            if not self.valid_index(i):
                raise ValueError(f"index {i.token} is not valid in algebra {self.name}")

    def bracket_ints(self, idxs: tuple) -> tuple:
        """Structure constants on a basis tuple as a packed entry, memoized."""
        out = self._bcache.get(idxs)
        if out is None:
            self._check(idxs)
            out = self._bcache[idxs] = pack(self.bracket_fn(idxs))
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


def multilinear(args, rule) -> Element:
    """Multilinear extension of rule to Element args: rule maps a basis
    tuple to core.combine parts (num, den, packed entry), and one combine
    sums them all, scaled by the product of the tuple's coefficients."""
    stack = [((), ONE)]
    for a in args:
        stack = [(idxs + (i,), coeff * c) for idxs, coeff in stack for i, c in a.terms.items()]
    # a list, not a generator: the rules fill the structure-constant tables
    # before combine allocates its short-lived tuples, so the two do not
    # interleave in memory (a generator raised the peak RSS of witness scans)
    return combine([(c.numerator * n, c.denominator * d, e) for idxs, c in stack for n, d, e in rule(idxs)])


def _el(pairs) -> Element:
    return Element({i: as_scalar(c) for i, c in pairs})


def _ungraded(idx) -> int:
    """grade2 of a table with no grading: every index has grade 0."""
    return 0


def _skew_rule(basis, table: dict) -> Callable:
    """Bracket rule from its values {increasing position tuple: Element}.

    Other orderings of distinct positions follow by full skew-symmetry;
    every other tuple brackets to zero.
    """
    pos = {idx: k for k, idx in enumerate(basis)}

    def rule(idxs):
        ps = [pos[i] for i in idxs]
        out = table.get(tuple(sorted(ps)))
        if out is None:
            return Element.zero()
        return out.scale(_perm_sign(sorted(range(len(ps)), key=ps.__getitem__)))

    return rule


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# registry


def _builder(name: str) -> tuple:
    """(builder, parameter names) of a built-in algebra."""
    # imported here: the catalogue imports AlgebraSpec from this module
    from .catalogue import BUILDERS

    if name not in BUILDERS:
        raise ValueError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
    return BUILDERS[name]


def algebra_params(name: str) -> tuple:
    """Names of the parameters an algebra requires, in declaration order."""
    return _builder(name)[1]


def make_algebra(name: str, params: dict | None = None, **kw) -> AlgebraSpec:
    """Instantiate one of the built-in algebras by name.

    wab needs rational a, b; svir and n2sca need sector
    ("ramond" or "neveu_schwarz"); nary_simple needs n >= 3.
    """
    builder, wanted = _builder(name)
    given = dict(params or {})
    given.update(kw)
    missing = [k for k in wanted if k not in given]
    extra = [k for k in given if k not in wanted]
    if missing:
        raise ValueError(f"algebra {name} needs parameter(s): {', '.join(missing)}")
    if extra:
        raise ValueError(f"algebra {name} does not take parameter(s): {', '.join(extra)}")
    clean = {}
    for k in wanted:
        v = given[k]
        if k in ("a", "b"):
            clean[k] = as_scalar(v)
        elif k == "n":
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise ValueError(f"nary_simple needs an integer arity n, not {v!r}")
            clean[k] = int(v)
        elif k == "sector":
            if v not in ("ramond", "neveu_schwarz"):
                raise ValueError("sector must be 'ramond' or 'neveu_schwarz'")
            clean[k] = v
    return builder(clean)


def same_algebra(a: AlgebraSpec, b: AlgebraSpec) -> bool:
    return (
        a.name == b.name
        and a.arity == b.arity
        and a.params == b.params
        and a.basis_list == b.basis_list
    )


# ---------------------------------------------------------------------------
# operations


def leibniz_parts(alg: AlgebraSpec, args: tuple, image: Callable, a=ONE, b=ONE) -> list:
    """a.f([x_1..x_n]) - b.sum_i (sign) [x_1,..,f(x_i),..,x_n] on basis args,
    as the core.combine parts (num, den, packed entry) that sum to it.

    image(x) gives the packed entry (core.pack) of f(x) on a basis index x;
    a term t of f(x_i) takes the sign
    (-1)^{(|t|+|x_i|)(|x_1|+..+|x_{i-1}|)}.  f = ad_x gives the defining
    identity, f = phi with b = delta the delta-derivation equation, and
    f = z*- with a = n the transposed Poisson law.
    """
    bracket = alg.bracket_ints
    top = bracket(args)
    parts = [(a.numerator * n, a.denominator * top[0], image(o)) for o, n in zip(top[1::2], top[2::2])]
    prefix = 0
    for i, xi in enumerate(args):
        f = image(xi)
        for t, m in zip(f[1::2], f[2::2]):
            m *= b.numerator
            entry = bracket(args[:i] + (t,) + args[i + 1 :])
            parts.append((m if (t.parity ^ xi.parity) and prefix % 2 else -m, b.denominator * f[0], entry))
        prefix += xi.parity
    return parts


def identity_residual(alg: AlgebraSpec, args: tuple) -> Element:
    """Defining-identity residual on a basis tuple; zero iff it holds there.

    Takes 2n-1 indices (x_1..x_{n-1}, y_1..y_n) and evaluates the adjoint
    derivation form [x,[y]] - sum_i [y_1,..,[x,y_i],..,y_n], the Leibniz
    defect of f = [x_1..x_{n-1}, -].  For n = 2 this is the (super-)Jacobi
    identity.
    """
    n = alg.arity
    if len(args) != 2 * n - 1:
        raise ValueError(f"identity residual needs {2 * n - 1} indices, got {len(args)}")
    xs, ys = args[: n - 1], args[n - 1 :]
    return combine(leibniz_parts(alg, ys, lambda y: alg.bracket_ints(xs + (y,))))
