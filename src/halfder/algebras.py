"""The algebra abstraction: AlgebraSpec and the operations on it.

Each AlgebraSpec bundles lazy structure constants (bracket on basis
indices), an optional commutative associative product for the ambient
function algebras, and enough index bookkeeping to enumerate degree
windows.  Structure constants are exact rationals, stored once per
algebra as packed int entries (core.pack) and read in int arithmetic.  The
built-in algebras live in `halfder.catalogue`; `make_algebra` builds
them by name.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain, combinations

from .core import C_INDEX, Element, Family, ONE, as_scalar, axpy, bidx, combine, pack, unpack

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

_E, _L, _I, _J, _C = Family.E, Family.L, Family.I, Family.J, Family.C


class AlgebraSpec:
    """One algebra: index vocabulary plus lazy multiplication rules.

    patterns lists (family, degree2 mod 2, min degree2 or None) for the
    infinite families; finite algebras carry an explicit basis instead.
    grade2 is the additive grading used for gradedness checks; it defaults
    to degree2 and only deviates where the index label is positional.
    bracket_fn maps a basis tuple to an Element; assoc_fn, when given, maps
    a basis pair to their commutative associative product.
    """

    def __init__(self, name, arity=2, sector="none", params=None, patterns=(), has_center=False,
                 basis_list=None, bracket_fn=None, assoc_fn=None, grade2_fn=None, display=""):
        self.name, self.arity, self.sector = name, arity, sector
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
        return multilinear(args, self.bracket_basis)

    def assoc_ints(self, x, y) -> tuple:
        """The associative product of two basis indices as a packed entry, memoized."""
        if self.assoc_fn is None:
            raise ValueError(f"algebra {self.name} has no associative product")
        out = self._acache.get((x, y))
        if out is None:
            self._check((x, y))
            out = self._acache[(x, y)] = pack(self.assoc_fn(x, y))
        return out

    def assoc_basis(self, x, y) -> Element:
        return unpack(self.assoc_ints(x, y))

    def assoc(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the associative product."""
        return multilinear((x, y), lambda p: self.assoc_basis(p[0], p[1]))


def multilinear(args, rule) -> Element:
    """Multilinear extension of rule, from basis tuples to Elements, to Element args."""
    stack = [((), ONE)]
    for a in args:
        stack = [(idxs + (i,), coeff * c) for idxs, coeff in stack for i, c in a.terms.items()]
    acc: dict = {}
    for idxs, coeff in stack:
        axpy(acc, coeff, rule(idxs).terms)
    return Element(acc)


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
        and a.sector == b.sector
        and a.arity == b.arity
        and a.params == b.params
        and a.basis_list == b.basis_list
    )


# ---------------------------------------------------------------------------
# operations


def leibniz_defect(alg: AlgebraSpec, args: tuple, image: Callable, a=ONE, b=ONE) -> Element:
    """a.f([x_1..x_n]) - b.sum_i (sign) [x_1,..,f(x_i),..,x_n] on basis args.

    image(x) gives the packed entry (core.pack) of f(x) on a basis index x,
    and core.combine sums in ints; a term t of f(x_i) takes the sign
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
    return combine(parts)


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
    return leibniz_defect(alg, ys, lambda y: alg.bracket_ints(xs + (y,)))


_SUM_FAMILY_POOL = (_E, _L, _I, _J)


def direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Direct sum of two finite algebras with disjointly relabeled families."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("direct_sum is defined for finite algebras only")
    if a.arity != b.arity:
        raise ValueError("direct_sum operands must share the arity")
    if a.sector != "none" or b.sector != "none":
        raise ValueError("direct_sum operands must be plain (sector none)")
    used = {i.family for i in a.basis_list}
    free = [f for f in _SUM_FAMILY_POOL if f not in used]
    relabel: dict = {}
    b_families = sorted({i.family for i in b.basis_list})
    for fam in b_families:
        if fam is _C and _C not in used:
            relabel[fam] = _C
            used.add(_C)
            continue
        if not free:
            raise ValueError("not enough families to relabel the second summand")
        relabel[fam] = free.pop(0)
    b_map = {i: bidx(relabel[i.family], i.degree2) if relabel[i.family] is not _C else C_INDEX for i in b.basis_list}
    if set(b_map.values()) & set(a.basis_list):
        raise ValueError("relabeled summands collide; relabeling scheme exhausted")
    basis = tuple(sorted(list(a.basis_list) + [b_map[i] for i in b.basis_list]))
    b_inv = {v: k for k, v in b_map.items()}
    a_set = frozenset(a.basis_list)

    def rule(idxs):
        if all(i in a_set for i in idxs):
            return a.bracket_basis(idxs)
        if all(i in b_inv for i in idxs):
            e = b.bracket_ints(tuple(b_inv[i] for i in idxs))
            return unpack(e[:1] + tuple(chain.from_iterable((b_map[o], n) for o, n in zip(e[1::2], e[2::2]))))
        return Element.zero()

    def grade2(idx):
        if idx in a_set:
            return a.grade2(idx)
        return b.grade2(b_inv[idx])

    return AlgebraSpec(
        name=f"{a.name}+{b.name}",
        arity=a.arity,
        basis_list=basis,
        bracket_fn=rule,
        grade2_fn=grade2,
        display=f"{a.display} (+) {b.display}",
    )


def finite_structure_json(alg: AlgebraSpec) -> dict:
    """Structure-constant table of a finite algebra as plain JSON data."""
    if not alg.is_finite:
        raise ValueError(f"algebra {alg.name} is not finite")
    basis = list(alg.basis_list)
    pos = {idx: k for k, idx in enumerate(basis)}
    entries = []
    for combo in combinations(range(len(basis)), alg.arity):
        out = alg.bracket_basis(tuple(basis[k] for k in combo))
        if out.is_zero():
            continue
        terms = [[pos[i], str(c)] for i, c in out.items()]
        entries.append(list(combo) + [terms])
    return {"dim": len(basis), "arity": alg.arity, "brackets": entries}


def _json_int(value) -> int:
    """An int read from JSON; a float or a bool is rejected, never truncated."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an int")
    return value


def algebra_from_structure_json(data: dict, name: str = "custom") -> AlgebraSpec:
    """Finite algebra from a JSON structure table (positions label e_0..e_{dim-1}).

    Only the entries with strictly increasing index tuples are read; the
    other orderings are generated by full skew-symmetry.  No grading is
    assumed for imported tables.
    """
    try:
        dim, arity, entries = _json_int(data["dim"]), _json_int(data.get("arity", 2)), list(data["brackets"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"structure table {name!r} needs int 'dim', 'arity', list 'brackets': {exc!r}") from None
    if dim < 1 or arity < 2:
        raise ValueError(f"a structure table needs dim >= 1 and arity >= 2, not dim {dim}, arity {arity}")
    basis = tuple(bidx(_E, 2 * k) for k in range(dim))
    table: dict = {}
    for entry in entries:
        try:
            *combo, terms = entry
            combo = tuple(map(_json_int, combo))
            terms = [(_json_int(k), as_scalar(c)) for k, c in terms]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {entry!r} of structure table {name!r} is malformed: {exc}") from None
        if len(combo) != arity:
            raise ValueError(f"entry {entry!r} does not match arity {arity}")
        outs = tuple(k for k, _ in terms)
        if any(not 0 <= k < dim for k in combo + outs):
            raise ValueError(f"entry {entry!r} indexes outside dim {dim}")
        if len(set(outs)) != len(outs):
            raise ValueError(f"entry {entry!r} repeats an output position")
        if sorted(set(combo)) != list(combo):
            raise ValueError(f"entry {entry!r} must use a strictly increasing tuple")
        if combo in table:
            raise ValueError(f"entry {entry!r} repeats the tuple {list(combo)}")
        table[combo] = _el((basis[k], c) for k, c in terms)
    return AlgebraSpec(
        name=name,
        arity=arity,
        basis_list=basis,
        bracket_fn=_skew_rule(basis, table),
        grade2_fn=_ungraded,
        display=f"{name} (imported, dim {dim})",
    )
