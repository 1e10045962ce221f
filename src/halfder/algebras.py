"""Built-in graded Lie algebras, superalgebras, and n-ary algebras.

Each AlgebraSpec bundles lazy structure constants (bracket on basis
indices), an optional commutative associative product for the ambient
function algebras, and enough index bookkeeping to enumerate degree
windows.  Structure constants are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    C_INDEX,
    Element,
    Family,
    ONE,
    as_scalar,
    axpy,
    bidx,
)

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

SECTORS = ("none", "ramond", "neveu_schwarz")

_E, _L, _I, _J, _GP, _GM, _C = (
    Family.E,
    Family.L,
    Family.I,
    Family.J,
    Family.GPLUS,
    Family.GMINUS,
    Family.C,
)


@dataclass(eq=False)
class AlgebraSpec:
    """One algebra: index vocabulary plus lazy multiplication rules.

    patterns lists (family, degree2 mod 2, min degree2 or None) for the
    infinite families; finite algebras carry an explicit basis instead.
    grade2 is the additive grading used for gradedness checks; it defaults
    to degree2 and only deviates where the index label is positional.
    """

    name: str
    arity: int = 2
    sector: str = "none"
    params: dict = field(default_factory=dict)
    patterns: tuple = ()
    has_center: bool = False
    basis_list: Optional[tuple] = None
    bracket_fn: Callable = None
    assoc_fn: Optional[Callable] = None
    grade2_fn: Optional[Callable] = None
    display: str = ""
    _bcache: dict = field(default_factory=dict, repr=False)
    _acache: dict = field(default_factory=dict, repr=False)

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

    def bracket_basis(self, idxs: tuple) -> Element:
        """Structure constants on a basis tuple, memoized."""
        out = self._bcache.get(idxs)
        if out is None:
            for i in idxs:
                if not self.valid_index(i):
                    raise ValueError(f"index {i.token} is not valid in algebra {self.name}")
            out = self._bcache[idxs] = self.bracket_fn(idxs)
        return out

    def bracket(self, *args: Element) -> Element:
        """Multilinear extension of the bracket to Elements."""
        if len(args) != self.arity:
            raise ValueError(f"{self.name} bracket takes {self.arity} arguments, got {len(args)}")
        return self._multilinear(args, self.bracket_basis)

    def assoc_basis(self, x, y) -> Element:
        if self.assoc_fn is None:
            raise ValueError(f"algebra {self.name} has no associative product")
        key = (x, y)
        out = self._acache.get(key)
        if out is None:
            for i in key:
                if not self.valid_index(i):
                    raise ValueError(f"index {i.token} is not valid in algebra {self.name}")
            out = self._acache[key] = self.assoc_fn(x, y)
        return out

    def assoc(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the associative product."""
        return self._multilinear((x, y), lambda p: self.assoc_basis(p[0], p[1]))

    def _multilinear(self, args, rule):
        acc: dict = {}
        stack = [((), ONE)]
        for a in args:
            nxt = []
            for prefix, coeff in stack:
                for i, c in a.terms.items():
                    nxt.append((prefix + (i,), coeff * c))
            stack = nxt
        for idxs, coeff in stack:
            if not coeff:
                continue
            axpy(acc, coeff, rule(idxs).terms)
        return Element(acc)


def _el(pairs) -> Element:
    return Element({i: as_scalar(c) for i, c in pairs})


def _zero_rule(idxs) -> Element:
    return Element.zero()


# ---------------------------------------------------------------------------
# infinite binary families


def _witt_rule(idxs) -> Element:
    x, y = idxs
    i, j = x.degree2 // 2, y.degree2 // 2
    if i == j:
        return Element.zero()
    return Element.single(bidx(_E, x.degree2 + y.degree2), i - j)


def _make_witt(params) -> AlgebraSpec:
    return AlgebraSpec(name="witt", patterns=((_E, 0, None),), bracket_fn=_witt_rule)


def _make_laurent(params) -> AlgebraSpec:
    def assoc(x, y):
        return Element.basis(bidx(_E, x.degree2 + y.degree2))

    return AlgebraSpec(
        name="laurent",
        patterns=((_E, 0, None),),
        bracket_fn=_zero_rule,
        assoc_fn=assoc,
        display="laurent (commutative, zero bracket)",
    )


def _make_wab(params) -> AlgebraSpec:
    a, b = params["a"], params["b"]

    def rule(idxs):
        x, y = idxs
        fx, fy = x.family, y.family
        m, n = Fraction(x.degree2, 2), Fraction(y.degree2, 2)
        if fx is _L and fy is _L:
            if m == n:
                return Element.zero()
            return Element.single(bidx(_L, x.degree2 + y.degree2), m - n)
        if fx is _L and fy is _I:
            return Element.single(bidx(_I, x.degree2 + y.degree2), -(n + a + b * m))
        if fx is _I and fy is _L:
            return Element.single(bidx(_I, x.degree2 + y.degree2), m + a + b * n)
        return Element.zero()

    return AlgebraSpec(
        name="wab",
        params={"a": a, "b": b},
        patterns=((_L, 0, None), (_I, 0, None)),
        bracket_fn=rule,
        display=f"wab(a={a}, b={b})",
    )


def _vira_ll(x, y) -> Element:
    m, n = x.degree2 // 2, y.degree2 // 2
    out = {}
    if m != n:
        out[bidx(_L, x.degree2 + y.degree2)] = Fraction(m - n)
    if m + n == 0:
        cc = Fraction(m**3 - m, 12)
        if cc:
            out[C_INDEX] = cc
    return Element(out)


def _make_virasoro(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        if x.family is _C or y.family is _C:
            return Element.zero()
        return _vira_ll(x, y)

    return AlgebraSpec(
        name="virasoro", patterns=((_L, 0, None),), has_center=True, bracket_fn=rule
    )


def _g_offset(sector: str) -> int:
    # Ramond: integer G modes; Neveu-Schwarz: half-integer G modes.
    return 0 if sector == "ramond" else 1


def _make_svir(params) -> AlgebraSpec:
    sector = params["sector"]
    off = _g_offset(sector)

    def rule(idxs):
        x, y = idxs
        fx, fy = x.family, y.family
        if fx is _C or fy is _C:
            return Element.zero()
        if fx is _L and fy is _L:
            return _vira_ll(x, y)
        if fx is _L and fy is _GP:
            m = Fraction(x.degree2, 2)
            r = Fraction(y.degree2, 2)
            return Element.single(bidx(_GP, x.degree2 + y.degree2), m / 2 - r)
        if fx is _GP and fy is _L:
            m = Fraction(y.degree2, 2)
            r = Fraction(x.degree2, 2)
            return Element.single(bidx(_GP, x.degree2 + y.degree2), -(m / 2 - r))
        if fx is _GP and fy is _GP:
            r = Fraction(x.degree2, 2)
            out = {bidx(_L, x.degree2 + y.degree2): Fraction(2)}
            if x.degree2 + y.degree2 == 0:
                cc = (r * r - Fraction(1, 4)) / 3
                if cc:
                    out[C_INDEX] = cc
            return Element(out)
        return Element.zero()

    return AlgebraSpec(
        name="svir",
        sector=sector,
        params={"sector": sector},
        patterns=((_L, 0, None), (_GP, off, None)),
        has_center=True,
        bracket_fn=rule,
        display=f"svir ({sector})",
    )


def _make_n2sca(params) -> AlgebraSpec:
    sector = params["sector"]
    off = _g_offset(sector)

    def gplus_gminus(xp, ym) -> Element:
        # x in G+, y in G-; both odd so the bracket is symmetric.
        r = Fraction(xp.degree2, 2)
        s = Fraction(ym.degree2, 2)
        d2 = xp.degree2 + ym.degree2
        out = {bidx(_L, d2): ONE}
        jc = (r - s) / 2
        if jc:
            out[bidx(_J, d2)] = jc
        if d2 == 0:
            cc = (r * r - Fraction(1, 4)) / 6
            if cc:
                out[C_INDEX] = cc
        return Element(out)

    def rule(idxs):
        x, y = idxs
        fx, fy = x.family, y.family
        if fx is _C or fy is _C:
            return Element.zero()
        if fx is _L and fy is _L:
            return _vira_ll(x, y)
        if fx is _L and fy is _J:
            n = Fraction(y.degree2, 2)
            return Element.single(bidx(_J, x.degree2 + y.degree2), -n)
        if fx is _J and fy is _L:
            n = Fraction(x.degree2, 2)
            return Element.single(bidx(_J, x.degree2 + y.degree2), n)
        if fx is _J and fy is _J:
            if x.degree2 + y.degree2 == 0:
                m = Fraction(x.degree2, 2)
                return Element.single(C_INDEX, m / 3)
            return Element.zero()
        if fx is _L and fy in (_GP, _GM):
            m = Fraction(x.degree2, 2)
            r = Fraction(y.degree2, 2)
            return Element.single(bidx(fy, x.degree2 + y.degree2), m / 2 - r)
        if fx in (_GP, _GM) and fy is _L:
            m = Fraction(y.degree2, 2)
            r = Fraction(x.degree2, 2)
            return Element.single(bidx(fx, x.degree2 + y.degree2), -(m / 2 - r))
        if fx is _J and fy in (_GP, _GM):
            sgn = 1 if fy is _GP else -1
            return Element.single(bidx(fy, x.degree2 + y.degree2), sgn)
        if fx in (_GP, _GM) and fy is _J:
            # both orderings: [J_m, G±_r] = ±G±_{m+r}, G odd and J even
            sgn = -1 if fx is _GP else 1
            return Element.single(bidx(fx, x.degree2 + y.degree2), sgn)
        if fx is _GP and fy is _GM:
            return gplus_gminus(x, y)
        if fx is _GM and fy is _GP:
            return gplus_gminus(y, x)
        return Element.zero()

    return AlgebraSpec(
        name="n2sca",
        sector=sector,
        params={"sector": sector},
        patterns=((_L, 0, None), (_J, 0, None), (_GP, off, None), (_GM, off, None)),
        has_center=True,
        bracket_fn=rule,
        display=f"n2sca ({sector})",
    )


def _make_thin(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        i, j = x.degree2 // 2, y.degree2 // 2
        if i == 1 and j > 1:
            return Element.basis(bidx(_E, y.degree2 + 2))
        if j == 1 and i > 1:
            return Element.single(bidx(_E, x.degree2 + 2), -1)
        return Element.zero()

    return AlgebraSpec(name="thin", patterns=((_E, 0, 2),), bracket_fn=rule)


def _solvable_grade2(idx) -> int:
    return 0 if idx.degree2 == 2 else idx.degree2


def _make_solvable(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        i, j = x.degree2 // 2, y.degree2 // 2
        if i == 1 and j >= 2:
            return Element.basis(y)
        if j == 1 and i >= 2:
            return Element.single(x, -1)
        return Element.zero()

    return AlgebraSpec(
        name="solvable",
        patterns=((_E, 0, 2),),
        bracket_fn=rule,
        grade2_fn=_solvable_grade2,
    )


def _make_extended_laurent(params) -> AlgebraSpec:
    def assoc(x, y):
        fx, fy = x.family, y.family
        d2 = x.degree2 + y.degree2
        if fx is _L and fy is _L:
            return Element.basis(bidx(_L, d2))
        if fx is _I and fy is _I:
            return Element.zero()
        return Element.basis(bidx(_I, d2))

    return AlgebraSpec(
        name="extended_laurent",
        patterns=((_L, 0, None), (_I, 0, None)),
        bracket_fn=_zero_rule,
        assoc_fn=assoc,
        display="extended_laurent (commutative, zero bracket)",
    )


# ---------------------------------------------------------------------------
# finite algebras


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


def _finite_from_table(name, basis, table) -> AlgebraSpec:
    """Binary finite algebra from an upper table {(i,j): [(k, coeff)...]}, i < j positions."""
    values = {key: _el((basis[k], c) for k, c in terms) for key, terms in table.items()}
    return AlgebraSpec(name=name, basis_list=tuple(basis), bracket_fn=_skew_rule(basis, values))


def _make_sl2(params) -> AlgebraSpec:
    f, h, e = bidx(_E, -2), bidx(_E, 0), bidx(_E, 2)
    basis = (f, h, e)
    table = {(0, 1): [(0, 2)], (0, 2): [(1, -1)], (1, 2): [(2, 2)]}
    # [f,h]=2f, [f,e]=-h, [h,e]=2e
    return _finite_from_table("sl2", basis, table)


def _make_heisenberg(params) -> AlgebraSpec:
    q, p = bidx(_E, -2), bidx(_E, 2)
    basis = (q, p, C_INDEX)
    table = {(0, 1): [(2, -1)]}  # [q,p] = -z, so [p,q] = z
    return _finite_from_table("heisenberg", basis, table)


def _make_schrodinger(params) -> AlgebraSpec:
    f, h, e = bidx(_E, -4), bidx(_E, 0), bidx(_E, 4)
    q, p = bidx(_I, -2), bidx(_I, 2)
    z = C_INDEX
    basis = (f, h, e, q, p, z)
    table = {
        (0, 1): [(0, 2)],  # [f,h] = 2f
        (0, 2): [(1, -1)],  # [f,e] = -h
        (1, 2): [(2, 2)],  # [h,e] = 2e
        (1, 4): [(4, 1)],  # [h,p] = p
        (1, 3): [(3, -1)],  # [h,q] = -q
        (2, 3): [(4, 1)],  # [e,q] = p
        (0, 4): [(3, 1)],  # [f,p] = q
        (3, 4): [(5, -1)],  # [q,p] = -z, so [p,q] = z
    }
    return _finite_from_table("schrodinger", basis, table)


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


def _make_nary_simple(params) -> AlgebraSpec:
    n = params["n"]
    if not isinstance(n, int) or n < 3:
        raise ValueError("nary_simple needs an integer arity n >= 3")
    basis = tuple(bidx(_E, 2 * k) for k in range(1, n + 2))
    # [e_1,..,e_{i-1},e_{i+1},..,e_{n+1}] = (-1)^{n+1-i} e_i, i = m + 1
    table = {
        tuple(k for k in range(n + 1) if k != m): Element.single(basis[m], (-1) ** (n - m))
        for m in range(n + 1)
    }
    return AlgebraSpec(
        name="nary_simple",
        arity=n,
        params={"n": n},
        basis_list=basis,
        bracket_fn=_skew_rule(basis, table),
        grade2_fn=lambda idx: 0,
        display=f"nary_simple (n={n}, dim {n + 1})",
    )


# ---------------------------------------------------------------------------
# registry

_BUILDERS = {
    "witt": (_make_witt, ()),
    "laurent": (_make_laurent, ()),
    "wab": (_make_wab, ("a", "b")),
    "virasoro": (_make_virasoro, ()),
    "svir": (_make_svir, ("sector",)),
    "n2sca": (_make_n2sca, ("sector",)),
    "thin": (_make_thin, ()),
    "solvable": (_make_solvable, ()),
    "extended_laurent": (_make_extended_laurent, ()),
    "sl2": (_make_sl2, ()),
    "heisenberg": (_make_heisenberg, ()),
    "schrodinger": (_make_schrodinger, ()),
    "nary_simple": (_make_nary_simple, ("n",)),
}


def algebra_params(name: str) -> tuple:
    """Names of the parameters an algebra requires, in declaration order."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
    return _BUILDERS[name][1]


def make_algebra(name: str, params: dict | None = None, **kw) -> AlgebraSpec:
    """Instantiate one of the built-in algebras by name.

    wab needs rational a, b; svir and n2sca need sector
    ("ramond" or "neveu_schwarz"); nary_simple needs n >= 3.
    """
    if name not in _BUILDERS:
        raise ValueError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
    builder, wanted = _BUILDERS[name]
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


def identity_residual(alg: AlgebraSpec, args: tuple) -> Element:
    """Defining-identity residual on a basis tuple; zero iff it holds there.

    Takes 2n-1 indices (x_1..x_{n-1}, y_1..y_n) and evaluates the adjoint
    derivation form [x,[y]] - sum_i [y_1,..,[x,y_i],..,y_n], with the
    Koszul sign (-1)^{P(|y_1|+..+|y_{i-1}|)} where P is the parity of the
    x block.  For n = 2 this is the (super-)Jacobi identity.
    """
    n = alg.arity
    if len(args) != 2 * n - 1:
        raise ValueError(f"identity residual needs {2 * n - 1} indices, got {len(args)}")
    xs, ys = args[: n - 1], args[n - 1 :]
    inner = alg.bracket_basis(ys)
    lhs = _apply_in_last_slot(alg, xs, inner)
    p = sum(i.parity for i in xs) % 2
    rhs = Element.zero()
    prefix = 0
    for i, yi in enumerate(ys):
        moved = _apply_in_last_slot(alg, xs, Element.basis(yi))
        acc: dict = {}
        for mi, mc in moved.terms.items():
            axpy(acc, mc, alg.bracket_basis(ys[:i] + (mi,) + ys[i + 1 :]).terms)
        term = Element(acc)
        if p and prefix % 2:
            rhs = rhs - term
        else:
            rhs = rhs + term
        prefix += yi.parity
    return lhs - rhs


def _apply_in_last_slot(alg, xs: tuple, el: Element) -> Element:
    """bracket(x_1,..,x_{n-1}, el) extended linearly in the last slot."""
    acc: dict = {}
    for i, c in el.terms.items():
        axpy(acc, c, alg.bracket_basis(xs + (i,)).terms)
    return Element(acc)


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
            out = b.bracket_basis(tuple(b_inv[i] for i in idxs))
            return Element({b_map[i]: c for i, c in out.terms.items()})
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
    from itertools import combinations

    for combo in combinations(range(len(basis)), alg.arity):
        out = alg.bracket_basis(tuple(basis[k] for k in combo))
        if out.is_zero():
            continue
        terms = [[pos[i], str(c)] for i, c in out.items()]
        entries.append(list(combo) + [terms])
    return {"dim": len(basis), "arity": alg.arity, "brackets": entries}


def algebra_from_structure_json(data: dict, name: str = "custom") -> AlgebraSpec:
    """Finite algebra from a JSON structure table (positions label e_0..e_{dim-1}).

    Only the entries with strictly increasing index tuples are read; the
    other orderings are generated by full skew-symmetry.  No grading is
    assumed for imported tables.
    """
    dim = int(data["dim"])
    arity = int(data.get("arity", 2))
    basis = tuple(bidx(_E, 2 * k) for k in range(dim))
    table: dict = {}
    for entry in data["brackets"]:
        *combo, terms = entry
        combo = tuple(int(k) for k in combo)
        if len(combo) != arity:
            raise ValueError(f"entry {entry!r} does not match arity {arity}")
        outs = tuple(int(k) for k, _ in terms)
        if any(not 0 <= k < dim for k in combo + outs):
            raise ValueError(f"entry {entry!r} indexes outside dim {dim}")
        if len(set(outs)) != len(outs):
            raise ValueError(f"entry {entry!r} repeats an output position")
        if sorted(set(combo)) != list(combo):
            raise ValueError(f"entry {entry!r} must use a strictly increasing tuple")
        if combo in table:
            raise ValueError(f"entry {entry!r} repeats the tuple {list(combo)}")
        table[combo] = _el((basis[int(k)], c) for k, c in terms)
    return AlgebraSpec(
        name=name,
        arity=arity,
        basis_list=basis,
        bracket_fn=_skew_rule(basis, table),
        grade2_fn=lambda idx: 0,
        display=f"{name} (imported, dim {dim})",
    )
