"""The built-in algebras of the paper, and the registry that names them.

One rule (the bracket on basis indices) and one builder per algebra:
the Witt, Laurent, W(a,b), Virasoro, super-Virasoro and N=2
superconformal families, the thin and solvable algebras, the extended
Laurent ambient, the finite classics and the simple n-ary family.
`halfder.algebras.make_algebra` looks names up in `BUILDERS`; it imports
this module on first use, since this module imports `AlgebraSpec` from it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import AlgebraSpec, _el, _skew_rule, _ungraded
from .core import C_INDEX, Element, Family, ONE, bidx

_E, _L, _I, _J, _C = Family.E, Family.L, Family.I, Family.J, Family.C
_GP, _GM = Family.GPLUS, Family.GMINUS


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
        grade2_fn=_ungraded,
        display=f"nary_simple (n={n}, dim {n + 1})",
    )


# ---------------------------------------------------------------------------
# registry

BUILDERS = {
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
