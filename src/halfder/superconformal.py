"""The Virasoro algebra and its super extensions: the super-Virasoro
(N=1) and N=2 superconformal algebras, in the Ramond or Neveu-Schwarz
sector.  The super rules are written on ascending tuples only, and
`halfder.algebras._skew` derives every other ordering.
`halfder.catalogue` registers their builders.

Every Witt-type bracket is built from two laws: the Witt bracket `_witt`
and the action `_density` of Witt on a density module F(a, b).  witt is
`_witt`, W(a, b) adds I = F(a, b), Virasoro (`_vira_ll`) adds a cocycle
to `_witt`, N=1 adds G = F(0, -1/2) to Virasoro, and N=2 adds J = F(0, 0)
and G+, G- = F(0, -1/2).  A central term is computed only at degree 0."""

from __future__ import annotations

from fractions import Fraction

from .algebras import _skew
from .basis import C_INDEX, Family, ONE, bidx
from .element import Element
from .spec import AlgebraSpec

_L, _J, _C = Family.L, Family.J, Family.C
_GP, _GM = Family.GPLUS, Family.GMINUS
_G_B = Fraction(-1, 2)  # b of G = F(0, -1/2)


def _witt(idxs) -> Element:
    """[x_m, x_n] = (m - n) x_{m+n}, in x's family."""
    x, y = idxs
    return Element({bidx(x.family, x.degree2 + y.degree2): Fraction((x.degree2 - y.degree2) // 2)})


def _density(x, y, a, b) -> Element:
    """[L_m, v_n] = -(n + a + b m) v_{m+n}, v in F(a, b): in doubled degrees
    the coefficient is (n2 + 2a + b m2) / -2."""
    d = y.degree2 + 2 * a + b * x.degree2
    return Element({bidx(y.family, x.degree2 + y.degree2): Fraction(d, -2)})


def _vira_ll(idxs) -> Element:
    """`_witt` plus the cocycle (m^3 - m)/12 c where m + n = 0."""
    x, y = idxs
    if x.degree2 + y.degree2:
        return _witt(idxs)
    m = x.degree2 // 2
    return Element({**_witt(idxs).terms, C_INDEX: Fraction(m**3 - m, 12)})


def _make_virasoro(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        if x.family is _C or y.family is _C:
            return Element.zero()
        return _vira_ll(idxs)

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
        if fy is _C:
            return Element.zero()
        if fx is _L:
            return _vira_ll(idxs) if fy is _L else _density(x, y, 0, _G_B)
        # the one ascending pair left: G, G
        out = {bidx(_L, x.degree2 + y.degree2): Fraction(2)}
        if x.degree2 + y.degree2 == 0:
            out[C_INDEX] = (Fraction(x.degree2, 2) ** 2 - Fraction(1, 4)) / 3
        return Element(out)

    return AlgebraSpec(
        name="svir",
        params={"sector": sector},
        patterns=((_L, 0, None), (_GP, off, None)),
        has_center=True,
        bracket_fn=_skew(rule),
        display=f"svir ({sector})",
    )


def _make_n2sca(params) -> AlgebraSpec:
    sector = params["sector"]
    off = _g_offset(sector)

    def rule(idxs):
        x, y = idxs
        fx, fy = x.family, y.family
        if fy is _C:
            return Element.zero()
        if fx is _L:
            return _vira_ll(idxs) if fy is _L else _density(x, y, 0, 0 if fy is _J else _G_B)
        if fx is _J and fy is _J:  # m/3 c where m + n = 0
            if x.degree2 + y.degree2:
                return Element.zero()
            return Element.single(C_INDEX, Fraction(x.degree2, 6))
        if fx is _J and fy in (_GP, _GM):
            # [J_m, G±_r] = ±G±_{m+r}
            sgn = 1 if fy is _GP else -1
            return Element.single(bidx(fy, x.degree2 + y.degree2), sgn)
        if fx is _GP and fy is _GM:
            # L_{r+s} + (r - s)/2 J_{r+s}; both odd, so [G-_s, G+_r] = [G+_r, G-_s]
            d2 = x.degree2 + y.degree2
            out = {bidx(_L, d2): ONE, bidx(_J, d2): Fraction(x.degree2 - y.degree2, 4)}
            if d2 == 0:
                out[C_INDEX] = (Fraction(x.degree2, 2) ** 2 - Fraction(1, 4)) / 6
            return Element(out)
        return Element.zero()

    return AlgebraSpec(
        name="n2sca",
        params={"sector": sector},
        patterns=((_L, 0, None), (_J, 0, None), (_GP, off, None), (_GM, off, None)),
        has_center=True,
        bracket_fn=_skew(rule),
        display=f"n2sca ({sector})",
    )
