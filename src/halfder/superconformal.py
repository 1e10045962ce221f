"""The Virasoro algebra and its super extensions: the super-Virasoro
(N=1) and N=2 superconformal algebras, in the Ramond or Neveu-Schwarz
sector.  The super rules are written on ascending tuples only, and
`halfder.algebras._skew` derives every other ordering.
`halfder.catalogue` registers their builders."""

from __future__ import annotations

from fractions import Fraction

from .algebras import _skew
from .basis import C_INDEX, Family, ONE, bidx
from .element import Element
from .spec import AlgebraSpec

_L, _J, _C = Family.L, Family.J, Family.C
_GP, _GM = Family.GPLUS, Family.GMINUS


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
        if fy is _C:
            return Element.zero()
        if fx is _L and fy is _L:
            return _vira_ll(x, y)
        if fx is _L:
            m = Fraction(x.degree2, 2)
            r = Fraction(y.degree2, 2)
            return Element.single(bidx(_GP, x.degree2 + y.degree2), m / 2 - r)
        # the one ascending pair left: G, G
        r = Fraction(x.degree2, 2)
        out = {bidx(_L, x.degree2 + y.degree2): Fraction(2)}
        if x.degree2 + y.degree2 == 0:
            cc = (r * r - Fraction(1, 4)) / 3
            if cc:
                out[C_INDEX] = cc
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
        if fx is _L and fy is _L:
            return _vira_ll(x, y)
        if fx is _L and fy is _J:
            n = Fraction(y.degree2, 2)
            return Element.single(bidx(_J, x.degree2 + y.degree2), -n)
        if fx is _J and fy is _J:
            if x.degree2 + y.degree2 == 0:
                m = Fraction(x.degree2, 2)
                return Element.single(C_INDEX, m / 3)
            return Element.zero()
        if fx is _L and fy in (_GP, _GM):
            m = Fraction(x.degree2, 2)
            r = Fraction(y.degree2, 2)
            return Element.single(bidx(fy, x.degree2 + y.degree2), m / 2 - r)
        if fx is _J and fy in (_GP, _GM):
            # [J_m, G±_r] = ±G±_{m+r}
            sgn = 1 if fy is _GP else -1
            return Element.single(bidx(fy, x.degree2 + y.degree2), sgn)
        if fx is _GP and fy is _GM:
            # both odd, so [G-_s, G+_r] = [G+_r, G-_s]
            r = Fraction(x.degree2, 2)
            s = Fraction(y.degree2, 2)
            d2 = x.degree2 + y.degree2
            out = {bidx(_L, d2): ONE}
            jc = (r - s) / 2
            if jc:
                out[bidx(_J, d2)] = jc
            if d2 == 0:
                cc = (r * r - Fraction(1, 4)) / 6
                if cc:
                    out[C_INDEX] = cc
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
