"""The built-in algebras of the paper, and the registry that names them.

One rule (the bracket on basis indices) and one builder per algebra; a
rule wrapped in `halfder.algebras._skew` is written on ascending tuples
only, and the wrapper derives every other ordering.
This module holds the Witt-type families: the Witt, Laurent and W(a,b)
algebras, the thin and solvable algebras and the extended Laurent
ambient.  Witt and W(a,b) are built from the Witt bracket `_witt` and
the density action `_density` of `halfder.superconformal`, which holds
the Virasoro, super-Virasoro and N=2 superconformal builders; the finite
classics and the simple n-ary family live in `halfder.finite`.
`halfder.algebras.make_algebra` looks names up in `BUILDERS`, whose keys
are `ALGEBRA_NAMES`, in order; it imports this module on first use, since
the builders import `_skew` from it.
"""

from __future__ import annotations

from .algebras import _skew
from .basis import Family, bidx
from .element import Element
from .finite import _make_heisenberg, _make_nary_simple, _make_schrodinger, _make_sl2
from .spec import AlgebraSpec
from .superconformal import _density, _make_n2sca, _make_svir, _make_virasoro, _witt

_E, _L, _I = Family.E, Family.L, Family.I


def _zero_rule(idxs) -> Element:
    return Element.zero()


def _make_witt(params) -> AlgebraSpec:
    return AlgebraSpec(name="witt", patterns=((_E, 0, None),), bracket_fn=_witt)


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
        if x.family is not _L:
            return Element.zero()
        return _witt(idxs) if y.family is _L else _density(x, y, a, b)

    return AlgebraSpec(
        name="wab",
        params={"a": a, "b": b},
        patterns=((_L, 0, None), (_I, 0, None)),
        bracket_fn=_skew(rule),
        display=f"wab(a={a}, b={b})",
    )


def _make_thin(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        i, j = x.degree2 // 2, y.degree2 // 2
        if i == 1 and j > 1:
            return Element.basis(bidx(_E, y.degree2 + 2))
        return Element.zero()

    return AlgebraSpec(name="thin", patterns=((_E, 0, 2),), bracket_fn=_skew(rule))


def _solvable_grade2(idx) -> int:
    return 0 if idx.degree2 == 2 else idx.degree2


def _make_solvable(params) -> AlgebraSpec:
    def rule(idxs):
        x, y = idxs
        i, j = x.degree2 // 2, y.degree2 // 2
        if i == 1 and j >= 2:
            return Element.basis(y)
        return Element.zero()

    return AlgebraSpec(
        name="solvable",
        patterns=((_E, 0, 2),),
        bracket_fn=_skew(rule),
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
ALGEBRA_NAMES = tuple(BUILDERS)
