"""The finite algebras: `finite_algebra`, the one constructor of a finite
algebra from a table of its brackets on ascending tuples, read through
`halfder.algebras._skew`, and the built-in finite builders: sl2,
Heisenberg, Schrodinger and the simple n-ary algebra.
`halfder.catalogue` registers the builders; `halfder.tables` builds
imported tables and direct sums through the constructor."""

from __future__ import annotations

from .algebras import _skew
from .basis import C_INDEX, Family, bidx
from .element import Element
from .spec import AlgebraSpec

_E, _I = Family.E, Family.I


def finite_algebra(name, basis, table, arity=2, params=None, display="") -> AlgebraSpec:
    """A finite algebra on basis, an ascending tuple, whose brackets on
    ascending tuples are table {ascending basis tuple: Element}, zero where
    the table has no entry; `_skew` gives every other ordering."""
    return AlgebraSpec(name=name, arity=arity, params=params, basis_list=basis,
                       bracket_fn=_skew(lambda idxs: table.get(idxs, Element.zero())), display=display)


def _make_sl2(params) -> AlgebraSpec:
    f, h, e = bidx(_E, -2), bidx(_E, 0), bidx(_E, 2)
    table = {(f, h): Element.single(f, 2), (f, e): Element.single(h, -1), (h, e): Element.single(e, 2)}
    return finite_algebra("sl2", (f, h, e), table)


def _make_heisenberg(params) -> AlgebraSpec:
    q, p = bidx(_E, -2), bidx(_E, 2)
    # [q,p] = -z, so [p,q] = z
    return finite_algebra("heisenberg", (q, p, C_INDEX), {(q, p): Element.single(C_INDEX, -1)})


def _make_schrodinger(params) -> AlgebraSpec:
    f, h, e = bidx(_E, -4), bidx(_E, 0), bidx(_E, 4)
    q, p = bidx(_I, -2), bidx(_I, 2)
    z = C_INDEX
    table = {
        (f, h): Element.single(f, 2),
        (f, e): Element.single(h, -1),
        (h, e): Element.single(e, 2),
        (h, p): Element.single(p, 1),
        (h, q): Element.single(q, -1),
        (e, q): Element.single(p, 1),
        (f, p): Element.single(q, 1),
        (q, p): Element.single(z, -1),  # so [p,q] = z
    }
    return finite_algebra("schrodinger", (f, h, e, q, p, z), table)


def _make_nary_simple(params) -> AlgebraSpec:
    n = params["n"]
    if n < 3:
        raise ValueError(f"nary_simple needs arity n >= 3, not {n}")
    basis = tuple(bidx(_E, 2 * k) for k in range(1, n + 2))
    # [e_1,..,e_{i-1},e_{i+1},..,e_{n+1}] = (-1)^{n+1-i} e_i, i = m + 1
    table = {
        basis[:m] + basis[m + 1 :]: Element.single(basis[m], (-1) ** (n - m))
        for m in range(n + 1)
    }
    return finite_algebra("nary_simple", basis, table, n, {"n": n}, f"nary_simple (n={n}, dim {n + 1})")
