"""The finite built-in algebras: sl2, Heisenberg, Schrodinger and the
simple n-ary algebra, each from a table of its brackets on ascending
tuples, read through `halfder.algebras._skew`.
`halfder.catalogue` registers their builders."""

from __future__ import annotations

from .algebras import _el, _skew
from .basis import C_INDEX, Family, bidx
from .element import Element
from .spec import AlgebraSpec

_E, _I = Family.E, Family.I


def _finite_from_table(name, basis, table) -> AlgebraSpec:
    """Binary finite algebra from an upper table {(i,j): [(k, coeff)...]}, i < j positions."""
    values = {(basis[i], basis[j]): _el((basis[k], c) for k, c in terms) for (i, j), terms in table.items()}
    return AlgebraSpec(name=name, basis_list=basis, bracket_fn=_skew(lambda idxs: values.get(idxs, Element.zero())))


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
    if n < 3:
        raise ValueError(f"nary_simple needs arity n >= 3, not {n}")
    basis = tuple(bidx(_E, 2 * k) for k in range(1, n + 2))
    # [e_1,..,e_{i-1},e_{i+1},..,e_{n+1}] = (-1)^{n+1-i} e_i, i = m + 1
    table = {
        basis[:m] + basis[m + 1 :]: Element.single(basis[m], (-1) ** (n - m))
        for m in range(n + 1)
    }
    return AlgebraSpec(
        name="nary_simple",
        arity=n,
        params={"n": n},
        basis_list=basis,
        bracket_fn=_skew(lambda idxs: table.get(idxs, Element.zero())),
        display=f"nary_simple (n={n}, dim {n + 1})",
    )
