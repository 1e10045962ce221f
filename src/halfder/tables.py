"""Algebras built from data: direct sums and JSON structure tables, which
`halfder.algebras` serves by name on first use."""

from __future__ import annotations

from itertools import combinations

from .basis import Family, as_scalar, bidx
from .element import Element
from .finite import finite_algebra
from .spec import AlgebraSpec

_E, _L, _I, _J, _C = Family.E, Family.L, Family.I, Family.J, Family.C

_SUM_FAMILY_POOL = (_E, _L, _I, _J)


def direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Direct sum of two finite Lie algebras (no odd basis index) with
    disjointly relabeled families."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("direct_sum is defined for finite algebras only")
    if a.arity != b.arity:
        raise ValueError("direct_sum operands must share the arity")
    for alg in (a, b):
        _even_only(alg, "direct_sum relabels families into the even ones (E, L, I, J), so it takes no odd basis index")
    used = {i.family for i in a.basis_list}
    free = [f for f in _SUM_FAMILY_POOL if f not in used]
    relabel: dict = {}
    b_families = sorted({i.family for i in b.basis_list})
    for fam in b_families:
        if fam is _C and _C not in used:
            relabel[fam] = _C
            continue
        if not free:
            raise ValueError("not enough families to relabel the second summand")
        relabel[fam] = free.pop(0)
    b_map = {i: bidx(relabel[i.family], i.degree2) for i in b.basis_list}
    # relabel keeps the order of b's basis, so b's ascending tuples stay ascending
    table = dict(_ascending(a))
    for idxs, out in _ascending(b):
        table[tuple(b_map[i] for i in idxs)] = Element({b_map[o]: c for o, c in out.terms.items()})
    basis = tuple(sorted([*a.basis_list, *b_map.values()]))
    return finite_algebra(f"{a.name}+{b.name}", basis, table, a.arity, display=f"{a.display} (+) {b.display}")


def _even_only(alg: AlgebraSpec, why: str) -> None:
    """Raise ValueError, why and the odd indices, if alg's basis has one."""
    if odd := [i.token for i in alg.basis_list if i.parity]:
        raise ValueError(f"{why}; {alg.name} has {', '.join(odd)}")


def _ascending(alg: AlgebraSpec):
    """(tuple, bracket) on each ascending tuple of a finite algebra's basis
    whose bracket is nonzero: the table `finite_algebra` reads."""
    for idxs in combinations(sorted(alg.basis_list), alg.arity):
        if out := alg.bracket_basis(idxs):
            yield idxs, out


def finite_structure_json(alg: AlgebraSpec) -> dict:
    """Structure-constant table of a finite algebra with no odd basis index
    as plain JSON data, its positions labelling the basis in ascending order."""
    if not alg.is_finite:
        raise ValueError(f"algebra {alg.name} is not finite")
    # a table carries no parity and reads strictly increasing tuples, so an
    # odd x would lose [x, x] and come back even
    _even_only(alg, "a structure table carries no parity, so it takes no odd basis index")
    basis = sorted(alg.basis_list)
    pos = {idx: k for k, idx in enumerate(basis)}
    entries = [[*map(pos.get, idxs), [[pos[i], str(c)] for i, c in out.items()]]
               for idxs, out in _ascending(alg)]
    return {"dim": len(basis), "arity": alg.arity, "brackets": entries}


def _json_int(value) -> int:
    """An int read from JSON; a float or a bool is rejected, never truncated."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an int")
    return value


def algebra_from_structure_json(data: dict, name: str = "custom") -> AlgebraSpec:
    """Finite algebra from a JSON structure table (positions label e_0..e_{dim-1}).

    Only the entries with strictly increasing index tuples are read; the
    other orderings follow by skew-symmetry, through finite_algebra.  No
    grading is assumed for imported tables.
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
        key = tuple(basis[k] for k in combo)
        if key in table:
            raise ValueError(f"entry {entry!r} repeats the tuple {list(combo)}")
        table[key] = Element({basis[k]: c for k, c in terms})
    return finite_algebra(name, basis, table, arity, display=f"{name} (imported, dim {dim})")
