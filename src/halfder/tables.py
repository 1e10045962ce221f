"""Algebras built from data: direct sums and JSON structure tables, which
`halfder.algebras` serves by name on first use."""

from __future__ import annotations

from itertools import chain, combinations

from .algebras import _el, _skew
from .basis import Family, as_scalar, bidx
from .element import Element, unpack
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
        if odd := [i.token for i in alg.basis_list if i.parity]:
            raise ValueError(
                f"direct_sum relabels families into the even ones (E, L, I, J), so it takes no odd "
                f"basis index; {alg.name} has {', '.join(odd)}"
            )
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

    return AlgebraSpec(
        name=f"{a.name}+{b.name}",
        arity=a.arity,
        basis_list=basis,
        bracket_fn=rule,
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
    other orderings follow by skew-symmetry, through algebras._skew.  No grading is
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
        key = tuple(basis[k] for k in combo)
        if key in table:
            raise ValueError(f"entry {entry!r} repeats the tuple {list(combo)}")
        table[key] = _el((basis[k], c) for k, c in terms)
    return AlgebraSpec(
        name=name,
        arity=arity,
        basis_list=basis,
        bracket_fn=_skew(lambda idxs: table.get(idxs, Element.zero())),
        display=f"{name} (imported, dim {dim})",
    )
