"""Exact elimination over the integers: the cut, and the fraction-free
reduced row echelon form built on it.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd


def _cut(v: dict, d: int, w: dict, dw: int) -> None:
    """Replace v by (dw*v - d*w)/g in place, g the gcd of its entries,
    dropping the entries that cancel: the one elimination step.

    With d and dw the dot products of v and w with some row, the result
    annihilates that row; with d and dw the entries of v and w at a
    column, it is 0 there.
    """
    for u in v:
        v[u] *= dw
    for u, x in w.items():
        if y := v.get(u, 0) - d * x:
            v[u] = y
        else:
            del v[u]
    if (g := gcd(*v.values())) > 1:
        for u in v:
            v[u] //= g


def _rref(rows: Iterable[dict]) -> dict:
    """Reduced row echelon form of integer rows with nonzero entries,
    fraction-free, as {lead: row}; its length is the rank.

    Each pivot row is primitive, positive at its lead (its least column)
    and 0 at every other lead.
    """
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r and (p := pivots.get(lead := min(r))):
            _cut(r, r[lead], p, p[lead])
        if r:
            g = gcd(*r.values()) if r[lead] > 0 else -gcd(*r.values())
            pivots[lead] = {u: x // g for u, x in r.items()}
    for lead in sorted(pivots, reverse=True):
        p = pivots[lead]
        for other in pivots.values():
            if other is not p and (d := other.get(lead)):
                _cut(other, d, p, p[lead])
    return pivots

