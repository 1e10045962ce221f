"""Streamed residual rows of the windowed delta-derivation system.

residual_rows yields the equations one at a time as primitive integer
rows; select_rows splits them into components and keeps the few rows that
still carry information, so a solve never holds its whole system.
solver._system_rows imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .solver import _row_dict, _Window, bounded_tuples

# rows independent mod this prime are independent over Q
_P = (1 << 61) - 1


def residual_rows(win: _Window, delta: Fraction):
    """Yield the residual rows, one per (tuple, output index); rows repeat.

    Each row is a primitive integer row, the flat tuple (u_1..u_k, c_1..c_k)
    with ascending unknowns, coprime coefficients and c_1 > 0, so rows that
    are rational multiples of each other coincide.  Rows for permuted
    argument tuples are scalar multiples of each other, so only sorted
    tuples are generated.  Structure constants are read from alg.bracket_fn
    into a table local to the call, as ints over a common denominator.
    """
    table: dict = {}

    def bracket(args):
        """(den, o_1, n_1, o_2, n_2, ...): the bracket is sum n_i/den o_i."""
        if (out := table.get(args)) is None:
            terms = win.alg.bracket_fn(args).terms
            den = lcm(*(c.denominator for c in terms.values()))
            out = table[args] = (den, *chain(*((o, c.numerator * den // c.denominator) for o, c in terms.items())))
        return out

    dn, dd = delta.numerator, delta.denominator
    for args in bounded_tuples(win.alg, win.sources, lambda args: bracket(args)[1::2]):
        # phi of the bracket, minus delta times the bracket with phi in slot i
        inner = []
        prefix = 0
        for i, xi in enumerate(args):
            for t in win.targets[xi]:
                n = dn if (t.parity ^ xi.parity) and prefix % 2 else -dn
                inner.append((win.uid[(xi, t)], n, bracket(args[:i] + (t,) + args[i + 1 :])))
            prefix += xi.parity
        b = bracket(args)
        scale = dd * lcm(b[0], *(bi[0] for _, _, bi in inner))
        acc: dict = {}
        for o, c in zip(b[1::2], b[2::2]):
            f = c * (scale // b[0])
            for t in win.targets[o]:
                d = acc.setdefault(t, {})
                u = win.uid[(o, t)]
                d[u] = d.get(u, 0) + f
        for u, n, bi in inner:
            f = n * (scale // (dd * bi[0]))
            for o, c in zip(bi[1::2], bi[2::2]):
                d = acc.setdefault(o, {})
                d[u] = d.get(u, 0) + f * c
        for d in acc.values():
            if row := sorted((u, c) for u, c in d.items() if c):
                g = gcd(*(c for _, c in row)) * (1 if row[0][1] > 0 else -1)
                yield tuple(u for u, _ in row) + tuple(c // g for _, c in row)


def _raises_rank(row: tuple, pivots: dict) -> bool:
    """Reduce a flat integer row mod _P against pivots, each solved for its
    lead as in solver._rref; a nonzero remainder joins them and returns True."""
    r = {u: x for u, c in _row_dict(row).items() if (x := c % _P)}
    while r and (lead := min(r)) in pivots:
        f = r.pop(lead)
        for c, v in pivots[lead].items():
            if x := (r.get(c, 0) + f * v) % _P:
                r[c] = x
            else:
                r.pop(c, None)
    if not r:
        return False
    inv = _P - pow(r.pop(lead), -1, _P)
    pivots[lead] = {c: v * inv % _P for c, v in r.items()}
    return True


def select_rows(rows: Iterable[tuple], ncols: int) -> list[tuple]:
    """The components of a stream over unknowns 0..ncols-1 that still have
    a nullspace, as (cols, kept, held) with cols ascending.

    A union-find over unknowns keeps, per root, its column count, its
    pivots mod _P, its kept rows and its held rows.  A row whose root has
    full mod-p rank is dropped: the root's kept rows are independent over
    Q, so they span every row on its columns.  Otherwise a row that raises
    the mod-p rank is kept, and one that does not is held, since over Q it
    may still be independent; held rows go when their root reaches full
    rank.  Components at full rank, whose nullspace is {0}, are left out;
    an unknown in no row is a component of one column.  Exact repeats
    reduce to zero, so they are held; each distinct held row is returned
    once.  Deduplicating after the stream keeps a hash table of the held
    rows out of the memory peak, which falls while residual_rows still
    holds its bracket table.
    """
    parent: dict = {}
    roots: dict = {}  # root -> [column count, pivots mod _P, kept rows, held rows]

    def find(u):
        while (p := parent.setdefault(u, u)) != u:
            parent[u] = u = parent[p]
        return u

    for row in rows:
        us = row[: len(row) // 2]
        for u in us:
            if u not in parent:
                roots[u] = [1, {}, [], []]
        root, *others = sorted({find(u) for u in us})
        state = roots[root]
        for r in others:
            parent[r] = root
            cols, pivots, kept, held = roots.pop(r)
            state[0] += cols
            state[1].update(pivots)
            state[2] += kept
            state[3] += held
        cols, pivots, kept, held = state
        if len(pivots) == cols:
            continue
        if _raises_rank(row, pivots):
            kept.append(row)
            if len(pivots) == cols:
                held.clear()
        else:
            held.append(row)
    comps: dict = {}
    for u in range(ncols):
        comps.setdefault(find(u), []).append(u)
    out = []
    for r, cols in comps.items():
        _, pivots, kept, held = roots.get(r, (1, {}, [], []))
        if len(pivots) < len(cols):
            out.append((cols, kept, list(dict.fromkeys(held))))
    return out
