"""The windowed delta-derivation system, streamed one grade class at a time.

The unknown (s, t), the coefficient of t in phi(s), has the class
(grade2(t) - grade2(s), parity of t xor parity of s) on every algebra, and
every residual row of a graded algebra lies inside one class; grade2 is 0
on a finite algebra, whose classes are its parities.  A solve finishes one
class before it starts the next, and each class keeps an exact integer
basis of the nullspace of its rows so far, so it stores no row.
solver._system_rows imports this module on the first solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import solver
from .algebras import leibniz_slots
from .elimination import _cut
from .maps import _Window
from .solver import bounded_tuples
from .spec import BracketTable


def class_split(win: _Window) -> dict:
    """{k: (targets, cols)} per class k: targets[s] is the flat list
    [u, t, u, t, ...] of the unknowns u = (s, t) of class k, no pair per
    unknown, and cols the unknowns of k, ascending."""
    grade2 = win.alg.grade2
    split: dict = {}
    for u, (s, t) in enumerate(win.unknowns):
        targets, cols = split.setdefault((grade2(t) - grade2(s), t.parity ^ s.parity), ({}, []))
        targets.setdefault(s, []).extend((u, t))
        cols.append(u)
    return split


def residual_rows(delta: Fraction, targets: dict, table: BracketTable, tuples: list):
    """Yield the residual rows of one class per (sorted tuple, output index),
    with targets the class's map from class_split, which names each
    unknown, and tuples the solve's bounded tuples (solver.bounded_tuples),
    in order.

    A row is an integer {unknown: coefficient} dict, zero-free, in
    ascending unknowns; rows repeat.  Brackets are read from table, the
    solve's own, shared by its classes, not from the algebra's memo, so the
    window's constants are freed with the solve.
    """
    dn, dd = delta.numerator, delta.denominator
    for args in tuples:
        b = table[args]
        # phi of the bracket, minus delta times the bracket with phi in slot i,
        # signed as algebras.leibniz_slots says
        inner = []
        for xi, before, after, p in leibniz_slots(args):
            it = iter(targets.get(xi, ()))
            for u, t in zip(it, it):
                if bi := table[before + (t,) + after]:
                    inner.append((u, dn if t.parity == p else -dn, bi))
        scale = dd * lcm(*b[:1], *(bi[0] for _, _, bi in inner))
        acc: dict = {}
        for o, c in zip(b[1::2], b[2::2]):
            f = c * (scale // b[0])
            it = iter(targets.get(o, ()))
            for u, t in zip(it, it):
                d = acc.setdefault(t, {})
                d[u] = d.get(u, 0) + f
        for u, n, bi in inner:
            f = n * (scale // (dd * bi[0]))
            for o, c in zip(bi[1::2], bi[2::2]):
                d = acc.setdefault(o, {})
                d[u] = d.get(u, 0) + f * c
        for d in acc.values():
            if row := {u: c for u, c in sorted(d.items()) if c}:
                yield row


class _Class:
    """An integer basis N of the nullspace of the rows fed to one class.

    N starts as the unit vectors of the class's columns.  Those of the
    columns no row has touched stay implicit, as the keys of free; the
    explicit vectors in null use no free column.  A row that N annihilates
    is in the Q-span of the rows before it and is dropped.  Otherwise a w
    in N with a nonzero dot product dw leaves N, and every other v with
    dot d is cut to dw*v - d*w (elimination._cut), so N spans the nullspace
    of every row so far; the class is at full rank when N is empty.
    """

    __slots__ = ("free", "null")

    def __init__(self, cols: list):
        self.free = dict.fromkeys(cols)
        self.null = []

    def vectors(self) -> list[dict]:
        """N, the unit vectors of the free columns first."""
        return [{u: 1} for u in self.free] + self.null

    def add(self, r: dict) -> bool:
        """Feed one row of the class; True once the class has full rank."""
        free, null = self.free, self.null
        dots = [sum(c * v.get(u, 0) for u, c in r.items()) for v in null]
        if touched := [u for u in r if u in free]:
            # w is e_p for the row's first free column p; its other free
            # columns join null as unit vectors, to be cut like the rest
            for u in touched:
                del free[u]
            w, dw = {touched[0]: 1}, r[touched[0]]
            null += ({u: 1} for u in touched[1:])
            dots += (r[u] for u in touched[1:])
        elif any(dots):  # the sparsest explicit w
            j = min((j for j, d in enumerate(dots) if d), key=lambda j: len(null[j]))
            w, dw = null.pop(j), dots.pop(j)
        for v, d in zip(null, dots):
            if d:  # all 0 when neither branch ran
                _cut(v, d, w, dw)
        return not (free or null)


def select_rows(win: _Window, delta: Fraction) -> dict:
    """The nullspace of the window's system as reduced integer pivots
    {f: row}, one per free column f, positive at f and 0 at the other free
    columns: divided by its entry at f, a row is the vector a full
    elimination reads off its reduced row echelon form for f.

    The bounded tuples are filtered once, through the solve's table, and
    every class reads that one list.  Each class's stream feeds one _Class
    and closes at the row that completes the class's rank: its nullspace
    is {0}, so neither the rest of its rows nor the brackets only they
    read are assembled.  The N of every class below full rank is kept,
    and one solver._rref of them all, keyed by ~u and keyed back, leads
    each vector with its largest unknown; those leads are the free
    columns, since a column is free when it is the largest unknown of some
    nullspace vector.
    Raises ValueError when an entry of the solve's table is not homogeneous
    for grade2 and parity (parity alone on a finite algebra, where grade2 is
    0): a row leaves its class only through such an entry.
    """
    alg = win.alg
    table = BracketTable(alg)
    tuples = list(bounded_tuples(alg, win.sources, table.__getitem__))
    null: list = []
    for targets, cols in class_split(win).values():
        c = _Class(cols)
        if not any(map(c.add, residual_rows(delta, targets, table, tuples))):
            null += c.vectors()
    for args, b in table.items():
        key = (sum(map(alg.grade2, args)), sum(x.parity for x in args) % 2)
        if bad := [o.token for o in b[1::2] if (alg.grade2(o), o.parity) != key]:
            tokens = ", ".join(x.token for x in args)
            raise ValueError(f"[{tokens}] has {bad[0]}, so a row leaves its class: {alg.name} is not graded")
    # through solver, where perfbench's tracer wraps _rref
    pivots = solver._rref({~u: x for u, x in v.items()} for v in null)
    return {~lead: {~u: x for u, x in p.items()} for lead, p in pivots.items()}
