"""The windowed delta-derivation system, streamed one grade class at a time.

The unknown (s, t), the coefficient of t in phi(s), has the class
(grade2(t) - grade2(s), parity of t xor parity of s), and every residual
row of a graded algebra lies inside one class; a finite algebra has one
class.  Each class keeps an exact integer basis of the nullspace of its
rows so far, so it stores no row.  solver._system_rows imports this module
on the first solve.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from . import solver
from .elimination import _cut
from .maps import _Window
from .solver import _bounded_entries, _row_dict
from .spec import BracketTable


def class_split(win: _Window) -> tuple[dict, dict]:
    """(targets, cols): targets[x][k] lists the targets t of source x with
    (x, t) in class k, and cols[k] the unknowns of class k, ascending."""
    alg = win.alg
    targets, cols = {}, {}
    for u, (s, t) in enumerate(win.unknowns):
        k = 0 if alg.is_finite else (alg.grade2(t) - alg.grade2(s), t.parity ^ s.parity)
        targets.setdefault(s, {}).setdefault(k, []).append(t)
        cols.setdefault(k, []).append(u)
    return targets, cols


def residual_rows(win: _Window, delta: Fraction, full=frozenset(), targets=None):
    """Yield the residual rows per (sorted tuple, class, output index),
    skipping the classes in full, which the caller may grow meanwhile.

    A row is the flat tuple (u_1..u_k, c_1..c_k) of a primitive integer row
    (ascending unknowns, coprime coefficients, c_1 > 0), so rows that are
    rational multiples of each other coincide; rows repeat.  Brackets are
    read from a BracketTable of the call's own, not from the algebra's
    memo, so the window's constants are freed with the stream.  Raises
    ValueError when a row leaves its class, that is when a bracket met is
    not homogeneous for grade2 and parity.
    """
    alg = win.alg
    graded = not alg.is_finite
    targets = targets or class_split(win)[0]
    classes = sorted({k for by_class in targets.values() for k in by_class})
    table = BracketTable(alg)
    dn, dd = delta.numerator, delta.denominator
    for args, b in _bounded_entries(alg, win.sources, table.__getitem__):
        grade = sum(map(alg.grade2, args))
        parity = sum(x.parity for x in args) % 2
        for k in classes:
            if k in full:
                continue
            # phi of the bracket, minus delta times the bracket with phi in slot i
            inner = []
            prefix = 0
            for i, xi in enumerate(args):
                for t in targets[xi].get(k, ()):
                    n = dn if (t.parity ^ xi.parity) and prefix % 2 else -dn
                    if bi := table[args[:i] + (t,) + args[i + 1 :]]:
                        inner.append((win.uid[(xi, t)], n, bi))
                prefix += xi.parity
            scale = dd * lcm(*b[:1], *(bi[0] for _, _, bi in inner))
            acc: dict = {}
            for o, c in zip(b[1::2], b[2::2]):
                f = c * (scale // b[0])
                for t in targets[o].get(k, ()):
                    d = acc.setdefault(t, {})
                    u = win.uid[(o, t)]
                    d[u] = d.get(u, 0) + f
            for u, n, bi in inner:
                f = n * (scale // (dd * bi[0]))
                for o, c in zip(bi[1::2], bi[2::2]):
                    d = acc.setdefault(o, {})
                    d[u] = d.get(u, 0) + f * c
            for y, d in acc.items():
                if graded and k != (alg.grade2(y) - grade, y.parity ^ parity):
                    tokens = ", ".join(x.token for x in args)
                    raise ValueError(f"the row of {y.token} for ({tokens}) leaves its class: {alg.name} is not graded")
                if row := sorted((u, c) for u, c in d.items() if c):
                    g = gcd(*[c for _, c in row]) * (1 if row[0][1] > 0 else -1)
                    yield (*[u for u, _ in row], *[c // g for _, c in row])


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

    def add(self, row: tuple) -> bool:
        """Feed one row of the class; True once the class has full rank."""
        free, null, r = self.free, self.null, _row_dict(row)
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


def select_rows(rows: Iterable[tuple], cols: dict, full: set) -> list[dict]:
    """The canonical nullspace basis of the stream, one vector per free
    column f, ascending: 1 at f and 0 at the other free columns, as a
    full elimination reads it off its reduced row echelon form.

    cols maps each class to its unknowns, and a row belongs to the class of
    its first one.  A class at full rank has nullspace {0}: its state is
    dropped at once and it goes into full, so residual_rows assembles none
    of its rows again.  At the end one solver._rref of every N left, keyed
    by ~u, leads each vector with its largest unknown; those leads are the
    free columns, since a column is free when it is the largest unknown of
    some nullspace vector.
    """
    of = [None] * sum(map(len, cols.values()))
    for k, us in cols.items():
        for u in us:
            of[u] = k
    live = {k: _Class(us) for k, us in cols.items()}
    for row in rows:
        k = of[row[0]]
        if k in live and live[k].add(row):
            del live[k]
            full.add(k)
    # through solver, where perfbench's tracer wraps _rref
    pivots = solver._rref({~u: x for u, x in v.items()} for c in live.values() for v in c.vectors())
    return [{~u: Fraction(x, p[lead]) for u, x in p.items()} for lead, p in sorted(pivots.items(), reverse=True)]
