"""The windowed delta-derivation system, streamed one grade class at a time.

The unknown (s, t), the coefficient of t in phi(s), has the class
(grade2(t) - grade2(s), parity of t xor parity of s), and every residual
row of a graded algebra lies inside one class; a finite algebra has one
class.  solver._system_rows imports this module on the first solve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from . import solver
from .solver import _nullspace_vectors, _row_dict, _Window, bounded_tuples

# rows independent mod this prime are independent over Q
_P = (1 << 61) - 1


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
    read from alg.bracket_fn into a table local to the call, as ints over a
    common denominator.  Raises ValueError when a row leaves its class,
    that is when a bracket met is not homogeneous for grade2 and parity.
    """
    alg = win.alg
    graded = not alg.is_finite
    targets = targets or class_split(win)[0]
    classes = sorted({k for by_class in targets.values() for k in by_class})
    table: dict = {}

    def bracket(args):
        """(den, o_1, n_1, o_2, n_2, ...): the bracket is sum n_i/den o_i."""
        if (out := table.get(args)) is None:
            terms = alg.bracket_fn(args).terms
            den = lcm(*(c.denominator for c in terms.values()))
            out = table[args] = (den, *chain(*((o, c.numerator * den // c.denominator) for o, c in terms.items())))
        return out

    dn, dd = delta.numerator, delta.denominator
    for args in bounded_tuples(alg, win.sources, lambda args: bracket(args)[1::2]):
        b = bracket(args)
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
                    inner.append((win.uid[(xi, t)], n, bracket(args[:i] + (t,) + args[i + 1 :])))
                prefix += xi.parity
            scale = dd * lcm(b[0], *(bi[0] for _, _, bi in inner))
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


class _Class:
    """Row selection for one class: its kept rows span every row fed to it.

    A row that raises the rank mod _P is kept (rows independent mod p are
    independent over Q); one that does not is held, as over Q it may still
    be independent.  Before a row would make the class hold more rows than
    it keeps, or store more rows than it has columns, the class is
    certified: one exact elimination of the kept rows gives an integer
    basis of their nullspace N.  From then on a row, the held ones first,
    is dropped when N annihilates it (it is in the Q-span of the kept
    rows, even if it vanished mod an unlucky prime) and kept otherwise,
    with N cut to the vectors that annihilate it too.  N only shrinks, so
    the final N annihilates every dropped row.
    """

    __slots__ = ("cols", "kept", "held", "pivots", "null")

    def __init__(self, cols: list):
        self.cols, self.kept, self.held = cols, [], []
        self.pivots: dict = {}  # mod _P, until certified
        self.null = None  # integer basis of N, once certified

    def add(self, row: tuple) -> bool:
        """Feed one row of the class; True once the class has full rank."""
        if self.null is None:
            room = len(self.kept) + len(self.held) < len(self.cols)
            if room and _raises_rank(row, self.pivots):
                self.kept.append(row)
                return len(self.kept) == len(self.cols)
            if room and len(self.held) < len(self.kept):
                self.held.append(row)
                return False
            if self.certify():
                return True
        r = _row_dict(row)
        dots = [sum(c * v.get(u, 0) for u, c in r.items()) for v in self.null]
        if any(dots):
            j = next(j for j, d in enumerate(dots) if d)
            w, dw = self.null.pop(j), dots.pop(j)
            self.null = [_primitive({u: dw * v.get(u, 0) - d * w.get(u, 0) for u in v.keys() | w.keys()}) if d else v
                         for v, d in zip(self.null, dots)]
            self.kept.append(row)
        return not self.null

    def certify(self) -> bool:
        """Switch to the exact test against N; True if the class has full rank."""
        pivots = solver._rref(map(_row_dict, self.kept))
        self.null = [_primitive(v) for v in _nullspace_vectors(pivots, self.cols)]
        held, self.held, self.pivots = self.held, [], None
        return any(self.add(row) for row in held) or not self.null

    def nullspace_pivots(self):
        """The exact RREF of the kept rows, once the held ones are certified;
        None if the class turns out to have full rank."""
        return None if self.held and self.certify() else solver._rref(map(_row_dict, self.kept))


def _primitive(vec: dict) -> dict:
    """The nonzero entries of a rational vector, scaled to coprime integers."""
    den = lcm(*(x.denominator for x in vec.values()))
    vec = {u: x.numerator * (den // x.denominator) for u, x in vec.items() if x}
    g = gcd(*vec.values())
    return {u: x // g for u, x in vec.items()}


def select_rows(rows: Iterable[tuple], cols: dict, full: set) -> list[tuple]:
    """(cols, pivots) for each class of the stream below full rank: its
    unknowns, ascending, and the exact RREF of its rows from solver._rref.

    cols maps each class to its unknowns, and a row belongs to the class of
    its first one.  A class at full rank has nullspace {0}: its state is
    dropped at once and it goes into full, so residual_rows assembles none
    of its rows again.
    """
    of: list = [None] * sum(map(len, cols.values()))
    for k, us in cols.items():
        for u in us:
            of[u] = k
    live = {k: _Class(us) for k, us in cols.items()}
    for row in rows:
        k = of[row[0]]
        if k in live and live[k].add(row):
            del live[k]
            full.add(k)
    return [(c.cols, pivots) for c in live.values() if (pivots := c.nullspace_pivots()) is not None]
