"""Windowed delta-derivation solver over exact rationals.

A delta-derivation phi satisfies phi[x1..xn] = delta * sum_i [x1,..,phi(xi),..,xn]
(with Koszul signs when phi moves parity).  On an infinite graded algebra the
solver truncates to a degree window |degree2| <= 2W, restricts images to a
degree shift |image - source| <= 2S, assembles every residual equation whose
inputs and bracket outputs stay inside the window, and computes the exact
nullspace.  Windowed artifacts near the boundary are removed by solving a
strictly larger window and keeping only restrictions of its solutions.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from .algebras import leibniz_parts, same_algebra
from .core import Element, ONE, ZERO, as_scalar, combine, pack, render, unpack

__all__ = [
    "LinMapWindow",
    "SolutionSpace",
    "WindowEscapeError",
    "bounded_tuples",
    "closed_form_map",
    "delta_residual",
    "is_trivial_space",
    "nullspace",
    "solve_delta_derivations",
    "solve_stabilized",
    "stabilize",
]


def __getattr__(name):
    """The closed-form maps, from halfder.candidates on first use, so a solve never compiles them."""
    if name not in ("CLOSED_FORM_FAMILIES", "closed_form_map"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import candidates
    return getattr(candidates, name)


class WindowEscapeError(ValueError):
    """A residual evaluation needed an index outside the map's source set."""


class LinMapWindow:
    """A linear map given by explicit images on a finite set of sources,
    each nonzero image stored once as a packed entry (core.pack)."""

    __slots__ = ("alg", "sources", "source_set", "packed")

    def __init__(self, alg, window, images: dict, sources: Sequence | None = None):
        self.alg = alg
        if sources is None:
            sources = alg.window_indices(window)
        self.sources = tuple(sorted(sources))
        self.source_set = src = frozenset(self.sources)
        self.packed = {}
        for s, img in images.items():
            if s not in src:
                raise ValueError(f"image given for {s.token}, which is not a source")
            if img.is_zero():
                continue
            self.packed[s] = pack(img)
            for t in img.terms:
                if not alg.valid_index(t):
                    raise ValueError(f"image index {t.token} is not valid in {alg.name}")

    def ints(self, idx) -> tuple:
        """The packed image of a basis index; WindowEscapeError off the sources."""
        out = self.packed.get(idx)
        if out is None:
            if idx not in self.source_set:
                raise WindowEscapeError(f"{idx.token} is outside the map's source window")
            return ()
        return out

    def __call__(self, idx) -> Element:
        return unpack(self.ints(idx))

    @property
    def images(self) -> dict:
        """{source: Element image} over the sources with a nonzero image."""
        return {s: unpack(e) for s, e in self.packed.items()}

    def __repr__(self):
        body = ", ".join(f"{s.token} -> {img!r}" for s, img in sorted(self.images.items()))
        return f"<map {body or '0'}>"


def identity_map(alg, window) -> LinMapWindow:
    return LinMapWindow(alg, window, {s: Element.basis(s) for s in alg.window_indices(window)})


def delta_residual(alg, phi: LinMapWindow, delta, args: tuple) -> Element:
    """phi[x1..xn] - delta * sum_i (sign) [x1,..,phi(xi),..,xn] on basis args.

    The Leibniz defect of phi with b = delta: an image term t in slot i
    takes the Koszul sign (-1)^{(|t|+|x_i|)(|x1|+..+|x_{i-1}|)}.  Raises
    WindowEscapeError when an argument or a bracket output falls outside
    phi's sources: phi.ints meets every argument and every output of the
    one bracket entry the defect reads.
    """
    if len(args) != alg.arity:
        raise ValueError(f"expected {alg.arity} arguments, got {len(args)}")
    try:
        return combine(leibniz_parts(alg, args, phi.ints, b=as_scalar(delta)))
    except WindowEscapeError as e:
        raise WindowEscapeError(f"{e}, for tuple ({', '.join(a.token for a in args)})") from None


# ---------------------------------------------------------------------------
# exact elimination engine (sparse integer rows)


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


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact nullspace basis of a dense rational matrix.

    Deterministic: each row is cleared of denominators and the integer
    rows are reduced by _rref; the basis is the canonical one with a unit
    entry in each free column, in ascending free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    sparse = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        if r := {c: x for c, v in enumerate(row) if (x := as_scalar(v))}:
            den = lcm(*[x.denominator for x in r.values()])
            sparse.append({c: x.numerator * (den // x.denominator) for c, x in r.items()})
    pivots = _rref(sparse)
    out = []
    for f in range(ncols):
        if f not in pivots:
            vec = [ZERO] * ncols
            vec[f] = ONE
            for lead, p in pivots.items():
                if x := p.get(f):
                    vec[lead] = Fraction(-x, p[lead])
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# the generic windowed system


class _Window:
    """Source/target bookkeeping for one (algebra, W, S) configuration."""

    def __init__(self, alg, window, shift):
        self.alg = alg
        if alg.is_finite:
            self.window = None
            self.shift = None
            self.sources = sorted(alg.basis_list)
            targets = dict.fromkeys(self.sources, self.sources)
        else:
            _check_bounds(window, shift)
            self.window = window
            self.shift = shift
            self.sources = alg.window_indices(window)
            targets = {
                s: alg.indices_in_degree2_range(s.degree2 - 2 * shift, s.degree2 + 2 * shift)
                for s in self.sources
            }
        self.source_set = frozenset(self.sources)
        self.unknowns = [(s, t) for s in self.sources for t in targets[s]]
        self.uid = {st: u for u, st in enumerate(self.unknowns)}

    def vector_of(self, phi: LinMapWindow, strict: bool = True) -> dict | None:
        """Integer coordinates of phi restricted to the sources, times the
        lcm of their image denominators; None (or ValueError when strict)
        if a nonzero image coefficient falls outside the unknown set."""
        images = [(s, e) for s in self.sources if (e := phi.packed.get(s))]
        den = lcm(*[e[0] for _, e in images])
        vec = {}
        for s, e in images:
            for t, n in zip(e[1::2], e[2::2]):
                u = self.uid.get((s, t))
                if u is None:
                    if strict:
                        raise ValueError(f"map sends {s.token} to {t.token}, outside shift bound {self.shift}")
                    return None
                vec[u] = n * (den // e[0])
        return vec

    def map_of(self, vec: dict) -> LinMapWindow:
        images: dict = {}
        for u, c in vec.items():
            s, t = self.unknowns[u]
            images.setdefault(s, {})[t] = c
        return LinMapWindow(self.alg, self.window, {s: Element(d) for s, d in images.items()}, sources=self.sources)


def _check_bounds(window, shift) -> None:
    """Raise ValueError unless 0 < shift < window, the bounds an infinite
    algebra's window needs."""
    if window is None or shift is None:
        raise ValueError("infinite algebras need window and shift bounds")
    if shift <= 0 or window <= 0:
        raise ValueError("window and shift bounds must be positive")
    if shift >= window:
        raise ValueError("shift bound must be smaller than the window")


def bounded_tuples(alg, sources: Sequence):
    """Yield the sorted argument tuples over the sorted sources whose
    bracket outputs stay inside them."""
    inside = frozenset(sources)
    for args in combinations_with_replacement(sources, alg.arity):
        if inside.issuperset(alg.bracket_ints(args)[1::2]):
            yield args


def _system_rows(win: _Window, delta: Fraction) -> list[dict]:
    """The canonical nullspace basis of the residual rows, ascending by
    free column, from rows.select_rows over rows.residual_rows.  The import
    runs on the first solve, so processes that never solve (the scans)
    never compile that module."""
    from .rows import class_split, residual_rows, select_rows

    targets, cols = class_split(win)
    full: set = set()
    return select_rows(residual_rows(win, delta, full, targets), cols, full)


def _row_dict(row: tuple) -> dict:
    """{unknown: coefficient} of a flat integer row."""
    k = len(row) // 2
    return dict(zip(row[:k], row[k:]))


class SolutionSpace:
    """Exact span of delta-derivation maps found on one window (window and
    shift are None for a finite algebra)."""

    def __init__(self, alg, delta, window, shift, basis, stable):
        self.alg, self.delta, self.window, self.shift = alg, delta, window, shift
        self.basis, self.stable = basis, stable

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _window(self) -> _Window:
        return _Window(self.alg, self.window, self.shift)

    @cached_property
    def _pivots(self) -> dict:
        win = self._window
        return _rref([win.vector_of(b) for b in self.basis])

    def contains(self, phi: LinMapWindow) -> bool:
        """Exact span membership of a map over the same window/shift set-up."""
        if not same_algebra(self.alg, phi.alg):
            raise ValueError("membership needs a map over the same algebra")
        win = self._window
        if phi.source_set != win.source_set:
            raise ValueError("membership needs a map over the same source window")
        cand = win.vector_of(phi, strict=False)
        if cand is None:
            # some image coefficient is outside the space's shift bound
            return False
        # each cut clears one lead and, the pivots being reduced, no other
        for lead, p in self._pivots.items():
            if d := cand.get(lead):
                _cut(cand, d, p, p[lead])
        return not cand


def solve_delta_derivations(alg, delta, window=None, shift=None) -> SolutionSpace:
    """Exact nullspace of the windowed delta-derivation system.

    Finite algebras are solved densely (window and shift are ignored) and
    come back already stable; infinite ones carry boundary artifacts and
    should be passed through stabilize().
    """
    d = as_scalar(delta)
    win = _Window(alg, window, shift)
    basis = tuple(win.map_of(v) for v in sorted(_system_rows(win, d), key=min))
    return SolutionSpace(alg=alg, delta=d, window=win.window, shift=win.shift, basis=basis, stable=alg.is_finite)


def stabilize(space_small: SolutionSpace, space_large: SolutionSpace) -> SolutionSpace:
    """Restrict the large-window space to the small space's window.

    The small space's basis is not read: each equation of its window is one
    of the large window, on the same unknowns, so the restrictions solve it.
    """
    if space_small.alg.is_finite:
        raise ValueError("finite-dimensional spaces are already stable")
    if not same_algebra(space_small.alg, space_large.alg):
        raise ValueError("stabilize needs solution spaces for the same algebra")
    if space_small.delta != space_large.delta or space_small.shift != space_large.shift:
        raise ValueError("stabilize needs matching delta and shift bound")
    gap = space_large.window - space_small.window
    if gap < max(space_small.shift, 1):
        raise ValueError(
            f"window gap {gap} is too small; it must be at least max(shift, 1) = "
            f"{max(space_small.shift, 1)}"
        )
    win = space_small._window
    pivots = _rref(v for b in space_large.basis if (v := win.vector_of(b)))
    basis = tuple(win.map_of({u: Fraction(x, p[lead]) for u, x in p.items()}) for lead, p in sorted(pivots.items()))
    return SolutionSpace(
        space_small.alg, space_small.delta, space_small.window, space_small.shift, basis=basis, stable=True
    )


def solve_stabilized(alg, delta, window=None, shift=None) -> SolutionSpace:
    """Solve once at window W + S + 2 and restrict the solutions to W."""
    if alg.is_finite:
        return solve_delta_derivations(alg, delta)
    # the bounds only: stabilize builds the small window once, after the
    # large solve, so the window does not add to the solve's peak memory
    _check_bounds(window, shift)
    small = SolutionSpace(alg, as_scalar(delta), window, shift, basis=(), stable=False)
    return stabilize(small, solve_delta_derivations(alg, small.delta, window + shift + 2, shift))


def is_trivial_space(space: SolutionSpace) -> bool:
    """True iff the stabilized space is exactly the scalar multiples of id."""
    if not space.stable:
        raise ValueError("is_trivial_space needs a stabilized space")
    if space.dimension == 0:
        warnings.warn(
            "zero-dimensional derivation space: even the identity is missing",
            stacklevel=2,
        )
        return False
    if space.dimension != 1:
        return False
    phi = space.basis[0]
    lam = phi(phi.sources[0]).coeff(phi.sources[0]) if phi.sources else ZERO
    return lam != 0 and all(phi(s) == Element.single(s, lam) for s in phi.sources)


# ---------------------------------------------------------------------------
# JSON view


def space_to_jsonable(space: SolutionSpace, trivial: bool | None = None) -> dict:
    basis = [[{"source": s.token, "image": render(img)} for s, img in sorted(b.images.items())] for b in space.basis]
    return {
        "algebra": space.alg.name,
        "params": {k: str(v) for k, v in sorted(space.alg.params.items())},
        "delta": str(space.delta),
        "window": space.window,
        "shift": space.shift,
        "dimension": space.dimension,
        "stable": space.stable,
        "trivial_only": trivial,
        "basis": basis,
    }
