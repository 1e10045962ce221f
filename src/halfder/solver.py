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

from .algebras import leibniz_defect, same_algebra
from .core import Element, ONE, ZERO, as_scalar, axpy, pack, render, unpack

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
        return leibniz_defect(alg, args, phi.ints, b=as_scalar(delta))
    except WindowEscapeError as e:
        raise WindowEscapeError(f"{e}, for tuple ({', '.join(a.token for a in args)})") from None


# ---------------------------------------------------------------------------
# exact elimination engine (sparse rows over Q)


def _reduce(row: dict, pivots: dict) -> dict:
    """Eliminate row in place until its lead column has no pivot; returns it.

    The row comes back empty exactly when it lies in the span of the pivots.
    """
    while row:
        lead = min(row)
        p = pivots.get(lead)
        if p is None:
            break
        axpy(row, row.pop(lead), p)
    return row


def _rref(rows: Iterable[dict]) -> dict:
    """Reduced row echelon form, exact over Q, as {lead: {col: c}}.

    Each pivot row is stored solved for its lead, x_lead = sum c * x_col:
    the unit lead entry is implicit, and a row with coefficient f at the
    lead is eliminated by axpy(row, f, pivot), with no negation per step.
    """
    pivots: dict = {}
    for row in rows:
        r = _reduce(dict(row), pivots)
        if r:
            lead = min(r)
            inv = -ONE / r.pop(lead)
            pivots[lead] = {c: v * inv for c, v in r.items()}
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other in pivots.values():
            f = other.pop(lead, None)
            if f:
                axpy(other, f, prow)
    return pivots


def _nullspace_vectors(pivots: dict, cols: Sequence) -> list[dict]:
    """Canonical nullspace basis: one vector per free column, ascending."""
    out = []
    for f in cols:
        if f in pivots:
            continue
        vec = {f: ONE}
        for lead, row in pivots.items():
            c = row.get(f)
            if c:
                vec[lead] = c
        out.append(vec)
    return out


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact nullspace basis of a dense rational matrix.

    Deterministic: fraction-preserving elimination with pivots taken on the
    leftmost nonzero column, rows in the given order; the basis is the
    canonical one with a unit entry in each free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    sparse = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        r = {c: as_scalar(v) for c, v in enumerate(row) if v}
        if r:
            sparse.append(r)
    pivots = _rref(sparse)
    vecs = _nullspace_vectors(pivots, range(ncols))
    return [[v.get(c, ZERO) for c in range(ncols)] for v in vecs]


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
            targets = {s: list(self.sources) for s in self.sources}
        else:
            if window is None or shift is None:
                raise ValueError("infinite algebras need window and shift bounds")
            if shift <= 0 or window <= 0:
                raise ValueError("window and shift bounds must be positive")
            if shift >= window:
                raise ValueError("shift bound must be smaller than the window")
            self.window = window
            self.shift = shift
            self.sources = alg.window_indices(window)
            targets = {
                s: alg.indices_in_degree2_range(s.degree2 - 2 * shift, s.degree2 + 2 * shift)
                for s in self.sources
            }
        self.unknowns = []
        self.uid = {}
        for s in self.sources:
            for t in targets[s]:
                self.uid[(s, t)] = len(self.unknowns)
                self.unknowns.append((s, t))

    def vector_of(self, phi: LinMapWindow, strict: bool = True) -> dict | None:
        """Coordinates of a map; None (or ValueError when strict) if a
        nonzero image coefficient falls outside the unknown set."""
        vec = {}
        for s, e in phi.packed.items():
            for t, n in zip(e[1::2], e[2::2]):
                u = self.uid.get((s, t))
                if u is None:
                    if strict:
                        raise ValueError(f"map sends {s.token} to {t.token}, outside shift bound {self.shift}")
                    return None
                vec[u] = Fraction(n, e[0])
        return vec

    def map_of(self, vec: dict) -> LinMapWindow:
        images: dict = {}
        for u, c in vec.items():
            s, t = self.unknowns[u]
            images.setdefault(s, {})[t] = c
        return LinMapWindow(self.alg, self.window, {s: Element(d) for s, d in images.items()}, sources=self.sources)


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
        if phi.source_set != set(win.sources):
            raise ValueError("membership needs a map over the same source window")
        cand = win.vector_of(phi, strict=False)
        if cand is None:
            # some image coefficient is outside the space's shift bound
            return False
        return not _reduce(cand, self._pivots)


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
    rows = []
    for b in space_large.basis:
        vec = {}
        for s in win.sources:
            for t, c in b(s).terms.items():
                u = win.uid.get((s, t))
                if u is None:
                    raise ValueError("restriction leaves the small shift window")
                vec[u] = c
        if vec:
            rows.append(vec)
    pivots = _rref(rows)
    vectors = [{lead: ONE, **{c: -v for c, v in pivots[lead].items()}} for lead in sorted(pivots)]
    basis = tuple(win.map_of(v) for v in vectors)
    return SolutionSpace(
        space_small.alg, space_small.delta, space_small.window, space_small.shift, basis=basis, stable=True
    )


def solve_stabilized(alg, delta, window=None, shift=None) -> SolutionSpace:
    """Solve once at window W + S + 2 and restrict the solutions to W."""
    if alg.is_finite:
        return solve_delta_derivations(alg, delta)
    _Window(alg, window, shift)  # checks the W/S bounds before the solve
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
