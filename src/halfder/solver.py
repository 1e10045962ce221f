"""Windowed delta-derivation solver over exact rationals.

A delta-derivation phi satisfies phi[x1..xn] = delta * sum_i [x1,..,phi(xi),..,xn]
(with Koszul signs when phi moves parity).  On an infinite graded algebra the
solver truncates to a degree window |degree2| <= 2W, restricts images to a
degree shift |image - source| <= 2S, assembles every residual equation whose
inputs and bracket outputs stay inside the window, and computes the exact
nullspace.  Windowed artifacts near the boundary are removed by solving a
strictly larger window and keeping only restrictions of its solutions.

The window maps live in `halfder.maps` and the exact elimination in
`halfder.elimination`.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebras import same_algebra
from .basis import ZERO, as_scalar
from .core import render
from .element import Element
from .elimination import _cut, _rref
from .maps import LinMapWindow, _check_bounds, _Window


def __getattr__(name):
    """candidates.closed_form_map on first use, so a solve never compiles
    halfder.candidates; perfbench/ask.py reads it as solver.closed_form_map."""
    if name != "closed_form_map":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .candidates import closed_form_map
    return closed_form_map


def _bounded_entries(alg, sources: Sequence, bracket):
    """Yield (args, packed bracket of args) over the sorted argument tuples
    of the sorted sources whose bracket outputs stay inside them, reading
    each entry once through bracket."""
    inside = frozenset(sources)
    for args in combinations_with_replacement(sources, alg.arity):
        b = bracket(args)
        if inside.issuperset(b[1::2]):
            yield args, b


def bounded_tuples(alg, sources: Sequence):
    """The argument tuples of _bounded_entries, read through the algebra's memo."""
    return (args for args, _ in _bounded_entries(alg, sources, alg.bracket_ints))


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
    out = SolutionSpace(space_small.alg, space_small.delta, space_small.window, space_small.shift, basis, True)
    out._window = win  # the same window, so contains() does not build it again
    return out


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
    # the identity is a delta-derivation exactly when delta * arity = 1
    if space.dimension == 0 and space.delta * space.alg.arity == 1:
        warnings.warn("zero-dimensional derivation space: even the identity is missing", stacklevel=2)
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
