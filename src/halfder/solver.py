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
from fractions import Fraction
from itertools import combinations_with_replacement

from . import _first_use
from .algebras import same_algebra
from .basis import as_scalar

# every halfder name this module reads from a module that importing it does
# not load, with the module that defines it: a solve binds them all on its
# first call, and closed_form_map, which perfbench/ask.py reads as
# solver.closed_form_map, binds on that first read, so a solve never
# compiles halfder.candidates
_SERVED = {
    "render": "core", "_cut": "elimination", "_rref": "elimination",
    "_Window": "maps", "_check_bounds": "maps", "identity_map": "maps",
    "select_rows": "rows", "closed_form_map": "candidates",
}
__getattr__, _bind = _first_use(globals(), _SERVED, "candidates")


def bounded_tuples(alg, sources: Sequence, bracket):
    """Yield the sorted argument tuples of the sorted sources whose bracket
    outputs stay inside them, reading each packed entry once through
    bracket: the algebra's memo (alg.bracket_ints) or a solve's own table."""
    inside = frozenset(sources)
    for args in combinations_with_replacement(sources, alg.arity):
        if inside.issuperset(bracket(args)[1::2]):
            yield args


def _system_rows(win: _Window, delta: Fraction) -> dict:
    """The reduced integer pivots of the window's solutions, from
    rows.select_rows, which processes that never solve (the scans) never
    compile.  It binds the table itself: a caller may hold a window and
    call it before any solve."""
    _bind()
    return select_rows(win, delta)


class SolutionSpace:
    """Exact span of delta-derivation maps found on one window (window and
    shift are None for a finite algebra): the window and the reduced
    integer pivots {lead: row} of its solutions.  The basis is each pivot
    divided by its lead, in order of (least unknown, lead)."""

    def __init__(self, delta, win: _Window, pivots: dict, stable):
        _bind()  # for the functions that read a space
        self.alg, self.delta, self.window, self.shift = win.alg, delta, win.window, win.shift
        self._window, self._pivots, self.stable = win, pivots, stable
        self.basis = tuple(
            win.map_of({u: Fraction(x, p[lead]) for u, x in p.items()})
            for lead, p in sorted(pivots.items(), key=lambda lp: (min(lp[1]), lp[0]))
        )

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, phi: LinMapWindow) -> bool:
        """Exact span membership of a map over the same window/shift set-up."""
        if not same_algebra(self.alg, phi.alg):
            raise ValueError("membership needs a map over the same algebra")
        win = self._window
        if phi.sources != win.sources:
            raise ValueError("membership needs a map over the same source window")
        cand = win.vector_of(phi)
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

    A finite algebra is solved on its whole basis, by parity class (window
    and shift are ignored), and comes back already stable; infinite ones
    carry boundary artifacts and should be passed through stabilize().
    """
    _bind()
    d = as_scalar(delta)
    win = _Window(alg, window, shift)
    return SolutionSpace(d, win, _system_rows(win, d), alg.is_finite)


def stabilize(space: SolutionSpace, window: int) -> SolutionSpace:
    """Restrict the solutions of space to a window smaller by at least
    max(shift, 1): each equation of that window is one of space's window,
    on the same unknowns, so the restrictions solve it."""
    if space.alg.is_finite:
        raise ValueError("finite-dimensional spaces are already stable")
    win = _Window(space.alg, window, space.shift)  # checks the bounds first
    gap = space.window - window
    if gap < max(space.shift, 1):
        raise ValueError(
            f"window gap {gap} is too small; it must be at least max(shift, 1) = {max(space.shift, 1)}"
        )
    # a source of the small window has the same targets in both windows
    uid, unknowns = win.uid, space._window.unknowns
    rows = ({v: x for u, x in p.items() if (v := uid.get(unknowns[u])) is not None} for p in space._pivots.values())
    return SolutionSpace(space.delta, win, _rref(rows), True)


def solve_stabilized(alg, delta, window=None, shift=None) -> SolutionSpace:
    """Solve once at window W + S + 2 and restrict the solutions to W."""
    if alg.is_finite:
        return solve_delta_derivations(alg, delta)
    _bind()
    # the bounds only: stabilize builds the small window once, after the
    # large solve, so the window does not add to the solve's peak memory
    _check_bounds(window, shift)
    return stabilize(solve_delta_derivations(alg, delta, window + shift + 2, shift), window)


def is_trivial_space(space: SolutionSpace) -> bool:
    """True iff the stabilized space is exactly the scalar multiples of id."""
    if not space.stable:
        raise ValueError("is_trivial_space needs a stabilized space")
    # the identity is a delta-derivation exactly when delta * arity = 1
    if space.dimension == 0 and space.delta * space.alg.arity == 1:
        warnings.warn("zero-dimensional derivation space: even the identity is missing", stacklevel=2)
    return space.dimension == 1 and space.contains(identity_map(space.alg, space.window))


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
