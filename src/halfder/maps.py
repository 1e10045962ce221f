"""Linear maps on a degree window, and the window's coordinates for them.

A `LinMapWindow` holds explicit images on a finite set of sources;
`delta_residual` is its delta-derivation defect on a basis tuple, and
`_Window` numbers the unknowns (source, target) of one (algebra, W, S)
configuration, so that a map and an integer vector convert into each
other.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from math import lcm

from .algebras import leibniz_parts
from .basis import as_scalar
from .element import Element, combine, pack, unpack


class WindowEscapeError(ValueError):
    """A residual evaluation needed an index outside the map's source set."""


class LinMapWindow:
    """A linear map given by explicit images on a finite set of sources,
    each nonzero image stored once as a packed entry (element.pack)."""

    __slots__ = ("alg", "sources", "source_set", "packed")

    def __init__(self, alg, sources: Sequence, images: dict):
        self.alg = alg
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
    srcs = alg.window_indices(window)
    return LinMapWindow(alg, srcs, {s: Element.basis(s) for s in srcs})


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
        return combine(leibniz_parts(alg.bracket_ints, args, phi.ints, b=as_scalar(delta)))
    except WindowEscapeError as e:
        raise WindowEscapeError(f"{e}, for tuple ({', '.join(a.token for a in args)})") from None


class _Window:
    """Source/target bookkeeping for one (algebra, W, S) configuration."""

    def __init__(self, alg, window, shift):
        self.alg = alg
        if alg.is_finite:
            window = shift = None
        else:
            _check_bounds(window, shift)
        self.window, self.shift = window, shift
        self.sources = srcs = tuple(alg.window_indices(window))
        if alg.is_finite:
            targets = dict.fromkeys(srcs, srcs)
        else:
            targets = {s: alg.indices_in_degree2_range(s.degree2 - 2 * shift, s.degree2 + 2 * shift) for s in srcs}
        self.unknowns = [(s, t) for s in srcs for t in targets[s]]

    @cached_property
    def uid(self) -> dict:
        """{unknown: its id}, built for vector_of and solver.stabilize: a
        solve reads each unknown's id from its class (rows.class_split)."""
        return {st: u for u, st in enumerate(self.unknowns)}

    def vector_of(self, phi: LinMapWindow) -> dict | None:
        """Integer coordinates of phi restricted to the sources, times the
        lcm of their image denominators; None if a nonzero image
        coefficient falls outside the unknown set."""
        images = [(s, e) for s in self.sources if (e := phi.packed.get(s))]
        den = lcm(*[e[0] for _, e in images])
        vec = {}
        for s, e in images:
            for t, n in zip(e[1::2], e[2::2]):
                u = self.uid.get((s, t))
                if u is None:
                    return None
                vec[u] = n * (den // e[0])
        return vec

    def map_of(self, vec: dict) -> LinMapWindow:
        images: dict = {}
        for u, c in vec.items():
            s, t = self.unknowns[u]
            images.setdefault(s, {})[t] = c
        return LinMapWindow(self.alg, self.sources, {s: Element(d) for s, d in images.items()})


def _check_bounds(window, shift) -> None:
    """Raise ValueError unless window and shift are ints (not bools) with
    0 < shift < window, the bounds an infinite algebra's window needs."""
    if window is None or shift is None:
        raise ValueError("infinite algebras need window and shift bounds")
    for name, bound in (("window", window), ("shift", shift)):
        if type(bound) is not int:
            raise ValueError(f"{name} must be an int, got {bound!r}")
    if shift <= 0 or window <= 0:
        raise ValueError("window and shift bounds must be positive")
    if shift >= window:
        raise ValueError("shift bound must be smaller than the window")
