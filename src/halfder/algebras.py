"""The algebra abstraction: AlgebraSpec and the operations on it.

Each AlgebraSpec bundles lazy structure constants (bracket on basis
indices), an optional commutative associative product for the ambient
function algebras, and enough index bookkeeping to enumerate degree
windows.  AlgebraSpec, multilinear and `_skew`, the skew-symmetry wrapper
of the builders' bracket rules, live in `halfder.spec`.  The built-in
algebras live in `halfder.catalogue`; `make_algebra` builds them by name.
Algebras built from data live in `halfder.tables`.  The residual forms
here build no Element: the residuals that sum them, `identity_residual`
and `delta_residual`, live in `halfder.maps`.

The benchmark's import loads this module, so by the package's import rule
(halfder/__init__) it imports only from `halfder.basis` and serves the
names of the other modules on first use.
"""

from __future__ import annotations

from collections.abc import Callable

from . import _first_use
from .basis import ONE, as_int, as_scalar

# every other halfder name this module reads or serves, with the module that
# defines it.  _builder binds the names it reads; direct_sum binds on its
# first read as algebras.direct_sum, so a solve never compiles halfder.tables
_SERVED = {"BUILDERS": "catalogue", "AlgebraSpec": "spec", "direct_sum": "tables"}
__getattr__, _bind = _first_use(globals(), _SERVED, "tables")


# ---------------------------------------------------------------------------
# registry


def _builder(name: str) -> tuple:
    """(builder, parameter names) of a built-in algebra."""
    _bind()
    if name not in BUILDERS:
        raise ValueError(f"unknown algebra {name!r}; known: {', '.join(BUILDERS)}")
    return BUILDERS[name]


def algebra_params(name: str) -> tuple:
    """Names of the parameters an algebra requires, in declaration order."""
    return _builder(name)[1]


def _sector(value: str) -> str:
    if value not in ("ramond", "neveu_schwarz"):
        raise ValueError(f"not 'ramond' or 'neveu_schwarz': {value!r}")
    return value


# how make_algebra reads each parameter
_READERS = {"a": as_scalar, "b": as_scalar, "n": as_int, "sector": _sector}


def make_algebra(name: str, params: dict | None = None, **kw) -> AlgebraSpec:
    """Instantiate one of the built-in algebras by name.

    wab needs rational a, b; svir and n2sca need sector
    ("ramond" or "neveu_schwarz"); nary_simple needs n >= 3.
    """
    builder, wanted = _builder(name)
    given = dict(params or {})
    given.update(kw)
    missing = [k for k in wanted if k not in given]
    extra = [k for k in given if k not in wanted]
    if missing:
        raise ValueError(f"algebra {name} needs parameter(s): {', '.join(missing)}")
    if extra:
        raise ValueError(f"algebra {name} does not take parameter(s): {', '.join(extra)}")
    clean = {}
    for k in wanted:
        try:
            clean[k] = _READERS[k](given[k])
        except ValueError as e:
            raise ValueError(f"parameter {k}: {e}") from None
    return builder(clean)


def same_algebra(a: AlgebraSpec, b: AlgebraSpec) -> bool:
    return (
        a.name == b.name
        and a.arity == b.arity
        and a.params == b.params
        and a.basis_list == b.basis_list
    )


# ---------------------------------------------------------------------------
# operations


def leibniz_slots(args: tuple):
    """Yield (x_i, args[:i], args[i+1:], p) for each slot i of a basis
    tuple: the one statement of the Koszul sign.

    A term t of f(x_i), put in slot i, takes the sign
    (-1)^{(|t|+|x_i|)(|x_1|+..+|x_{i-1}|)} in the sum over slots, and so
    counts +1 in a residual a.f([x_1..x_n]) - b.sum_i (sign) [..] exactly
    when t.parity == p: p is 1 - |x_i| after an odd prefix, and -1, which
    no parity equals, after an even one.
    """
    prefix = 0
    for i, xi in enumerate(args):
        yield xi, args[:i], args[i + 1 :], 1 - xi.parity if prefix % 2 else -1
        prefix += xi.parity


def leibniz_parts(bracket: Callable, args: tuple, image: Callable, a=ONE, b=ONE) -> list:
    """a.f([x_1..x_n]) - b.sum_i (sign) [x_1,..,f(x_i),..,x_n] on basis args,
    as the element.combine parts (num, den, packed entry) that sum to it.

    bracket(args) and image(x) give packed entries (element.pack) of the
    bracket on a basis tuple and of f(x) on a basis index x, and the slots
    and their signs are leibniz_slots'.  With alg.bracket_ints as the
    bracket, f = ad_x gives the defining identity,
    f = phi with b = delta the delta-derivation equation, and f = z*- with
    a = n the transposed Poisson law; with the opposite product as the
    bracket, on (y, x), f = [-, z] gives the classical Poisson rule.
    """
    top = bracket(args)
    parts = [(a.numerator * n, a.denominator * top[0], image(o)) for o, n in zip(top[1::2], top[2::2])]
    for xi, before, after, p in leibniz_slots(args):
        f = image(xi)
        for t, m in zip(f[1::2], f[2::2]):
            m *= b.numerator
            parts.append((m if t.parity == p else -m, b.denominator * f[0], bracket(before + (t,) + after)))
    return parts


def first_defect(cases, residual: Callable) -> tuple:
    """((first case with a nonzero residual(*case), that residual) or None,
    cases tried): the one window scan.  cases is never advanced past the hit."""
    tried = 0
    for tried, case in enumerate(cases, 1):
        if res := residual(*case):
            return (case, res), tried
    return None, tried
