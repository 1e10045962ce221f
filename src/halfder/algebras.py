"""The algebra abstraction: AlgebraSpec and the operations on it.

Each AlgebraSpec bundles lazy structure constants (bracket on basis
indices), an optional commutative associative product for the ambient
function algebras, and enough index bookkeeping to enumerate degree
windows.  AlgebraSpec and multilinear live in `halfder.spec`.  The
built-in algebras live in `halfder.catalogue`; `make_algebra` builds them
by name.  Algebras built from data live in `halfder.tables`.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations

from .basis import ONE, as_int, as_scalar
from .element import Element, combine
from .spec import AlgebraSpec

ALGEBRA_NAMES = (
    "witt",
    "laurent",
    "wab",
    "virasoro",
    "svir",
    "n2sca",
    "thin",
    "solvable",
    "extended_laurent",
    "sl2",
    "heisenberg",
    "schrodinger",
    "nary_simple",
)


def __getattr__(name):
    """tables.direct_sum on first use, so a solve never compiles halfder.tables;
    perfbench/ask.py reads it as algebras.direct_sum."""
    if name != "direct_sum":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .tables import direct_sum
    return direct_sum


def _el(pairs) -> Element:
    return Element({i: as_scalar(c) for i, c in pairs})


def _skew(rule: Callable) -> Callable:
    """The bracket rule on every ordering from rule, which is read only on
    ascending tuples (BasisIndex order).  Sorting takes one swap of
    neighbours per out-of-order pair, and each swap scales the bracket by
    -1, or by +1 when both are odd."""

    def skew(idxs):
        out = rule(tuple(sorted(idxs)))
        swaps = sum(y < x and not (x.parity and y.parity) for x, y in combinations(idxs, 2))
        return out.scale(-1) if swaps % 2 else out

    return skew


# ---------------------------------------------------------------------------
# registry


def _builder(name: str) -> tuple:
    """(builder, parameter names) of a built-in algebra."""
    # imported here: the catalogue imports _skew from this module
    from .catalogue import BUILDERS

    if name not in BUILDERS:
        raise ValueError(f"unknown algebra {name!r}; known: {', '.join(ALGEBRA_NAMES)}")
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


def leibniz_parts(bracket: Callable, args: tuple, image: Callable, a=ONE, b=ONE) -> list:
    """a.f([x_1..x_n]) - b.sum_i (sign) [x_1,..,f(x_i),..,x_n] on basis args,
    as the element.combine parts (num, den, packed entry) that sum to it.

    bracket(args) and image(x) give packed entries (element.pack) of the
    bracket on a basis tuple and of f(x) on a basis index x; a term t of
    f(x_i) takes the sign (-1)^{(|t|+|x_i|)(|x_1|+..+|x_{i-1}|)}.  With
    alg.bracket_ints as the bracket, f = ad_x gives the defining identity,
    f = phi with b = delta the delta-derivation equation, and f = z*- with
    a = n the transposed Poisson law; with the opposite product as the
    bracket, on (y, x), f = [-, z] gives the classical Poisson rule.
    """
    top = bracket(args)
    parts = [(a.numerator * n, a.denominator * top[0], image(o)) for o, n in zip(top[1::2], top[2::2])]
    prefix = 0
    for i, xi in enumerate(args):
        f = image(xi)
        for t, m in zip(f[1::2], f[2::2]):
            m *= b.numerator
            entry = bracket(args[:i] + (t,) + args[i + 1 :])
            parts.append((m if (t.parity ^ xi.parity) and prefix % 2 else -m, b.denominator * f[0], entry))
        prefix += xi.parity
    return parts


def first_defect(cases, residual: Callable) -> tuple:
    """((first case with a nonzero residual(*case), that residual) or None,
    cases tried): the one window scan.  cases is never advanced past the hit."""
    tried = 0
    for tried, case in enumerate(cases, 1):
        if res := residual(*case):
            return (case, res), tried
    return None, tried


def identity_residual(alg: AlgebraSpec, args: tuple) -> Element:
    """Defining-identity residual on a basis tuple; zero iff it holds there.

    Takes 2n-1 indices (x_1..x_{n-1}, y_1..y_n) and evaluates the adjoint
    derivation form [x,[y]] - sum_i [y_1,..,[x,y_i],..,y_n], the Leibniz
    defect of f = [x_1..x_{n-1}, -].  For n = 2 this is the (super-)Jacobi
    identity.
    """
    n = alg.arity
    if len(args) != 2 * n - 1:
        raise ValueError(f"identity residual needs {2 * n - 1} indices, got {len(args)}")
    xs, ys = args[: n - 1], args[n - 1 :]
    return combine(leibniz_parts(alg.bracket_ints, ys, lambda y: alg.bracket_ints(xs + (y,))))
