"""Commutative products paired with a bracket, and the checks tying them.

A product here is either a mutation x*y = x.w.y inside a commutative
associative ambient algebra, or a finite table rule on the basis.  The
module evaluates products bilinearly and measures the residuals of the
compatibility law n.z*[x1..xn] = sum_i [x1,..,z*xi,..,xn], the classical
Poisson Leibniz rule, associativity, and commutativity, all exactly.
The products themselves live in `halfder.products`; this module holds
the residuals and the window checks.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement, product as iproduct

from .algebras import leibniz_parts
from .element import Element, combine
from .maps import LinMapWindow
from .products import ProductSpec, _as_element, mutation_product
from .spec import AlgebraSpec, multilinear


def tpa_residual(alg: AlgebraSpec, p: ProductSpec, z, args: tuple) -> Element:
    """n.z*[x1..xn] - sum_i (sign) [x1,..,z*xi,..,xn] on the given inputs.

    The Leibniz defect of f = z*- with a = n, extended multilinearly in z
    and the arguments.  A term t of z*xi moved into slot i takes the sign
    (-1)^{(|t|+|xi|)(|x1|+..+|x_{i-1}|)}.  The law is stated for parity
    preserving products, for which this is (-1)^{|zt|(|x1|+..+|x_{i-1}|)}
    per basis term zt of z.  Zero iff the compatibility law holds there.
    """
    if len(args) != alg.arity:
        raise ValueError(f"expected {alg.arity} bracket arguments, got {len(args)}")
    return multilinear(
        [*map(_as_element, (z, *args))],
        lambda zx: leibniz_parts(alg, zx[1:], partial(p.product_ints, zx[0]), alg.arity),
    )


def poisson_residual(alg: AlgebraSpec, p: ProductSpec, x, y, z) -> Element:
    """[x*y, z] - x*[y,z] - y*[x,z], the classical Leibniz defect."""
    if alg.arity != 2:
        raise ValueError("the Poisson Leibniz rule is a binary-bracket check")

    def kernel(xyz):
        x, y, z = xyz
        xy = p.product_ints(x, y)
        parts = [(n, xy[0], alg.bracket_ints((t, z))) for t, n in zip(xy[1::2], xy[2::2])]
        for u, v in ((x, y), (y, x)):  # u*[v,z]
            vz = alg.bracket_ints((v, z))
            parts += [(-n, vz[0], p.product_ints(u, t)) for t, n in zip(vz[1::2], vz[2::2])]
        return parts

    return multilinear([*map(_as_element, (x, y, z))], kernel)


def _scan_order(alg: AlgebraSpec, window: int) -> list:
    return sorted(alg.window_indices(window), key=lambda i: (i.degree2, int(i.family)))


def find_poisson_witness(alg: AlgebraSpec, p: ProductSpec, window: int) -> tuple | None:
    """First window triple (x, y, z) with a nonzero Leibniz defect, or None.

    Triples are ordered by degree triple first, family triple second, so
    reports are deterministic.  They are generated in that order, degree
    triple by degree triple, rather than sorted up front.
    """
    if alg.arity != 2:
        raise ValueError("the Poisson Leibniz rule is a binary-bracket check")
    levels: dict = {}
    for s in _scan_order(alg, window):
        levels.setdefault(s.degree2, []).append(s)
    for xs, ys, zs in iproduct(levels.values(), repeat=3):
        for x, y, z in iproduct(xs, ys, zs):
            if not poisson_residual(alg, p, x, y, z).is_zero():
                return (x, y, z)
    return None


def check_tpa_window(alg: AlgebraSpec, p: ProductSpec, window: int) -> tuple[tuple | None, int]:
    """Scan z against sorted argument tuples; (first failing (z, args), count).

    Swapping two bracket arguments rescales the residual by a sign, so the
    sorted tuples decide the identity for all ordered ones.
    """
    srcs = _scan_order(alg, window)
    checked = 0
    for z in srcs:
        image = partial(p.product_ints, z)
        for args in combinations_with_replacement(srcs, alg.arity):
            checked += 1
            if combine(leibniz_parts(alg, args, image, alg.arity)):
                return (z, args), checked
    return None, checked


def right_mult_map(p: ProductSpec, z, alg: AlgebraSpec, window: int) -> LinMapWindow:
    """The map x -> x*z on the window sources."""
    zs = [(c.numerator, c.denominator, t) for t, c in _as_element(z).terms.items()]
    srcs = alg.window_indices(window)
    images = {s: combine([(n, d, p.product_ints(s, t)) for n, d, t in zs]) for s in srcs}
    return LinMapWindow(alg, window, images, sources=srcs)


def mutation_closure_check(alg: AlgebraSpec, p: ProductSpec, q_elem, window: int) -> bool:
    """Whether mutating a working product by q gives a working product again.

    The new product x o y = x*q*y is the ambient mutation by w.q.w; the
    check requires p itself to pass on the window first.
    """
    if p.kind != "mutation":
        raise ValueError("closure is defined for mutation products")
    base_witness, _ = check_tpa_window(alg, p, window)
    if base_witness is not None:
        z, args = base_witness
        raise ValueError(
            "base product fails the compatibility law at "
            f"z={z.token}, ({', '.join(a.token for a in args)})"
        )
    amb = p.ambient
    qe = _as_element(q_elem)
    w_new = amb.assoc(amb.assoc(p.w, qe), p.w)
    p_new = mutation_product(amb, w_new)
    witness, _ = check_tpa_window(alg, p_new, window)
    return witness is None
