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
from itertools import combinations_with_replacement, groupby, product as iproduct

from .algebras import first_defect, leibniz_parts
from .element import Element, combine
from .maps import LinMapWindow
from .products import ProductSpec, _as_element, mutation_product
from .spec import AlgebraSpec, multilinear


def tpa_residual(alg: AlgebraSpec, p: ProductSpec, z, args: tuple) -> Element:
    """n.z*[x1..xn] - sum_i (sign) [x1,..,z*xi,..,xn] on the given inputs.

    The Leibniz defect of f = z*- with a = n, extended multilinearly in z
    and the arguments; a term t of z*xi moved into slot i takes the sign
    algebras.leibniz_slots states.  The law is stated for parity
    preserving products, for which |t| + |xi| is the parity of the basis
    term of z.  Zero iff the compatibility law holds there.
    """
    if len(args) != alg.arity:
        raise ValueError(f"expected {alg.arity} bracket arguments, got {len(args)}")
    return multilinear(
        [*map(_as_element, (z, *args))],
        lambda zx: leibniz_parts(alg.bracket_ints, zx[1:], partial(p.product_ints, zx[0]), alg.arity),
    )


def poisson_residual(alg: AlgebraSpec, p: ProductSpec, x, y, z) -> Element:
    """[x*y, z] - x*[y,z] - (-1)^{|y||z|} [x,z]*y, the classical Leibniz defect.

    The leibniz_parts form of f = [-, z] over the opposite product
    (u, v) -> v*u on (y, x); its Koszul sign is the graded Poisson rule's.
    """
    if alg.arity != 2:
        raise ValueError("the Poisson Leibniz rule is a binary-bracket check")
    return multilinear(
        [*map(_as_element, (x, y, z))],
        lambda xyz: leibniz_parts(
            lambda vu: p.product_ints(vu[1], vu[0]), xyz[1::-1], lambda u: alg.bracket_ints((u, xyz[2]))
        ),
    )


def _scan_order(alg: AlgebraSpec, window: int) -> list:
    return sorted(alg.window_indices(window), key=lambda i: (i.degree2, int(i.family)))


def find_poisson_witness(alg: AlgebraSpec, p: ProductSpec, window: int) -> tuple | None:
    """((x, y, z), its Leibniz defect) for the first window triple whose
    defect is nonzero, or None.

    Triples are ordered by degree triple first, family triple second, so
    reports are deterministic.  They are generated in that order, degree
    triple by degree triple, rather than sorted up front.
    """
    if alg.arity != 2:
        raise ValueError("the Poisson Leibniz rule is a binary-bracket check")
    levels = [list(level) for _, level in groupby(_scan_order(alg, window), lambda s: s.degree2)]
    return first_defect(
        (t for blocks in iproduct(levels, repeat=3) for t in iproduct(*blocks)),
        lambda x, y, z: poisson_residual(alg, p, x, y, z),
    )[0]


def check_tpa_window(alg: AlgebraSpec, p: ProductSpec, window: int) -> tuple[tuple | None, int]:
    """Scan z against sorted argument tuples: (((z, args), residual) for the
    first failing pair or None, pairs checked).

    Swapping two bracket arguments rescales the residual by a sign, so the
    sorted tuples decide the identity for all ordered ones.
    """
    srcs = _scan_order(alg, window)
    images = {z: partial(p.product_ints, z) for z in srcs}
    return first_defect(
        iproduct(srcs, combinations_with_replacement(srcs, alg.arity)),
        lambda z, args: combine(leibniz_parts(alg.bracket_ints, args, images[z], alg.arity)),
    )


def right_mult_map(p: ProductSpec, z, alg: AlgebraSpec, window: int) -> LinMapWindow:
    """The map x -> x*z on the window sources."""
    zs = [(c.numerator, c.denominator, t) for t, c in _as_element(z).terms.items()]
    srcs = alg.window_indices(window)
    images = {s: combine([(n, d, p.product_ints(s, t)) for n, d, t in zs]) for s in srcs}
    return LinMapWindow(alg, srcs, images)


def mutation_closure_check(alg: AlgebraSpec, p: ProductSpec, q_elem, window: int) -> bool:
    """Whether mutating a working product by q gives a working product again.

    The new product x o y = x*q*y is the ambient mutation by w.q.w; the
    check requires p itself to pass on the window first.
    """
    if p.kind != "mutation":
        raise ValueError("closure is defined for mutation products")
    hit, _ = check_tpa_window(alg, p, window)
    if hit is not None:
        (z, args), _ = hit
        raise ValueError(
            "base product fails the compatibility law at "
            f"z={z.token}, ({', '.join(a.token for a in args)})"
        )
    amb = p.ambient
    qe = _as_element(q_elem)
    w_new = amb.assoc(amb.assoc(p.w, qe), p.w)
    p_new = mutation_product(amb, w_new)
    return check_tpa_window(alg, p_new, window)[0] is None
