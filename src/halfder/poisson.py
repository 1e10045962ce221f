"""Commutative products paired with a bracket, and the checks tying them.

A product here is either a mutation x*y = x.w.y inside a commutative
associative ambient algebra, or a finite table rule on the basis.  The
module evaluates products bilinearly and measures the residuals of the
compatibility law n.z*[x1..xn] = sum_i [x1,..,z*xi,..,xn], the classical
Poisson Leibniz rule, associativity, and commutativity, all exactly.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement, product as iproduct

from .algebras import AlgebraSpec, leibniz_parts, make_algebra, multilinear
from .core import BasisIndex, Element, Family, ONE, bidx, combine, pack, parse_element, render
from .solver import LinMapWindow

__all__ = [
    "ProductSpec",
    "ambient_for",
    "assoc_comm_residuals",
    "check_tpa_window",
    "find_poisson_witness",
    "mutation_closure_check",
    "mutation_product",
    "normal_form_product",
    "parse_product_literal",
    "poisson_residual",
    "product_eval",
    "right_mult_map",
    "tpa_residual",
]

NORMAL_FORM_FAMILIES = ("thin_k", "solvable_1", "solvable_2", "solvable_3")

# solvable family: (subscripts summed in e_1*e_1, whether e_1*e_n = e_n for n >= 2)
_SOLVABLE_FORMS = {
    "solvable_1": ((1, 2), True),
    "solvable_2": ((2,), False),
    "solvable_3": ((1,), True),
}


def _e(i):
    return bidx(Family.E, 2 * i)


def _table_sub(idx: BasisIndex) -> int:
    """Subscript of an index in a table product's domain (e_n, n >= 1)."""
    if idx.family is not Family.E or idx.degree2 < 2:
        raise ValueError(f"index {idx.token} is outside the table product's domain")
    return idx.degree2 // 2


class ProductSpec:
    """A commutative bilinear product given by a basis-pair rule.

    kind is "mutation" or "table"; rule maps two basis indices to an
    Element.  A mutation product also keeps its ambient algebra and w.
    """

    def __init__(self, kind, name, rule, ambient=None, w=None):
        self.kind, self.name, self.rule, self.ambient, self.w = kind, name, rule, ambient, w
        self._cache = {}

    def product_ints(self, x: BasisIndex, y: BasisIndex) -> tuple:
        """The product of two basis indices as a packed entry (core.pack), memoized."""
        out = self._cache.get((x, y))
        if out is None:
            out = self._cache[(x, y)] = pack(self.rule(x, y))
        return out

    def __repr__(self):
        return f"<product {self.name}>"


def ambient_for(alg: AlgebraSpec) -> AlgebraSpec:
    """The commutative associative algebra whose mutations pair with alg."""
    if alg.name in ("witt", "laurent"):
        return make_algebra("laurent")
    if alg.name in ("wab", "extended_laurent"):
        return make_algebra("extended_laurent")
    raise ValueError(f"no mutation ambient is defined for algebra {alg.name}")


def mutation_product(ambient: AlgebraSpec, w: Element) -> ProductSpec:
    """The product x*y = x.w.y of the ambient associative algebra."""
    if ambient.assoc_fn is None:
        raise ValueError(f"algebra {ambient.name} has no associative product to mutate")
    for t in w.terms:
        if not ambient.valid_index(t):
            raise ValueError(f"w term {t.token} is not valid in {ambient.name}")

    def rule(x, y):
        return ambient.assoc(ambient.assoc(Element.basis(x), w), Element.basis(y))

    return ProductSpec(
        kind="mutation",
        name=f"mutation:w={render(w)}",
        rule=rule,
        ambient=ambient,
        w=w,
    )


def normal_form_product(family: str, params: dict | None = None) -> ProductSpec:
    """One of the named table products on the thin or solvable basis.

    thin_k: e_1*e_1 = e_k and all other pairs 0.
    solvable_1: e_1*e_1 = e_1 + e_2, e_1*e_n = e_n for n >= 2.
    solvable_2: e_1*e_1 = e_2.
    solvable_3: e_1*e_n = e_n for every n >= 1.
    """
    params = dict(params or {})
    if family not in NORMAL_FORM_FAMILIES:
        raise ValueError(f"unknown product family {family!r}; known: {NORMAL_FORM_FAMILIES}")
    if family == "thin_k":
        if set(params) != {"k"}:
            raise ValueError("thin_k takes exactly the parameter k")
        k = params["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ValueError("thin_k needs an integer k >= 2")
        square, unit, name = (k,), False, f"table:thin_k:{k}"
    else:
        if params:
            raise ValueError(f"{family} takes no parameters")
        square, unit = _SOLVABLE_FORMS[family]
        name = f"table:solvable:{family[-1]}"
    square_el = Element({_e(i): ONE for i in square})

    def rule(x, y):
        i, j = sorted((_table_sub(x), _table_sub(y)))
        if i != 1:
            return Element.zero()
        if j == 1:
            return square_el
        return Element.basis(_e(j)) if unit else Element.zero()

    return ProductSpec(kind="table", name=name, rule=rule)


def _as_element(x) -> Element:
    if isinstance(x, Element):
        return x
    if isinstance(x, BasisIndex):
        return Element.basis(x)
    raise TypeError(f"expected Element or BasisIndex, got {type(x).__name__}")


def product_eval(p: ProductSpec, x, y) -> Element:
    """Bilinear extension of the basis rule."""
    return multilinear((_as_element(x), _as_element(y)), lambda xy: [(1, 1, p.product_ints(*xy))])


def assoc_comm_residuals(p: ProductSpec, x, y, z) -> tuple[Element, Element]:
    """((x*y)*z - x*(y*z), x*y - y*x); both zero for a genuine product."""
    xe, ye, ze = _as_element(x), _as_element(y), _as_element(z)
    assoc = product_eval(p, product_eval(p, xe, ye), ze) - product_eval(
        p, xe, product_eval(p, ye, ze)
    )
    comm = product_eval(p, xe, ye) - product_eval(p, ye, xe)
    return assoc, comm


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


def parse_product_literal(text: str, alg: AlgebraSpec) -> ProductSpec:
    """Build a product from its command-line form.

    mutation:w=<element>   mutation of alg's ambient by the element
    table:thin_k:<k>       thin table product, k >= 2 (alg must be thin)
    table:solvable:<v>     solvable table product, v in {1,2,3}
    """
    if text.startswith("mutation:"):
        rest = text[len("mutation:") :]
        if not rest.startswith("w="):
            raise ValueError(f"mutation literal must look like mutation:w=<element>: {text!r}")
        ambient = ambient_for(alg)
        w = parse_element(rest[2:], ambient)
        return mutation_product(ambient, w)
    if text.startswith("table:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"table literal must look like table:<family>:<param>: {text!r}")
        _, fam, arg = parts
        if fam == "thin_k":
            if alg.name != "thin":
                raise ValueError("table:thin_k products pair with the thin algebra")
            try:
                k = int(arg)
            except ValueError:
                raise ValueError(f"thin_k parameter must be an integer: {arg!r}") from None
            return normal_form_product("thin_k", {"k": k})
        if fam == "solvable":
            if alg.name != "solvable":
                raise ValueError("table:solvable products pair with the solvable algebra")
            if arg not in ("1", "2", "3"):
                raise ValueError(f"solvable variant must be 1, 2 or 3: {arg!r}")
            return normal_form_product(f"solvable_{arg}")
        raise ValueError(f"unknown table family {fam!r}")
    raise ValueError(f"unknown product literal {text!r}; use mutation:w=... or table:...")
