"""Commutative products on a basis: ProductSpec, its constructors, and
their bilinear evaluation.

A product here is either a mutation x*y = x.w.y inside a commutative
associative ambient algebra, or a finite table rule on the basis.
`halfder.poisson` holds the checks that tie a product to a bracket.
"""

from __future__ import annotations

from .algebras import make_algebra
from .basis import BasisIndex, Family, ONE, as_int, bidx
from .core import parse_element, render
from .element import Element, pack
from .spec import AlgebraSpec, multilinear

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
        """The product of two basis indices as a packed entry (element.pack), memoized."""
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
                k = as_int(arg)
            except ValueError:
                raise ValueError(f"thin_k parameter must be an integer: {arg!r}") from None
            return normal_form_product("thin_k", {"k": k})
        if fam == "solvable":
            if alg.name != "solvable":
                raise ValueError("table:solvable products pair with the solvable algebra")
            try:  # text off the number grammar, or a variant with no family
                return normal_form_product(f"solvable_{as_int(arg)}")
            except ValueError:
                raise ValueError(f"solvable variant must be 1, 2 or 3: {arg!r}") from None
        raise ValueError(f"unknown table family {fam!r}")
    raise ValueError(f"unknown product literal {text!r}; use mutation:w=... or table:...")
