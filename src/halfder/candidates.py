"""The paper's closed-form candidate maps, as named families on a window;
`halfder.solver` serves `closed_form_map` on first use."""

from __future__ import annotations

from fractions import Fraction

from .basis import Family, ZERO, as_int, as_scalar, bidx
from .element import Element
from .maps import LinMapWindow

# each family and the algebra it lives on
_HOMES = {
    "witt_shift_family": "witt",
    "wab_even": "wab",
    "wab_odd": "wab",
    "thin_candidate": "thin",
    "solvable_candidate": "solvable",
}
CLOSED_FORM_FAMILIES = tuple(_HOMES)


def _shift(cs: dict, family: Family, degree2: int) -> Element:
    """sum_t c_t x_{m+t} in `family`, where degree2 = 2m."""
    return Element({bidx(family, degree2 + 2 * t): c for t, c in cs.items()})


def closed_form_map(family: str, coeffs: dict, alg, window: int) -> LinMapWindow:
    """Build one of the named closed-form map families on a window.

    witt_shift_family: {j: a_j}, e_i -> sum_j a_j e_{i+j}.
    wab_even: {t: a_t}, L_m -> sum a_t L_{m+t} and I_m -> sum a_t I_{m+t}.
    wab_odd: {t: b_t}, L_m -> sum b_t I_{m+t} and I_m -> 0.
    thin_candidate: {"alpha": {i: a_i}, "beta": {i: b_i}} with
        phi(e_1) = sum a_i e_i, phi(e_2) = sum b_i e_i and
        phi(e_n) = (1 - 2^{2-n}) a_1 e_n + 2^{2-n} L^{n-2} phi(e_2), n >= 3,
        where L is left bracket by e_1; any other key raises ValueError.
    solvable_candidate: {i: c_i}, phi(e_1) = sum c_i e_i and
        phi(e_n) = c_1 e_n for n >= 2.
    Keys are ints or integer strings; a float or bool key raises ValueError.
    """
    home = _HOMES.get(family)
    if home is None:
        raise ValueError(f"unknown closed-form family {family!r}; known: {CLOSED_FORM_FAMILIES}")
    if alg.name != home:
        raise ValueError(f"{family} lives on the {home} algebra")

    def _sc(d):
        return {as_int(k): as_scalar(v) for k, v in d.items()}

    if family == "thin_candidate":
        if unknown := [k for k in coeffs if k not in ("alpha", "beta")]:
            raise ValueError(f"thin_candidate keys are 'alpha' and 'beta', not {', '.join(map(repr, unknown))}")
        alpha, beta = _sc(coeffs.get("alpha", {})), _sc(coeffs.get("beta", {}))
    else:
        alpha = beta = _sc(coeffs)
    if home in ("thin", "solvable") and min((*alpha, *beta), default=1) < 1:
        raise ValueError(f"{home} indices start at 1")
    a1 = alpha.get(1, ZERO)

    def image(s) -> Element:
        if family in ("witt_shift_family", "wab_even"):
            return _shift(alpha, s.family, s.degree2)
        if family == "wab_odd":
            return _shift(alpha, Family.I, s.degree2) if s.family is Family.L else Element.zero()
        n = s.degree2 // 2
        if n == 1:
            return _shift(alpha, Family.E, 0)
        if family == "solvable_candidate":
            return Element.single(s, a1)
        if n == 2:
            return _shift(beta, Family.E, 0)
        scale = Fraction(4, 2**n)  # 2^{2-n}
        # L^{n-2} kills e_1 and shifts e_i (i >= 2) to e_{i+n-2}
        shifted = _shift({i: scale * c for i, c in beta.items() if i >= 2}, Family.E, 2 * n - 4)
        return Element.single(s, (1 - scale) * a1) + shifted

    srcs = alg.window_indices(window)
    return LinMapWindow(alg, srcs, {s: image(s) for s in srcs})
