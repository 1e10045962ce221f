"""The paper's closed-form candidate maps, as named families on a window;
`halfder.solver` serves `closed_form_map` on first use."""

from __future__ import annotations

from fractions import Fraction

from .basis import Family, ZERO, as_scalar, bidx
from .element import Element
from .maps import LinMapWindow

CLOSED_FORM_FAMILIES = (
    "witt_shift_family",
    "wab_even",
    "wab_odd",
    "thin_candidate",
    "solvable_candidate",
)


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
    E = Family.E

    def _sc(d):
        for k in d:
            if isinstance(k, bool) or not isinstance(k, (int, str)):
                raise ValueError(f"{family} keys are integers, not {k!r}")
        return {int(k): as_scalar(v) for k, v in d.items()}

    if family == "witt_shift_family":
        if alg.name != "witt":
            raise ValueError("witt_shift_family lives on the witt algebra")
        cs = _sc(coeffs)
        images = {}
        for s in alg.window_indices(window):
            i = s.degree2 // 2
            images[s] = Element({bidx(E, 2 * (i + j)): c for j, c in cs.items()})
        return LinMapWindow(alg, window, images)
    if family in ("wab_even", "wab_odd"):
        if alg.name != "wab":
            raise ValueError(f"{family} lives on the wab algebras")
        cs = _sc(coeffs)
        images = {}
        for s in alg.window_indices(window):
            if family == "wab_even":
                images[s] = Element({bidx(s.family, s.degree2 + 2 * t): c for t, c in cs.items()})
            elif s.family is Family.L:
                images[s] = Element({bidx(Family.I, s.degree2 + 2 * t): c for t, c in cs.items()})
            else:
                images[s] = Element.zero()
        return LinMapWindow(alg, window, images)
    if family == "thin_candidate":
        if alg.name != "thin":
            raise ValueError("thin_candidate lives on the thin algebra")
        if unknown := [k for k in coeffs if k not in ("alpha", "beta")]:
            raise ValueError(f"thin_candidate keys are 'alpha' and 'beta', not {', '.join(map(repr, unknown))}")
        alpha = _sc(coeffs.get("alpha", {}))
        beta = _sc(coeffs.get("beta", {}))
        if any(i < 1 for i in alpha) or any(i < 1 for i in beta):
            raise ValueError("thin indices start at 1")
        a1 = alpha.get(1, ZERO)
        images = {}
        for s in alg.window_indices(window):
            n = s.degree2 // 2
            if n == 1:
                images[s] = Element({bidx(E, 2 * i): c for i, c in alpha.items()})
            elif n == 2:
                images[s] = Element({bidx(E, 2 * i): c for i, c in beta.items()})
            else:
                shift = Fraction(4, 2**n)  # 2^{2-n}
                # L^{n-2} kills e_1 and shifts e_i (i >= 2) to e_{i+n-2}
                shifted = Element({bidx(E, 2 * (i + n - 2)): shift * c for i, c in beta.items() if i >= 2})
                images[s] = Element.single(bidx(E, 2 * n), (1 - shift) * a1) + shifted
        return LinMapWindow(alg, window, images)
    if family == "solvable_candidate":
        if alg.name != "solvable":
            raise ValueError("solvable_candidate lives on the solvable algebra")
        cs = _sc(coeffs)
        if any(i < 1 for i in cs):
            raise ValueError("solvable indices start at 1")
        c1 = cs.get(1, ZERO)
        images = {}
        for s in alg.window_indices(window):
            n = s.degree2 // 2
            if n == 1:
                images[s] = Element({bidx(E, 2 * i): c for i, c in cs.items()})
            else:
                images[s] = Element.single(s, c1)
        return LinMapWindow(alg, window, images)
    raise ValueError(f"unknown closed-form family {family!r}; known: {CLOSED_FORM_FAMILIES}")
