import gc
import hashlib
import json
import random
import re
import warnings
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfder import rows as rows_module
from halfder import solver, superconformal
from halfder.algebras import make_algebra
from halfder.basis import ONE, ZERO, Family, as_scalar, bidx
from halfder.candidates import closed_form_map
from halfder.core import render
from halfder.element import Element
from halfder.elimination import _rref
from halfder.finite import finite_algebra
from halfder.maps import LinMapWindow, WindowEscapeError, _Window, delta_residual, identity_map
from halfder.poisson import check_tpa_window, find_poisson_witness, mutation_closure_check
from halfder.products import parse_product_literal
from halfder.rows import class_split, residual_rows
from halfder.solver import (
    SolutionSpace,
    _system_rows,
    bounded_tuples,
    is_trivial_space,
    solve_delta_derivations,
    solve_stabilized,
    space_to_jsonable,
    stabilize,
)
from halfder.spec import AlgebraSpec, BracketTable
from halfder.tables import algebra_from_structure_json, direct_sum

HALF = Fraction(1, 2)


def E(i):
    return bidx(Family.E, 2 * i)


def L(i):
    return bidx(Family.L, 2 * i)


def osp12(wrong_parity: bool = False) -> AlgebraSpec:
    """osp(1|2) on f = e_-1, h = e_0, e = e_1, y = G+_-1/2, x = G+_1/2, from
    its brackets on ascending tuples; wrong_parity sets [h, x] = e, an even
    output of an odd bracket."""
    f, h, e, y, x = E(-1), E(0), E(1), bidx(Family.GPLUS, -1), bidx(Family.GPLUS, 1)
    one = Element.single
    table = {
        (f, h): one(f, 2), (f, e): one(h, -1), (h, e): one(e, 2),
        (h, x): one(e if wrong_parity else x, 1), (h, y): one(y, -1), (e, y): one(x, -1), (f, x): one(y, -1),
        (x, x): one(e, 2), (y, y): one(f, -2), (y, x): one(h, 1),
    }
    return finite_algebra("osp(1|2)", (f, h, e, y, x), table)


def in_window_pairs(alg, W):
    srcs = alg.window_indices(W)
    sset = set(srcs)
    for x, y in combinations_with_replacement(srcs, 2):
        out = alg.bracket_basis((x, y))
        if all(t in sset for t in out.terms):
            yield (x, y)
            if x != y:
                yield (y, x)


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_unit_examples():
    assert nullspace([[1, -1]]) == [[Fraction(1), Fraction(1)]]
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    zero = nullspace([[0, 0], [0, 0]])
    assert zero == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    got = nullspace([[Fraction(1, 2), Fraction(1, 3)]])
    assert got == [[Fraction(-2, 3), Fraction(1)]]


def test_nullspace_random_matrix_self_check():
    rng = random.Random(7)
    rows = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(30)] for _ in range(20)
    ]
    basis = nullspace(rows)
    # multiply back: every basis vector kills every row
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
    # rank-nullity against an independent elimination
    dense = [row[:] for row in rows]
    rank = 0
    for col in range(30):
        piv = next((r for r in range(rank, 20) if dense[r][col]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for r in range(20):
            if r != rank and dense[r][col]:
                f = dense[r][col] / dense[rank][col]
                dense[r] = [a - f * b for a, b in zip(dense[r], dense[rank])]
        rank += 1
    assert len(basis) == 30 - rank
    # determinism
    assert nullspace(rows) == basis


# ---------------------------------------------------------------------------
# delta_residual


def test_delta_residual_shift_map_frozen_example():
    witt = make_algebra("witt")
    shift1 = closed_form_map("witt_shift_family", {1: 1}, witt, 8)
    res = delta_residual(witt, shift1, 1, (E(2), E(3)))
    assert res == Element.basis(E(6))
    assert delta_residual(witt, shift1, HALF, (E(2), E(3))).is_zero()


def test_shift_maps_are_half_derivations_on_window():
    witt = make_algebra("witt")
    phi = closed_form_map("witt_shift_family", {-2: Fraction(1, 3), 0: 2, 1: -1}, witt, 6)
    for pair in in_window_pairs(witt, 6):
        assert delta_residual(witt, phi, HALF, pair).is_zero()


def test_identity_map_is_delta_half_derivation_everywhere():
    for name, params in (("virasoro", {}), ("svir", {"sector": "neveu_schwarz"})):
        alg = make_algebra(name, params)
        phi = identity_map(alg, 5)
        for pair in in_window_pairs(alg, 5):
            assert delta_residual(alg, phi, HALF, pair).is_zero()


def test_delta_residual_window_escape_is_reported():
    witt = make_algebra("witt")
    phi = closed_form_map("witt_shift_family", {0: 1}, witt, 4)
    with pytest.raises(WindowEscapeError):
        delta_residual(witt, phi, HALF, (E(2), E(3)))  # output e_5 leaves W=4
    with pytest.raises(WindowEscapeError):
        delta_residual(witt, phi, HALF, (E(9), E(0)))
    with pytest.raises(ValueError, match="expected 2 arguments"):
        delta_residual(witt, phi, HALF, (E(1),))


def test_virasoro_residual_matches_hand_derived_relations():
    # independent oracle: with phi(L_m) = sum_k A[m,k] L_k + rho_m c and
    # phi(c) = gamma c, the L_k coefficient of the residual at (L_p, L_q) is
    # (p-q)A[p+q,k] - 1/2((k-2q)A[p,k-q] + (2p-k)A[q,k-p]) and the central
    # one at p+q != 0 is (p-q)rho_{p+q} - 1/24((q-q^3)A[p,-q] + (p^3-p)A[q,-p]).
    vir = make_algebra("virasoro")
    rng = random.Random(3)
    W, S = 6, 2
    srcs = vir.window_indices(W)
    A: dict = {}
    rho: dict = {}
    images: dict = {}
    gamma = Fraction(rng.randint(-3, 3))
    for s in srcs:
        if s.family is Family.C:
            images[s] = Element.single(s, gamma)
            continue
        m = s.degree2 // 2
        terms: dict = {}
        for k in range(m - S, m + S + 1):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            A[(m, k)] = c
            if c:
                terms[L(k)] = c
        rho[m] = Fraction(rng.randint(-4, 4))
        if rho[m]:
            terms[bidx(Family.C)] = rho[m]
        images[s] = Element(terms)
    phi = LinMapWindow(vir, srcs, images)

    def a(m, k):
        return A.get((m, k), Fraction(0))

    for p, q in ((1, 2), (-3, 1), (2, 2), (4, -2), (0, 3)):
        res = delta_residual(vir, phi, HALF, (L(p), L(q)))
        for k in range(-2 * W, 2 * W + 1):
            expect = (p - q) * a(p + q, k) - HALF * (
                (k - 2 * q) * a(p, k - q) + (2 * p - k) * a(q, k - p)
            )
            assert res.coeff(L(k)) == expect, (p, q, k)
        if p + q != 0:
            central = (p - q) * rho[p + q] - Fraction(1, 24) * (
                (q - q**3) * a(p, -q) + (p**3 - p) * a(q, -p)
            )
            assert res.coeff(bidx(Family.C)) == central, (p, q)


# ---------------------------------------------------------------------------
# solve + stabilize


def test_witt_half_derivation_space_is_the_shift_family():
    witt = make_algebra("witt")
    space = solve_stabilized(witt, HALF, window=6, shift=2)
    assert space.stable and space.dimension == 5
    for j in range(-2, 3):
        shift = closed_form_map("witt_shift_family", {j: 1}, witt, 6)
        assert space.contains(shift)
    assert not is_trivial_space(space)
    not_member = closed_form_map("witt_shift_family", {}, witt, 6)
    images = {E(0): Element.basis(E(1))}
    lone = LinMapWindow(witt, witt.window_indices(6), images)
    assert not space.contains(lone)
    assert space.contains(not_member)  # zero map sits in every span


def test_virasoro_space_is_trivial():
    vir = make_algebra("virasoro")
    space = solve_stabilized(vir, HALF, window=6, shift=2)
    assert space.dimension == 1
    assert is_trivial_space(space)


def test_wab_generic_point_is_trivial():
    wab = make_algebra("wab", a=1, b=2)
    space = solve_stabilized(wab, HALF, window=6, shift=2)
    assert space.dimension == 1
    assert is_trivial_space(space)


def test_wab_b_minus_one_has_two_shift_families():
    wab = make_algebra("wab", a=1, b=-1)
    S = 2
    space = solve_stabilized(wab, HALF, window=6, shift=S)
    assert space.dimension == 2 * (2 * S + 1)
    assert not is_trivial_space(space)
    for t in range(-S, S + 1):
        even = closed_form_map("wab_even", {t: 1}, wab, 6)
        odd = closed_form_map("wab_odd", {t: 1}, wab, 6)
        assert space.contains(even)
        assert space.contains(odd)


def test_wab_closed_forms_only_work_at_b_minus_one():
    good = make_algebra("wab", a=Fraction(1, 2), b=-1)
    for fam in ("wab_even", "wab_odd"):
        phi = closed_form_map(fam, {1: 1}, good, 5)
        for pair in in_window_pairs(good, 5):
            assert delta_residual(good, phi, HALF, pair).is_zero(), (fam, pair)
    bad = make_algebra("wab", a=Fraction(1, 2), b=3)
    phi = closed_form_map("wab_odd", {1: 1}, bad, 5)
    assert any(
        not delta_residual(bad, phi, HALF, pair).is_zero() for pair in in_window_pairs(bad, 5)
    )


def test_finite_solver_dimensions():
    sl2 = make_algebra("sl2")
    half = solve_delta_derivations(sl2, HALF)
    assert half.stable and half.dimension == 1 and is_trivial_space(half)
    ordinary = solve_delta_derivations(sl2, 1)
    assert ordinary.dimension == 3  # all derivations of sl2 are inner
    double = solve_delta_derivations(direct_sum(sl2, make_algebra("sl2")), HALF)
    assert double.dimension == 2
    sch = solve_delta_derivations(make_algebra("schrodinger"), HALF)
    assert sch.dimension == 1 and is_trivial_space(sch)
    a4 = make_algebra("nary_simple", n=3)
    third = solve_delta_derivations(a4, Fraction(1, 3))
    assert third.dimension == 1 and is_trivial_space(third)


def test_super_solver_spaces_are_trivial():
    for sector in ("ramond", "neveu_schwarz"):
        sv = make_algebra("svir", sector=sector)
        space = solve_stabilized(sv, HALF, window=4, shift=2)
        assert space.dimension == 1, sector
        assert is_trivial_space(space)
    n2 = make_algebra("n2sca", sector="neveu_schwarz")
    space = solve_stabilized(n2, HALF, window=3, shift=1)
    assert space.dimension == 1
    assert is_trivial_space(space)


def test_solvable_space_matches_closed_form():
    sol = make_algebra("solvable")
    S = 2
    space = solve_stabilized(sol, HALF, window=8, shift=S)
    # one overall scalar plus one free image coefficient per reachable e_i
    assert space.dimension == S + 1
    cand = closed_form_map("solvable_candidate", {1: 1, 2: Fraction(2, 3), 3: -1}, sol, 8)
    assert space.contains(cand)
    ident = closed_form_map("solvable_candidate", {1: 1}, sol, 8)
    for pair in in_window_pairs(sol, 8):
        assert delta_residual(sol, ident, HALF, pair).is_zero()


def test_raw_solution_spaces_satisfy_their_equations():
    for alg, W, S in (
        (make_algebra("witt"), 5, 2),
        (make_algebra("virasoro"), 4, 2),
        (make_algebra("solvable"), 6, 2),
    ):
        space = solve_delta_derivations(alg, HALF, window=W, shift=S)
        for phi in space.basis:
            for pair in in_window_pairs(alg, W):
                assert delta_residual(alg, phi, HALF, pair).is_zero(), (alg.name, pair)


def test_stabilized_dimension_is_monotone_in_window():
    witt = make_algebra("witt")
    dims = [solve_stabilized(witt, HALF, window=W, shift=2).dimension for W in (5, 6, 7)]
    assert dims == sorted(dims, reverse=True)
    assert dims == [5, 5, 5]


@pytest.mark.parametrize(
    "name, params, delta, window, shift",
    [
        ("witt", {}, Fraction(1), 6, 2),
        ("wab", {"a": HALF, "b": -1}, HALF, 10, 2),
        ("n2sca", {"sector": "ramond"}, Fraction(1), 4, 1),
        ("svir", {"sector": "neveu_schwarz"}, HALF, 4, 2),
        ("thin", {}, HALF, 12, 3),
    ],
)
def test_one_solve_stabilization_matches_two_solves(name, params, delta, window, shift):
    alg = make_algebra(name, params)
    small = solve_delta_derivations(alg, delta, window, shift)
    reference = stabilize(solve_delta_derivations(alg, delta, window + shift + 2, shift), window)
    space = solve_stabilized(alg, delta, window, shift)
    assert space_to_jsonable(space) == space_to_jsonable(reference)
    # the restrictions of the large solutions already lie in the small space
    assert all(small.contains(b) for b in space.basis)


@pytest.mark.parametrize(
    "name, params, delta, window, shift",
    [
        ("witt", {}, HALF, 6, 2),
        ("witt", {}, Fraction(1), 6, 2),
        ("wab", {"a": HALF, "b": -1}, HALF, 6, 2),
        ("n2sca", {"sector": "ramond"}, HALF, 3, 1),
        ("svir", {"sector": "neveu_schwarz"}, HALF, 4, 1),
        ("thin", {}, HALF, 8, 2),
        ("solvable", {}, HALF, 6, 2),
        ("virasoro", {}, HALF, 6, 2),
    ],
)
def test_stabilize_restricts_the_public_basis(name, params, delta, window, shift):
    # the oracle reads basis images alone: the large solve's maps restricted
    # to the small window's sources, eliminated over Fraction
    alg = make_algebra(name, params)
    large = solve_delta_derivations(alg, delta, window + shift + 2, shift)
    small = set(alg.window_indices(window))

    def coords(phi):
        return {(s, t): c for s, img in phi.images.items() if s in small for t, c in img.terms.items()}

    expected = _fraction_rref(map(coords, large.basis))
    space = solve_stabilized(alg, delta, window, shift)
    assert space.dimension == len(expected)
    assert _fraction_rref(map(coords, space.basis)) == expected


def test_stabilized_solve_checks_bounds_then_solves_once(monkeypatch):
    witt = make_algebra("witt")
    windows = []
    original = solver.solve_delta_derivations

    def counted(alg, delta, window=None, shift=None):
        windows.append(window)
        return original(alg, delta, window, shift)

    monkeypatch.setattr(solver, "solve_delta_derivations", counted)
    assert solve_stabilized(witt, HALF, 5, 2).dimension == 5
    assert windows == [9]

    def refuse(*args):
        raise AssertionError("solved before the window and shift bounds were checked")

    monkeypatch.setattr(solver, "solve_delta_derivations", refuse)
    with pytest.raises(ValueError, match="shift bound must be smaller than the window"):
        solve_stabilized(witt, HALF, 2, 5)
    with pytest.raises(ValueError, match="window and shift bounds"):
        solve_stabilized(witt, HALF)


def test_stabilized_space_keeps_its_pivots(monkeypatch):
    # contains() on a stabilized space, and on a raw one, reduces against
    # the pivots the basis was built from, without eliminating the basis
    witt = make_algebra("witt")
    spaces = (solve_stabilized(witt, HALF, 5, 2), solve_delta_derivations(witt, HALF, 7, 2))
    calls, original = [], solver._rref
    monkeypatch.setattr(solver, "_rref", lambda rows: calls.append(1) or original(rows))
    for space in spaces:
        assert all(space.contains(b) for b in space.basis)
        shift = LinMapWindow(witt, witt.window_indices(space.window), {E(0): Element.basis(E(1))})
        assert not space.contains(shift)
    assert calls == []


def test_stabilize_preconditions():
    witt = make_algebra("witt")
    small = solve_delta_derivations(witt, HALF, window=6, shift=2)
    with pytest.raises(ValueError):
        stabilize(small, 6)  # zero window gap
    with pytest.raises(ValueError, match="must be at least max"):
        stabilize(small, 5)  # a gap below the shift bound
    with pytest.raises(ValueError, match="window and shift bounds"):
        stabilize(small, None)
    with pytest.raises(ValueError):
        is_trivial_space(small)  # not stabilized
    fin = solve_delta_derivations(make_algebra("sl2"), HALF)
    with pytest.raises(ValueError):
        stabilize(fin, None)


def test_solver_window_validation():
    witt = make_algebra("witt")
    with pytest.raises(ValueError):
        solve_delta_derivations(witt, HALF, window=4, shift=4)
    with pytest.raises(ValueError):
        solve_delta_derivations(witt, HALF, window=None, shift=None)
    with pytest.raises(ValueError):
        solve_delta_derivations(witt, HALF, window=6, shift=0)
    with pytest.raises(ValueError, match="window and shift bounds"):
        solve_stabilized(witt, HALF)
    # a window below 1 on an infinite algebra has no sources, so every
    # library scan over it would pass over nothing
    w = parse_product_literal("mutation:w=e_0", witt)
    for scan in (
        lambda: check_tpa_window(witt, w, -3),
        lambda: find_poisson_witness(witt, w, -3),
        lambda: mutation_closure_check(witt, w, E(1), -1),
        lambda: identity_map(witt, -2),
        lambda: closed_form_map("witt_shift_family", {0: 1}, witt, -2),
    ):
        with pytest.raises(ValueError, match="window must be positive"):
            scan()
    # a window or shift that is not an int is named, not read as one (True
    # as 1) or handed on to the basis index constructor (5.0)
    for bad, window, shift in ((5.0, 5.0, 1), (True, True, 1), (2.0, 6, 2.0), (True, 6, True)):
        for solve in (solve_stabilized, solve_delta_derivations):
            with pytest.raises(ValueError, match=rf"(window|shift) must be an int, got {bad!r}"):
                solve(witt, HALF, window, shift)
    for bad in (5.0, True, None):
        for scan in (
            lambda: identity_map(witt, bad),
            lambda: check_tpa_window(witt, w, bad),
            lambda: witt.window_indices(bad),
        ):
            with pytest.raises(ValueError, match=rf"window must be an int, got {bad!r}"):
                scan()
    # a finite algebra ignores the window
    assert len(make_algebra("sl2").window_indices(2.5)) == 3


def test_empty_space_flags_anomaly():
    vir = make_algebra("virasoro")
    empty = SolutionSpace(HALF, _Window(vir, 4, 2), {}, True)
    with pytest.warns(UserWarning):
        assert not is_trivial_space(empty)


def test_thin_candidate_frozen_residual():
    thin = make_algebra("thin")
    cand = closed_form_map("thin_candidate", {"alpha": {}, "beta": {1: 1}}, thin, 8)
    res = delta_residual(thin, cand, HALF, (E(2), E(3)))
    assert res == Element.single(E(4), Fraction(-1, 2))


def test_thin_candidate_with_beta1_zero_is_a_half_derivation():
    thin = make_algebra("thin")
    cand = closed_form_map(
        "thin_candidate", {"alpha": {1: 1, 3: -2}, "beta": {2: 1, 4: Fraction(1, 3)}}, thin, 10
    )
    for pair in in_window_pairs(thin, 10):
        assert delta_residual(thin, cand, HALF, pair).is_zero(), pair


def test_thin_space_excludes_beta1():
    thin = make_algebra("thin")
    space = solve_stabilized(thin, HALF, window=9, shift=3)
    bad = closed_form_map("thin_candidate", {"alpha": {}, "beta": {1: 1}}, thin, 9)
    assert not space.contains(bad)
    good = closed_form_map("thin_candidate", {"alpha": {1: 1}, "beta": {2: 1, 3: 2}}, thin, 9)
    assert space.contains(good)


def test_closed_form_validation():
    witt = make_algebra("witt")
    with pytest.raises(ValueError):
        closed_form_map("witt_shift_family", {}, make_algebra("thin"), 6)
    with pytest.raises(ValueError):
        closed_form_map("no_such_family", {}, witt, 6)
    with pytest.raises(ValueError):
        closed_form_map("solvable_candidate", {0: 1}, make_algebra("solvable"), 6)


def test_closed_form_keys_are_never_truncated():
    witt, thin = make_algebra("witt"), make_algebra("thin")
    for key in (1.5, 1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            closed_form_map("witt_shift_family", {key: 1}, witt, 4)
    with pytest.raises(ValueError, match="1.9"):
        closed_form_map("thin_candidate", {"alpha": {1.9: 1}}, thin, 4)
    with pytest.raises(ValueError, match="1.5"):
        closed_form_map("witt_shift_family", {"1.5": 1}, witt, 4)
    # ints and integer strings are read as before
    shift1 = closed_form_map("witt_shift_family", {1: 1}, witt, 4)
    assert shift1.images == {E(i): Element.basis(E(i + 1)) for i in range(-4, 5)}
    assert closed_form_map("witt_shift_family", {"1": 1}, witt, 4).images == shift1.images
    shift2 = closed_form_map("witt_shift_family", {"2": 1}, witt, 4)
    assert shift2.images == closed_form_map("witt_shift_family", {2: 1}, witt, 4).images
    assert shift2.images == {E(i): Element.basis(E(i + 2)) for i in range(-4, 5)}


def test_thin_candidate_rejects_unknown_keys():
    # a misspelt key used to be dropped, giving the zero map
    thin = make_algebra("thin")
    for coeffs, named in (({"alpah": {1: 1}}, "'alpah'"), ({"alpha": {1: 1}, 1: {2: 1}}, "not 1")):
        with pytest.raises(ValueError, match=named):
            closed_form_map("thin_candidate", coeffs, thin, 3)
    assert closed_form_map("thin_candidate", {"beta": {2: 1}}, thin, 3).images[E(2)] == Element.basis(E(2))


# each family on its home algebra and on one other, with int, integer-string,
# float and bool keys, thin alpha/beta (beta reaching i >= 2) and a bool value
_CLOSED_FORM_CASES = (
    ("witt_shift_family", ("witt", "laurent")),
    ("wab_even", ("wab a=1 b=2", "wab a=0 b=-1", "witt")),
    ("wab_odd", ("wab a=1 b=2", "wab a=0 b=-1", "witt")),
    ("thin_candidate", ("thin", "solvable")),
    ("solvable_candidate", ("solvable", "thin")),
    ("no_such_family", ("witt",)),
)
_CLOSED_FORM_COEFFS = (
    {},
    {0: 1, 1: Fraction(1, 2), -2: 3},
    {1: 1, 2: Fraction(2, 3), 3: -1},
    {"1": 2, "-1": "1/3", "3": 1},
    {"1": "1/3", "2": 1},
    {1.5: 1},
    {1.0: 1},
    {True: 1},
    {"1.5": 1},
    {1: True},
    {"alpha": {1: 1}, "beta": {2: 1, 3: 2}},
    {"alpha": {"1": 2, 2: -1}, "beta": {1: 1, 2: Fraction(1, 3), "4": 5}},
    {"alpha": {}, "beta": {1: 1}},
    {"beta": {2: 1}},
    {"alpha": {1.9: 1}},
    {"beta": {True: 1}},
    {"alpha": {0: 1}},
    {"alpah": {1: 1}},
    {"alpha": {1: 1}, 1: {2: 1}},
)
# sha256 of every case's images and sources (or exception type), taken
# before the families were built through one path
_CLOSED_FORM_DIGEST = "ffce7ec3576c7788c96d089f6edd0cf0ba6ff96d76f64e71a932164e80f9fb4c"


def test_closed_form_map_digest():
    out = []
    for family, names in _CLOSED_FORM_CASES:
        for name in names:
            algebra, *params = name.split()
            alg = make_algebra(algebra, dict(p.split("=") for p in params))
            for coeffs in _CLOSED_FORM_COEFFS:
                for window in (3, 6):
                    try:
                        phi = closed_form_map(family, coeffs, alg, window)
                    except (ValueError, TypeError) as exc:
                        out.append((family, name, window, type(exc).__name__))
                        continue
                    images = sorted((s.token, render(img)) for s, img in phi.images.items())
                    out.append((family, name, window, [s.token for s in phi.sources], images))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _CLOSED_FORM_DIGEST


def test_contains_requires_matching_window():
    witt = make_algebra("witt")
    space = solve_stabilized(witt, HALF, window=6, shift=2)
    other = closed_form_map("witt_shift_family", {0: 1}, witt, 5)
    with pytest.raises(ValueError):
        space.contains(other)
    # laurent has witt's sources but a zero bracket
    with pytest.raises(ValueError, match="same algebra"):
        space.contains(identity_map(make_algebra("laurent"), 6))
    wide = closed_form_map("witt_shift_family", {3: 1}, witt, 6)  # shift 3 > S=2
    assert not space.contains(wide)
    with pytest.raises(ValueError, match="not a source"):
        LinMapWindow(witt, witt.window_indices(2), {E(5): Element.basis(E(1))})
    with pytest.raises(ValueError, match="not valid in witt"):
        LinMapWindow(witt, witt.window_indices(2), {E(1): Element.basis(L(1))})
    escape = LinMapWindow(witt, witt.window_indices(3), {E(0): Element.basis(E(3))})
    assert _Window(witt, 3, 1).vector_of(escape) is None


def test_contains_builds_the_window_once(monkeypatch):
    # the wab b = -1 questions of the benchmark ask ten memberships of one space
    wab = make_algebra("wab", {"a": HALF, "b": -1})
    space = solve_stabilized(wab, HALF, window=4, shift=1)
    maps = [
        closed_form_map(family, {t: 1}, wab, 4) for family in ("wab_even", "wab_odd") for t in (-1, 0, 1)
    ] + [closed_form_map("wab_even", {2: 1}, wab, 4)]  # shift 2 > S=1
    built = []
    init = _Window.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_Window, "__init__", spy)
    answers = [space.contains(phi) for phi in maps + maps[:3]]
    assert answers == [True] * 6 + [False] + [True] * 3
    assert len(built) <= 1


def test_window_builds_each_unknown_once():
    # uid and unknowns share one (s, t) tuple per unknown
    for win in (_Window(make_algebra("witt"), 4, 1), _Window(make_algebra("sl2"), None, None)):
        assert all(key is st for key, st in zip(win.uid, win.unknowns))
        assert list(win.uid.values()) == list(range(len(win.unknowns)))
        assert type(win.sources) is tuple and list(win.sources) == sorted(set(win.sources))


def test_maps_read_the_window_once(monkeypatch):
    # a map builder computes its sources once and hands them to LinMapWindow
    witt = make_algebra("witt")
    calls = []
    original = AlgebraSpec.window_indices

    def counted(self, window):
        calls.append(window)
        return original(self, window)

    monkeypatch.setattr(AlgebraSpec, "window_indices", counted)
    for build in (
        lambda: identity_map(witt, 4),
        lambda: closed_form_map("witt_shift_family", {0: 1}, witt, 4),
    ):
        calls.clear()
        phi = build()
        assert calls == [4] and phi.sources == tuple(original(witt, 4))


def test_solve_stabilized_builds_each_window_once(monkeypatch):
    # the large window serves the solve, and the small one, built after it,
    # serves stabilize and then the returned space's membership queries
    built = []
    init = _Window.__init__

    def counted(self, alg, window, shift):
        built.append(window)
        init(self, alg, window, shift)

    monkeypatch.setattr(_Window, "__init__", counted)
    witt = make_algebra("witt")
    space = solve_stabilized(witt, HALF, 4, 1)
    assert space.dimension == 3
    assert space.contains(identity_map(witt, 4))
    assert built == [7, 4]


def _digest(space) -> str:
    return hashlib.sha256(json.dumps(space_to_jsonable(space), sort_keys=True).encode()).hexdigest()


def test_solves_leave_the_algebra_memo_empty():
    # a solve reads its structure constants through a table of its own, so
    # the W + S + 2 scaffolding window's constants are not kept on the
    # algebra after the solve; the digests pin the JSON of both answers
    wab = make_algebra("wab", {"a": "1/2", "b": "-1"})
    space = solve_stabilized(wab, HALF, 6, 2)
    assert wab._bcache == {}
    gens = [closed_form_map(fam, {t: 1}, wab, 6) for fam in ("wab_even", "wab_odd") for t in range(-2, 3)]
    assert space.dimension == 10 and all(space.contains(phi) for phi in gens)
    assert _digest(space) == "f1cddce5164a11bcaae56c6b107a19e958273666ab2b839094f5066b5cfe5f09"
    sl2 = make_algebra("sl2")
    space = solve_delta_derivations(sl2, HALF)
    assert sl2._bcache == {}
    assert _digest(space) == "ce730c39dfc19fb63c6ae73af326aa5242630bdd86a621c2dc3b5d0899e73805"


def test_solve_frees_its_table_by_reference_counting():
    # no reference cycle holds the solve's table: with the cyclic collector
    # off during the solve, a collection afterwards finds nothing to free
    gc.collect()
    gc.disable()
    try:
        space = solve_stabilized(make_algebra("wab", {"a": "1/2", "b": "-1"}), HALF, 4, 2)
        del space
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_empty_space_warns_only_where_the_identity_belongs():
    # the identity is a delta-derivation only when delta * arity = 1, so an
    # empty space at delta 0 is no anomaly
    witt = make_algebra("witt")
    space = solve_stabilized(witt, 0, 3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.dimension == 0 and not is_trivial_space(space)


# ---------------------------------------------------------------------------
# integer rows and the per-class integer nullspace


def _every_row(win, delta=HALF) -> list:
    """Every residual row of the window, each class's stream in full, one
    class after another, as a solve would read them were none at full rank."""
    table = BracketTable(win.alg)
    tuples = list(bounded_tuples(win.alg, win.sources, table.__getitem__))
    return [
        row for targets, _ in class_split(win).values() for row in residual_rows(delta, targets, table, tuples)
    ]


def _primitive(row: dict) -> tuple:
    """The primitive flat form (u_1..u_k, c_1..c_k) of an integer row:
    ascending unknowns, coprime coefficients, c_1 > 0, so that rows that
    are rational multiples of each other coincide."""
    us = sorted(row)
    g = gcd(*row.values()) * (1 if row[us[0]] > 0 else -1)
    return (*us, *(row[u] // g for u in us))


@pytest.mark.parametrize(
    "name, params, window, shift, count",
    [("witt", {}, 8, 2, 514), ("n2sca", {"sector": "ramond"}, 3, 1, 3440)],
)
def test_system_rows_are_primitive_and_pairwise_independent(name, params, window, shift, count):
    stream = _every_row(_Window(make_algebra(name, params), window, shift))
    # zero-free integer dict rows in ascending unknowns
    assert all(list(r) == sorted(r) and all(type(c) is int and c for c in r.values()) for r in stream)
    rows = sorted(set(map(_primitive, stream)))
    assert len(rows) == count  # as with lead-1 Fraction rows
    lead_one = set()
    for row in rows:
        k = len(row) // 2
        us, cs = row[:k], row[k:]
        assert list(us) == sorted(set(us))
        assert all(type(c) is int and c for c in cs)
        assert cs[0] > 0 and gcd(*cs) == 1
        lead_one.add(us + tuple(Fraction(c, cs[0]) for c in cs))
    assert len(lead_one) == len(rows)


def _dot(row: dict, vec: dict) -> int:
    return sum(c * vec.get(u, 0) for u, c in row.items())


def _fraction_rref(rows) -> dict:
    """The oracle: reduced row echelon form over Fraction, as
    {lead: {col: c}} with an implicit 1 at the lead, so that
    x_lead = sum c * x_col."""
    pivots: dict = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        while r and (lead := min(r)) in pivots:
            f, p = r.pop(lead), pivots[lead]
            for c, v in p.items():
                if x := r.get(c, 0) + f * v:
                    r[c] = x
                else:
                    del r[c]
        if r:
            lead = min(r)
            inv = -1 / r.pop(lead)
            pivots[lead] = {c: v * inv for c, v in r.items()}
    for lead in sorted(pivots, reverse=True):
        for other in pivots.values():
            if f := other.pop(lead, None):
                for c, v in pivots[lead].items():
                    if x := other.get(c, 0) + f * v:
                        other[c] = x
                    else:
                        del other[c]
    return pivots


def _fraction_nullspace(rows, cols) -> list[dict]:
    """The oracle's canonical nullspace basis: one vector per free column,
    ascending, with 1 there and 0 at the other free columns."""
    pivots = _fraction_rref(rows)
    return [
        {f: Fraction(1), **{lead: p[f] for lead, p in pivots.items() if f in p}} for f in cols if f not in pivots
    ]


def nullspace(rows) -> list[list[Fraction]]:
    """Exact nullspace basis of a dense rational matrix, through _rref.

    Deterministic: each row is cleared of denominators and the integer
    rows are reduced by _rref; the basis is the canonical one with a unit
    entry in each free column, in ascending free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    sparse = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        if r := {c: x for c, v in enumerate(row) if (x := as_scalar(v))}:
            den = lcm(*[x.denominator for x in r.values()])
            sparse.append({c: x.numerator * (den // x.denominator) for c, x in r.items()})
    pivots = _rref(sparse)
    out = []
    for f in range(ncols):
        if f not in pivots:
            vec = [ZERO] * ncols
            vec[f] = ONE
            for lead, p in pivots.items():
                if x := p.get(f):
                    vec[lead] = Fraction(-x, p[lead])
            out.append(vec)
    return out


def _divided(pivots: dict) -> list[dict]:
    """Each pivot divided by its lead, in ascending lead."""
    return [{u: Fraction(x, p[lead]) for u, x in p.items()} for lead, p in sorted(pivots.items())]


def _one_class(rows, ncols):
    """The canonical basis of rows fed to one _Class, read off its N as
    select_rows reads it: one _rref keyed by ~u, each pivot over its lead."""
    c = rows_module._Class(list(range(ncols)))
    any(map(c.add, rows))
    pivots = _rref({~u: x for u, x in v.items()} for v in c.vectors())
    return [{~u: Fraction(x, p[lead]) for u, x in p.items()} for lead, p in sorted(pivots.items(), reverse=True)]


class _ClassSpy:
    """Replace rows._Class by a subclass that records every class made,
    its columns, the rows fed to it and the size of its N after each one."""

    def __init__(self, monkeypatch):
        made = self.made = []

        class Spy(rows_module._Class):
            __slots__ = ("cols", "fed", "sizes")

            def __init__(self, cols):
                super().__init__(cols)
                self.cols, self.fed, self.sizes = cols, [], [len(self.vectors())]
                made.append(self)

            def add(self, row):
                full = super().add(row)
                self.fed.append(row)
                self.sizes.append(len(self.vectors()))
                return full

        monkeypatch.setattr(rows_module, "_Class", Spy)


def _check_null(c, rows):
    """N, implicit unit vectors included, is a primitive integer basis that
    annihilates rows, starts as the unit vectors of the class and loses at
    most one vector per row fed; no explicit vector uses a free column."""
    null = c.vectors()
    assert c.sizes[0] == len(c.cols) and all(0 <= a - b <= 1 for a, b in zip(c.sizes, c.sizes[1:]))
    assert all(type(x) is int for v in null for x in v.values())
    assert all(v and gcd(*v.values()) == 1 and set(v) <= set(c.cols) for v in null)
    assert all(_dot(row, v) == 0 for row in rows for v in null)
    assert not any(set(v) & set(c.free) for v in c.null)


@pytest.mark.parametrize(
    "name, params, window, shift, classes, below, rank",
    [
        ("n2sca", {"sector": "ramond"}, 3, 1, 6, 1, 60),
        ("virasoro", {}, 6, 2, 5, 1, 15),
        ("wab", {"a": "1/2", "b": "-1"}, 6, 1, 3, 3, 150),  # no class reaches full rank
        ("svir", {"sector": "neveu_schwarz"}, 4, 1, 5, 1, 19),
    ],
)
def test_system_rows_keep_a_spanning_selection(monkeypatch, name, params, window, shift, classes, below, rank):
    win = _Window(make_algebra(name, params), window, shift)
    stream = _every_row(win)
    spy = _ClassSpy(monkeypatch)
    vectors = _system_rows(win, HALF)
    live = [c for c in spy.made if c.vectors()]
    assert len(spy.made) == classes and len(live) == below
    assert sum(len(c.cols) - len(c.vectors()) for c in live) == rank
    for c in spy.made:
        assert {tuple(r.items()) for r in c.fed} <= {tuple(r.items()) for r in stream}
        _check_null(c, [row for row in stream if min(row) in c.cols])
    assert _divided(vectors) == _fraction_nullspace(stream, range(len(win.unknowns)))


def test_witt_classes_stay_below_full_rank(monkeypatch):
    # no class of witt (8, 2) reaches full rank: each of the five classes
    # of 17 columns is fed its whole stream and comes back at nullity 1
    win = _Window(make_algebra("witt"), 8, 2)
    stream = _every_row(win)
    spy = _ClassSpy(monkeypatch)
    vectors = _system_rows(win, HALF)
    assert [(len(c.cols), len(c.vectors())) for c in spy.made] == [(17, 1)] * 5
    assert sum(len(c.fed) for c in spy.made) == len(stream) > 514
    assert len(vectors) == 5


def test_solve_stores_no_held_rows(monkeypatch):
    alg = make_algebra("n2sca", {"sector": "ramond"})
    streamed = len(_every_row(_Window(alg, 6, 1)))
    spy = _ClassSpy(monkeypatch)
    assembled = 0
    original = rows_module.residual_rows

    def counted(*args):
        nonlocal assembled
        for row in original(*args):
            assembled += 1
            yield row

    monkeypatch.setattr(rows_module, "residual_rows", counted)
    space = solve_delta_derivations(alg, HALF, 6, 1)
    assert space.dimension == 1
    # a class stores its N alone, never a row; five reach full rank
    assert sorted(len(c.vectors()) for c in spy.made) == [0] * 5 + [1]
    for c in spy.made:
        _check_null(c, [])
    # a class's stream closes at the row that completes its rank, so the
    # rest of that tuple's rows are never built
    assert (assembled, streamed) == (2773, 12973)


@pytest.mark.parametrize(
    "name, params, window, shift",
    [("witt", {}, 8, 2), ("n2sca", {"sector": "ramond"}, 3, 1)],
)
def test_solve_filters_the_window_once(monkeypatch, name, params, window, shift):
    # every class reads the one list of bounded tuples its solve filtered
    win = _Window(make_algebra(name, params), window, shift)
    expected = _fraction_nullspace(_every_row(win), range(len(win.unknowns)))
    calls = []
    original = rows_module.bounded_tuples

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(rows_module, "bounded_tuples", counted)
    assert _divided(rows_module.select_rows(win, HALF)) == expected
    assert calls == [win.sources]


def test_solve_eliminates_once_per_component(monkeypatch):
    alg = make_algebra("n2sca", {"sector": "ramond"})
    calls = []
    original = solver._rref

    def counted(rows):
        rows = list(rows)
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(solver, "_rref", counted)
    classes = _ClassSpy(monkeypatch)
    space = solve_delta_derivations(alg, HALF, 3, 1)
    # one elimination per solve, of the final N of the one class below full rank
    assert (calls, len(classes.made)) == ([1], 6)
    assert space.dimension == 1
    # a stabilized solve: one for the one (large) window, and one in stabilize
    calls.clear()
    assert solve_stabilized(make_algebra("witt"), HALF, 4, 1).dimension == 3  # shifts -1, 0, 1
    assert len(calls) == 2


@pytest.mark.parametrize(
    "bad",
    [
        # witt's bracket is not graded by |degree2|
        AlgebraSpec(
            name="witt",
            patterns=((Family.E, 0, None),),
            bracket_fn=superconformal._witt,
            grade2_fn=lambda idx: abs(idx.degree2),
        ),
        # the Witt bracket on odd G+ indices: graded, but odd x odd is odd
        AlgebraSpec(name="gwitt", patterns=((Family.GPLUS, 0, None),), bracket_fn=superconformal._witt),
        # a finite superalgebra: its grade2 is 0, so its classes are parities
        osp12(wrong_parity=True),
    ],
    ids=["grade", "parity", "finite-parity"],
)
def test_solve_raises_when_a_row_leaves_its_class(bad):
    # the residual system does not split into these classes, and the solve
    # must say so (a finite algebra ignores the window and shift)
    with pytest.raises(ValueError, match="leaves its class"):
        solve_delta_derivations(bad, HALF, 3, 1)


_M61 = (1 << 61) - 1  # a Mersenne prime


@st.composite
def integer_row_sets(draw):
    ncols = draw(st.integers(1, 6))
    big = st.sampled_from([_M61, -2 * _M61, _M61 + 1, 10**30 + 1, -(10**30) + 7, 3 * 10**30])
    coeff = st.integers(-3, 3) | big
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        how = draw(st.sampled_from(["new", "scaled", "sum"])) if rows else "new"
        if how == "new":
            row = {c: draw(coeff) for c in draw(st.sets(st.integers(0, ncols - 1), min_size=1))}
        elif how == "scaled":
            k = draw(st.sampled_from([-3, -1, 2, 5]))
            row = {c: k * v for c, v in draw(st.sampled_from(rows)).items()}
        else:
            row = dict(draw(st.sampled_from(rows)))
            for c, v in draw(st.sampled_from(rows)).items():
                row[c] = row.get(c, 0) + v
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    return [dict(sorted(r.items())) for r in rows], list(range(ncols))


@settings(max_examples=200, deadline=None)
@given(integer_row_sets())
def test_component_nullspace_matches_full_elimination(case):
    # the canonical basis read off the integer N is the full Fraction
    # elimination's, vector for vector and in the same order
    rows, cols = case
    assert _one_class(rows, len(cols)) == _fraction_nullspace(rows, cols)


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 6))
    num = st.integers(-3, 3) | st.sampled_from([_M61, -2 * _M61, 10**30 + 1, -(10**30) + 7])
    entry = st.builds(Fraction, num, st.sampled_from([1, 1, 2, 3, 7, _M61, 10**20]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        how = draw(st.sampled_from(["new", "zero", "repeat", "scaled"])) if rows else "new"
        if how == "new":
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        elif how == "zero":
            rows.append([Fraction(0)] * ncols)
        else:
            k = 1 if how == "repeat" else draw(st.sampled_from([-1, Fraction(2, 3), _M61]))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_integer_rref_and_nullspace_match_fraction_elimination(case):
    rows, ncols = case
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    ints = []
    for r in sparse:
        den = lcm(*[x.denominator for x in r.values()])
        ints.append({c: int(x * den) for c, x in r.items()})
    expected = _fraction_rref(sparse)
    pivots = _rref(ints)
    assert sorted(pivots) == sorted(expected)
    for lead, p in pivots.items():
        assert min(p) == lead and p[lead] > 0 and gcd(*p.values()) == 1
        assert all(type(x) is int and x for x in p.values())
        assert {c: Fraction(-x, p[lead]) for c, x in p.items() if c != lead} == expected[lead]
    dense = [[v.get(c, 0) for c in range(ncols)] for v in _fraction_nullspace(sparse, range(ncols))]
    assert nullspace(rows) == (dense if rows else [])


@settings(max_examples=200, deadline=None)
@given(integer_row_sets())
def test_class_stream_matches_fraction_elimination(case):
    # after every row, N spans the oracle's nullspace of the rows so far,
    # and the class reports full rank exactly when the oracle's rank does
    rows, cols = case
    c = rows_module._Class(cols)
    for i, row in enumerate(rows):
        full = c.add(row)
        seen = rows[: i + 1]
        assert full == (len(_fraction_rref(seen)) == len(cols))
        assert _fraction_rref(c.vectors()) == _fraction_rref(_fraction_nullspace(seen, cols))


def test_one_row_gives_vectors_in_free_column_order():
    # x0 + x1 + x2: both vectors have the least key 0, so a solve keeps the
    # order they come in, which must be the full elimination's
    expected = [{0: -1, 1: 1}, {0: -1, 2: 1}]
    assert _one_class([{0: 1, 1: 1, 2: 1}], 3) == expected == _fraction_nullspace([{0: 1, 1: 1, 2: 1}], [0, 1, 2])


@st.composite
def finite_structures(draw):
    dim = draw(st.integers(2, 4))
    coeff = st.sampled_from(["1", "-1", "2", "1/2", "-3/2"])
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            outs = draw(st.sets(st.integers(0, dim - 1), max_size=2))
            if outs:
                brackets.append([i, j, [[k, draw(coeff)] for k in sorted(outs)]])
    return {"dim": dim, "brackets": brackets}


@settings(max_examples=60, deadline=None)
@given(finite_structures(), st.sampled_from([HALF, Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(0)]))
def test_finite_solve_matches_full_elimination(data, delta):
    alg = algebra_from_structure_json(data)
    win = _Window(alg, None, None)
    rows = _every_row(win, delta)
    expected = sorted(_fraction_nullspace(rows, range(len(win.unknowns))), key=min)
    space = solve_delta_derivations(alg, delta)
    assert [b.images for b in space.basis] == [win.map_of(v).images for v in expected]


def _scaled(row: dict, k: int) -> dict:
    return {u: k * c for u, c in row.items()}


@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("scale", [_M61, 2])
@given(integer_row_sets(), st.data())
def test_row_selection_is_order_independent(scale, case, data):
    # every row fed times a common factor: N must stay primitive, and the
    # basis must be that of the unscaled rows
    rows, cols = case
    stream = data.draw(st.permutations([_scaled(r, scale) for r in rows + rows[::2]]))  # with exact repeats
    monkeypatch = pytest.MonkeyPatch()
    spy = _ClassSpy(monkeypatch)
    try:
        got = _one_class(stream, len(cols))
    finally:
        monkeypatch.undo()
    (c,) = spy.made
    assert c.fed == stream[: len(c.fed)]
    _check_null(c, stream)
    assert got == _fraction_nullspace(rows, cols)


# ---------------------------------------------------------------------------
# integer row assembly against the Leibniz oracle


def _koszul(parities, order) -> int:
    """The sign of rearranging a word of graded letters into order (a list
    of the letters' old positions): -1 to the number of pairs of odd letters
    the rearrangement puts out of their old order."""
    return (-1) ** sum(parities[j] and parities[k] for j, k in combinations(order, 2) if j > k)


def leibniz_oracle(br, image, args, a=1, b=1, parity=lambda k: 0):
    """a.f(br(args)) - b.sum_i (sign) br(args with x_i -> f(x_i)) over plain
    dicts.

    The Fraction reference of element.combine(algebras.leibniz_parts(...)):
    br maps a tuple of keys, and image one key, to {key: Fraction}; parity
    gives a key's parity, all even by default.  The sign of a term t of
    f(x_i) is that of the word f x_1 .. x_n rearranged to x_1 .. x_{i-1} f
    x_i .. x_n, the letter f of parity |t| + |x_i|.
    """
    acc: dict = {}

    def add(c, terms):
        for k, v in terms.items():
            acc[k] = acc.get(k, Fraction(0)) + c * v

    for o, c in br(args).items():
        add(a * c, image(o))
    n = len(args)
    for i, x in enumerate(args):
        for t, c in image(x).items():
            sign = _koszul([parity(t) ^ parity(x), *map(parity, args)], [*range(1, i + 1), 0, *range(i + 1, n + 1)])
            add(-b * c * sign, br(args[:i] + (t,) + args[i + 1 :]))
    return {k: v for k, v in acc.items() if v}


def _oracle_rows(win, delta):
    """Primitive residual rows built column by column: leibniz_oracle of the
    unit map of each unknown, with the algebra's own bracket and parities,
    on every in-window sorted tuple."""
    alg = win.alg
    inside = set(win.sources)

    def br(args):
        return alg.bracket_basis(args).terms

    tuples = [args for args in combinations_with_replacement(win.sources, alg.arity) if inside.issuperset(br(args))]
    rows: dict = {}
    for u, (s, t) in enumerate(win.unknowns):

        def unit(x, s=s, t=t):
            return {t: Fraction(1)} if x == s else {}

        for args in tuples:
            for o, c in leibniz_oracle(br, unit, args, b=delta, parity=lambda k: k.parity).items():
                rows.setdefault((args, o), {})[u] = c
    out = set()
    for row in rows.values():
        den = lcm(*(c.denominator for c in row.values()))
        out.add(_primitive({u: int(c * den) for u, c in row.items()}))
    return out


@pytest.mark.parametrize(
    "name, params, window, shift, delta",
    [
        ("witt", {}, 4, 1, HALF),
        ("witt", {}, 3, 2, Fraction(-2, 3)),
        ("virasoro", {}, 3, 1, HALF),  # the central term carries /12
        ("wab", {"a": "1/2", "b": "-3/2"}, 3, 1, HALF),
        ("n2sca", {"sector": "ramond"}, 2, 1, HALF),
        ("n2sca", {"sector": "neveu_schwarz"}, 2, 1, Fraction(1, 3)),
        ("svir", {"sector": "ramond"}, 3, 1, HALF),
        ("nary_simple", {"n": "3"}, None, None, Fraction(1, 3)),
    ],
)
def test_integer_rows_match_leibniz_oracle(name, params, window, shift, delta):
    win = _Window(make_algebra(name, params), window, shift)
    assert set(map(_primitive, _every_row(win, delta))) == _oracle_rows(win, delta)


@settings(max_examples=40, deadline=None)
@given(finite_structures(), st.sampled_from([HALF, Fraction(1), Fraction(-1, 3), Fraction(0)]))
def test_integer_rows_match_leibniz_oracle_on_random_tables(data, delta):
    win = _Window(algebra_from_structure_json(data), None, None)
    assert set(map(_primitive, _every_row(win, delta))) == _oracle_rows(win, delta)
