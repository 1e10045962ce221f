import random
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct

import pytest
from hypothesis import given, strategies as st

from halfder.algebras import make_algebra
from halfder.basis import Family, bidx
from halfder.candidates import closed_form_map
from halfder.core import parse_element
from halfder.element import Element
from halfder.maps import delta_residual
from halfder.poisson import (
    check_tpa_window,
    find_poisson_witness,
    mutation_closure_check,
    poisson_residual,
    right_mult_map,
    tpa_residual,
)
from halfder.products import (
    ProductSpec,
    ambient_for,
    assoc_comm_residuals,
    mutation_product,
    normal_form_product,
    parse_product_literal,
    product_eval,
)
from halfder.solver import is_trivial_space, solve_stabilized

HALF = Fraction(1, 2)


def E(i):
    return bidx(Family.E, 2 * i)


def L(i):
    return bidx(Family.L, 2 * i)


def I(i):
    return bidx(Family.I, 2 * i)


def el(text, alg=None):
    return parse_element(text, alg)


def laurent_mutation(w_text):
    amb = make_algebra("laurent")
    return mutation_product(amb, el(w_text, amb))


def extended_mutation(w_text):
    amb = make_algebra("extended_laurent")
    return mutation_product(amb, el(w_text, amb))


def in_window_pairs(alg, W):
    srcs = alg.window_indices(W)
    sset = set(srcs)
    for x, y in combinations_with_replacement(srcs, 2):
        out = alg.bracket_basis((x, y))
        if all(t in sset for t in out.terms):
            yield (x, y)


# ---------------------------------------------------------------------------
# product construction and evaluation


def test_mutation_product_values():
    p = laurent_mutation("e_0")
    assert product_eval(p, E(2), E(3)) == Element.basis(E(5))
    q = laurent_mutation("e_1 + e_-1")
    assert product_eval(q, E(0), E(0)) == el("e_1 + e_-1")
    r = extended_mutation("I_0")
    assert product_eval(r, L(1), L(2)) == Element.basis(I(3))
    assert product_eval(r, L(1), I(2)).is_zero()
    assert product_eval(r, I(1), I(2)).is_zero()


def test_mutation_product_validation():
    amb = make_algebra("laurent")
    with pytest.raises(ValueError):
        mutation_product(amb, Element.basis(L(0)))
    with pytest.raises(ValueError):
        mutation_product(make_algebra("witt"), Element.basis(E(0)))
    assert ambient_for(make_algebra("witt")).name == "laurent"
    assert ambient_for(make_algebra("wab", a=1, b=-1)).name == "extended_laurent"
    with pytest.raises(ValueError):
        ambient_for(make_algebra("virasoro"))


def test_normal_form_tables():
    thin3 = normal_form_product("thin_k", {"k": 3})
    assert product_eval(thin3, E(1), E(1)) == Element.basis(E(3))
    assert product_eval(thin3, E(1), E(2)).is_zero()
    s1 = normal_form_product("solvable_1")
    assert product_eval(s1, E(1), E(1)) == el("e_1 + e_2")
    assert product_eval(s1, E(5), E(1)) == Element.basis(E(5))
    assert product_eval(s1, E(2), E(3)).is_zero()
    s2 = normal_form_product("solvable_2")
    assert product_eval(s2, E(1), E(1)) == Element.basis(E(2))
    assert product_eval(s2, E(1), E(2)).is_zero()
    s3 = normal_form_product("solvable_3")
    assert product_eval(s3, E(1), E(1)) == Element.basis(E(1))
    assert product_eval(s3, E(1), E(5)) == Element.basis(E(5))
    assert product_eval(s3, E(4), E(5)).is_zero()


def test_normal_form_validation():
    with pytest.raises(ValueError):
        normal_form_product("thin_k", {"k": 1})
    with pytest.raises(ValueError):
        normal_form_product("thin_k", {"k": "2"})
    with pytest.raises(ValueError):
        normal_form_product("thin_k")
    with pytest.raises(ValueError):
        normal_form_product("solvable_1", {"k": 2})
    with pytest.raises(ValueError):
        normal_form_product("solvable_4")
    thin2 = normal_form_product("thin_k", {"k": 2})
    with pytest.raises(ValueError):
        product_eval(thin2, E(0), E(1))  # subscripts start at 1
    with pytest.raises(ValueError):
        product_eval(thin2, L(1), E(1))


def test_product_eval_bilinear():
    thin2 = normal_form_product("thin_k", {"k": 2})
    assert product_eval(thin2, el("2*e_1"), el("3*e_1")) == el("6*e_2")
    assert product_eval(thin2, el("e_1 + e_3"), Element.zero()).is_zero()
    p = laurent_mutation("e_0")
    assert product_eval(p, el("e_1 + e_2"), E(0)) == el("e_1 + e_2")


@given(
    i=st.integers(-4, 4),
    j=st.integers(-4, 4),
    ws=st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3),
)
def test_mutation_commutativity(i, j, ws):
    amb = make_algebra("laurent")
    w = Element({E(k): Fraction(c) for k, c in ws.items()})
    p = mutation_product(amb, w)
    _, comm = assoc_comm_residuals(p, E(i), E(j), E(0))
    assert comm.is_zero()


def test_assoc_comm_residuals():
    p = laurent_mutation("e_1 + 2*e_-2")
    rng = random.Random(11)
    for _ in range(25):
        x, y, z = (E(rng.randint(-3, 3)) for _ in range(3))
        assert assoc_comm_residuals(p, x, y, z) == (Element.zero(), Element.zero())
    thin2 = normal_form_product("thin_k", {"k": 2})
    assert assoc_comm_residuals(thin2, E(1), E(1), E(1)) == (Element.zero(), Element.zero())
    for prod in (
        thin2,
        normal_form_product("thin_k", {"k": 5}),
        normal_form_product("solvable_1"),
        normal_form_product("solvable_2"),
        normal_form_product("solvable_3"),
    ):
        for x, y, z in combinations_with_replacement([E(i) for i in range(1, 6)], 3):
            a, c = assoc_comm_residuals(prod, x, y, z)
            assert a.is_zero() and c.is_zero(), (prod.name, x, y, z)


# ---------------------------------------------------------------------------
# compatibility residuals


def test_tpa_residual_frozen_examples():
    witt = make_algebra("witt")
    p = laurent_mutation("e_0")
    assert tpa_residual(witt, p, E(0), (E(1), E(2))).is_zero()
    assert tpa_residual(witt, p, E(2), (E(3), E(3))).is_zero()  # equal arguments
    thin = make_algebra("thin")
    thin2 = normal_form_product("thin_k", {"k": 2})
    assert tpa_residual(thin, thin2, E(1), (E(1), E(4))).is_zero()
    with pytest.raises(ValueError):
        tpa_residual(witt, p, E(0), (E(1),))


def test_tpa_residual_detects_bad_products():
    # e_1*e_1 = e_1 on the thin algebra: the law fails already at degree 3
    thin = make_algebra("thin")
    bad = ProductSpec(
        kind="table",
        name="table:thin_k:1",
        rule=lambda x, y: Element.basis(E(1))
        if x.degree2 == 2 and y.degree2 == 2
        else Element.zero(),
    )
    res = tpa_residual(thin, bad, E(1), (E(1), E(2)))
    assert res == Element.single(E(3), -1)


def test_wab_mutation_fails_off_the_critical_parameter():
    # for [L_m, I_n] = -(n + a + b m) I_{m+n} and the unit mutation, the
    # defect at z=L_p, (L_m, I_n) is (b+1) p I_{m+n+p}
    wab = make_algebra("wab", a=0, b=2)
    p = extended_mutation("L_0")
    res = tpa_residual(wab, p, L(1), (L(1), I(0)))
    assert res == Element.single(I(2), 3)
    hit, _ = check_tpa_window(wab, p, 3)
    assert hit is not None
    (z, args), residual = hit
    assert residual == tpa_residual(wab, p, z, args) and not residual.is_zero()


def test_mutations_pass_on_windows():
    witt = make_algebra("witt")
    for w_text in ("e_0", "e_1 + e_-1", "2*e_2 - e_0"):
        witness, checked = check_tpa_window(witt, laurent_mutation(w_text), 4)
        assert witness is None
        assert checked == 9 * (9 * 10) // 2
    wab = make_algebra("wab", a=3, b=-1)
    witness, _ = check_tpa_window(wab, extended_mutation("L_0"), 4)
    assert witness is None
    witness, _ = check_tpa_window(wab, extended_mutation("L_1 + 2*I_-1"), 3)
    assert witness is None


def test_random_mutations_pass_seeded_sweep():
    rng = random.Random(0)
    witt = make_algebra("witt")
    for _ in range(5):
        w = Element({E(k): Fraction(rng.randint(-3, 3)) for k in range(-3, 4)})
        witness, _ = check_tpa_window(witt, mutation_product(make_algebra("laurent"), w), 4)
        assert witness is None
    for a in (0, Fraction(-1, 2)):
        wab = make_algebra("wab", a=a, b=-1)
        amb = make_algebra("extended_laurent")
        for _ in range(2):
            w = Element(
                {
                    **{L(k): Fraction(rng.randint(-2, 2)) for k in range(-2, 3)},
                    **{I(k): Fraction(rng.randint(-2, 2)) for k in range(-2, 3)},
                }
            )
            witness, _ = check_tpa_window(wab, mutation_product(amb, w), 3)
            assert witness is None


def test_table_products_pass_on_windows():
    thin = make_algebra("thin")
    for k in (2, 3, 5):
        witness, _ = check_tpa_window(thin, normal_form_product("thin_k", {"k": k}), 8)
        assert witness is None, k
    sol = make_algebra("solvable")
    for v in ("1", "2", "3"):
        witness, _ = check_tpa_window(sol, normal_form_product(f"solvable_{v}"), 8)
        assert witness is None, v


def test_nary_compatibility_residual():
    a4 = make_algebra("nary_simple", n=3)
    prod = ProductSpec(
        kind="table",
        name="e1-square",
        rule=lambda x, y: Element.basis(E(1))
        if x.degree2 == 2 and y.degree2 == 2
        else Element.zero(),
    )
    res = tpa_residual(a4, prod, E(1), (E(1), E(2), E(3)))
    assert res == Element.single(E(4), -1)
    zero = ProductSpec(kind="table", name="zero", rule=lambda x, y: Element.zero())
    assert tpa_residual(a4, zero, E(1), (E(1), E(2), E(3))).is_zero()
    with pytest.raises(ValueError):
        tpa_residual(a4, prod, E(1), (E(1), E(2)))


def _theta_rule(x, y):
    """A parity preserving product on svir: L*L = L, L*G = G*L = G, G*G = 0."""
    if x.family is Family.C or y.family is Family.C:
        return Element.zero()
    if x.parity and y.parity:
        return Element.zero()
    fam = Family.GPLUS if (x.parity ^ y.parity) else Family.L
    return Element.basis(bidx(fam, x.degree2 + y.degree2))


def test_super_residual_swap_law():
    # independent check of the Koszul branch: antisymmetry alone gives
    # residual(z, (y, x)) = -(-1)^{|x||y|} residual(z, (x, y))
    sv = make_algebra("svir", sector="neveu_schwarz")
    p = ProductSpec(kind="table", name="theta", rule=_theta_rule)
    srcs = sv.window_indices(3)
    rng = random.Random(5)
    hit_sign_branch = False
    for _ in range(60):
        z, x, y = (srcs[rng.randrange(len(srcs))] for _ in range(3))
        lhs = tpa_residual(sv, p, z, (y, x))
        rhs = tpa_residual(sv, p, z, (x, y))
        sign = -1 if not (x.parity and y.parity) else 1
        assert lhs == sign * rhs, (z, x, y)
        if z.parity and x.parity and not lhs.is_zero():
            hit_sign_branch = True
    assert hit_sign_branch


@pytest.mark.parametrize("sector", ["neveu_schwarz", "ramond"])
def test_super_poisson_residual_is_the_graded_rule(sector):
    # the right-handed graded Poisson rule, whose sign is (-1)^{|y||z|};
    # the product has G*G = L, so odd x, y and z reach every sign
    def rule(u, v):
        if Family.C in (u.family, v.family):
            return Element.zero()
        return Element.basis(bidx(Family.GPLUS if u.parity ^ v.parity else Family.L, u.degree2 + v.degree2))

    sv = make_algebra("svir", sector=sector)
    p = ProductSpec(kind="table", name="graded", rule=rule)
    signed = 0
    for x, y, z in iproduct(sv.window_indices(2), repeat=3):
        xz_y = product_eval(p, sv.bracket_basis((x, z)), y)
        graded = (
            sv.bracket(product_eval(p, x, y), Element.basis(z))
            - product_eval(p, x, sv.bracket_basis((y, z)))
            - xz_y.scale((-1) ** (y.parity * z.parity))
        )
        assert poisson_residual(sv, p, x, y, z) == graded, (x, y, z)
        signed += bool(y.parity and z.parity and not xz_y.is_zero())
    assert signed


@pytest.mark.parametrize("case", ["wab-fails", "svir-theta"])
def test_tpa_residual_is_multilinear_on_elements(case):
    if case == "wab-fails":
        alg = make_algebra("wab", a=1, b=0)
        p = parse_product_literal("mutation:w=L_1", alg)
    else:
        alg = make_algebra("svir", sector="neveu_schwarz")
        p = ProductSpec(kind="table", name="theta", rule=_theta_rule)
    srcs = alg.window_indices(2)
    rng = random.Random(12)

    def element():
        return Element({i: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for i in rng.sample(srcs, 3)})

    nonzero = 0
    for _ in range(15):
        z, x, y = element(), element(), element()
        expected = Element.zero()
        for (zt, zc), (xi, xc), (yj, yc) in iproduct(z.items(), x.items(), y.items()):
            basis = tpa_residual(alg, p, zt, (xi, yj))
            nonzero += not basis.is_zero()
            expected = expected + basis.scale(zc * xc * yc)
        assert tpa_residual(alg, p, z, (x, y)) == expected, (z, x, y)
    assert nonzero


@pytest.mark.parametrize(
    "name, params, product",
    [("witt", {}, "mutation:w=e_0"), ("wab", {"a": 0, "b": -1}, "mutation:w=L_1 - 2*I_0")],
)
def test_poisson_residual_is_multilinear_on_elements(name, params, product):
    alg = make_algebra(name, params)
    p = parse_product_literal(product, alg)
    srcs = alg.window_indices(2)
    rng = random.Random(21)

    def element():
        return Element({i: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) for i in rng.sample(srcs, 3)})

    nonzero = 0
    for _ in range(15):
        x, y, z = element(), element(), element()
        expected = Element.zero()
        for (xi, xc), (yj, yc), (zk, zc) in iproduct(x.items(), y.items(), z.items()):
            basis = poisson_residual(alg, p, xi, yj, zk)
            nonzero += not basis.is_zero()
            expected = expected + basis.scale(xc * yc * zc)
        assert poisson_residual(alg, p, x, y, z) == expected, (x, y, z)
    assert nonzero


def test_poisson_residual_frozen_examples():
    witt = make_algebra("witt")
    p = laurent_mutation("e_0")
    assert poisson_residual(witt, p, E(1), E(2), E(1)) == Element.basis(E(4))
    zero = laurent_mutation("0")
    assert poisson_residual(witt, zero, E(1), E(2), E(1)).is_zero()
    thin = make_algebra("thin")
    thin2 = normal_form_product("thin_k", {"k": 2})
    assert poisson_residual(thin, thin2, E(1), E(1), E(2)).is_zero()
    with pytest.raises(ValueError):
        poisson_residual(make_algebra("nary_simple", n=3), p, E(1), E(2), E(3))


def test_find_poisson_witness_order_and_existence():
    witt = make_algebra("witt")
    p = laurent_mutation("e_0")
    hit = find_poisson_witness(witt, p, 3)
    assert hit is not None
    witness, residual = hit
    assert residual == poisson_residual(witt, p, *witness)
    assert not residual.is_zero()
    # first-ness in the declared scan order
    for t in _sorted_triples(witt, 3):
        if t == witness:
            break
        assert poisson_residual(witt, p, *t).is_zero(), t

    assert find_poisson_witness(witt, laurent_mutation("0"), 3) is None
    thin = make_algebra("thin")
    assert find_poisson_witness(thin, normal_form_product("thin_k", {"k": 2}), 6) is not None
    sol = make_algebra("solvable")
    for v in ("1", "2", "3"):
        assert find_poisson_witness(sol, normal_form_product(f"solvable_{v}"), 6) is not None


def _sorted_triples(alg, window):
    """Every window triple in the reference witness order: one full sort by
    degree triple, then family triple."""
    return sorted(
        iproduct(alg.window_indices(window), repeat=3),
        key=lambda t: (tuple(i.degree2 for i in t), tuple(int(i.family) for i in t)),
    )


def _reference_witness(alg, p, window):
    for t in _sorted_triples(alg, window):
        if not (residual := poisson_residual(alg, p, *t)).is_zero():
            return t, residual
    return None


def _random_element(rng, families, span):
    el = Element.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice([c for c in range(-3, 4) if c])
        el = el + Element.single(bidx(rng.choice(families), 2 * rng.randint(-span, span)), Fraction(coeff))
    return el


def _witness_cases():
    """The claim-7 products, random witt and wab mutations, and the six
    table products, each with its algebra."""
    witt, thin, sol = make_algebra("witt"), make_algebra("thin"), make_algebra("solvable")
    laurent, extended = make_algebra("laurent"), make_algebra("extended_laurent")
    rng = random.Random(7)  # the claim-7 draw
    out = [(witt, mutation_product(laurent, _random_element(rng, (Family.E,), 3))) for _ in range(20)]
    ws = [_random_element(rng, (Family.L, Family.I), 2) for _ in range(8)]
    for a in (0, 1, 3, Fraction(-1, 2)):
        wab = make_algebra("wab", a=a, b=-1)
        out += [(wab, mutation_product(extended, w)) for w in ws]
    rng = random.Random(2010)
    for _ in range(20):
        out.append((witt, mutation_product(laurent, _random_element(rng, (Family.E,), 4))))
        wab = make_algebra("wab", a=Fraction(rng.randint(-4, 4), 2), b=Fraction(rng.randint(-4, 4), 2))
        out.append((wab, mutation_product(extended, _random_element(rng, (Family.L, Family.I), 4))))
    out += [(thin, normal_form_product("thin_k", {"k": k})) for k in (2, 3, 5)]
    out += [(sol, normal_form_product(f"solvable_{v}")) for v in (1, 2, 3)]
    return out


def test_find_poisson_witness_matches_sorted_reference():
    cases = _witness_cases()
    assert len(cases) == 98
    for alg, p in cases:
        assert find_poisson_witness(alg, p, 6) == _reference_witness(alg, p, 6), p.name


@pytest.mark.parametrize("name, params, window", [("witt", {}, 3), ("wab", {"a": 1, "b": -1}, 2), ("thin", {}, 4)])
def test_find_poisson_witness_scans_in_sorted_order(monkeypatch, name, params, window):
    """With every residual forced to zero the search visits all triples,
    in exactly the reference order."""
    from halfder import poisson

    alg = make_algebra(name, params)
    seen = []

    def record(alg, p, x, y, z):
        seen.append((x, y, z))
        return Element.zero()

    monkeypatch.setattr(poisson, "poisson_residual", record)
    # the product is never evaluated: record() stands in for the residual
    assert find_poisson_witness(alg, laurent_mutation("0"), window) is None
    assert seen == _sorted_triples(alg, window)


# ---------------------------------------------------------------------------
# right multiplications and closure


def test_right_mult_map_examples():
    witt = make_algebra("witt")
    p = laurent_mutation("e_0")
    r = right_mult_map(p, E(1), witt, 6)
    shift = closed_form_map("witt_shift_family", {1: 1}, witt, 6)
    assert all(r(s) == shift(s) for s in r.sources)
    for pair in in_window_pairs(witt, 6):
        assert delta_residual(witt, r, HALF, pair).is_zero()
    z = right_mult_map(p, Element.zero(), witt, 6)
    assert all(z(s).is_zero() for s in z.sources)
    sol = make_algebra("solvable")
    r3 = right_mult_map(normal_form_product("solvable_3"), E(1), sol, 6)
    assert all(r3(s) == Element.basis(s) for s in r3.sources)


def test_right_mult_maps_lie_in_solved_spaces():
    witt = make_algebra("witt")
    space = solve_stabilized(witt, HALF, window=6, shift=2)
    p = laurent_mutation("e_0 + 3*e_2")
    for z in (E(0), E(-2), E(1)):
        r = right_mult_map(p, z, witt, 6)
        shift2 = max((abs(t.degree2 - s.degree2) for s, img in r.images.items() for t in img.terms), default=0)
        if (shift2 + 1) // 2 <= 2:
            assert space.contains(r)
    r0 = right_mult_map(p, E(0), witt, 6)
    assert space.contains(r0)
    wab = make_algebra("wab", a=1, b=-1)
    wspace = solve_stabilized(wab, HALF, window=6, shift=2)
    q = extended_mutation("L_0 + 2*I_1")
    rw = right_mult_map(q, L(1), wab, 6)
    assert wspace.contains(rw)
    by_hand = [
        (s, closed_form_map("wab_even", {1: 1}, wab, 6)(s) + 2 * closed_form_map("wab_odd", {2: 1}, wab, 6)(s))
        for s in rw.sources
    ]
    assert all(rw(s) == img for s, img in by_hand)


def test_mutation_closure_examples():
    witt = make_algebra("witt")
    p = laurent_mutation("e_0")
    assert mutation_closure_check(witt, p, E(2), 4)
    assert mutation_closure_check(witt, p, Element.zero(), 4)
    q = laurent_mutation("e_1 + e_-1")
    assert mutation_closure_check(witt, q, E(1), 4)


def test_mutation_closure_preconditions():
    witt = make_algebra("witt")
    thin = make_algebra("thin")
    with pytest.raises(ValueError):
        mutation_closure_check(thin, normal_form_product("thin_k", {"k": 2}), E(1), 5)
    # a laurent mutation paired with the thin bracket is not compatible,
    # so the closure question about it is rejected
    p = mutation_product(make_algebra("laurent"), Element.basis(E(0)))
    with pytest.raises(ValueError):
        mutation_closure_check(thin, p, E(1), 5)
    assert mutation_closure_check(witt, p, E(1), 4)


# ---------------------------------------------------------------------------
# trivial spaces leave no room for products


def _random_symmetric_table(alg, srcs, rng):
    table = {}
    for i, x in enumerate(srcs):
        for y in srcs[i:]:
            if rng.random() < 0.25:
                img = Element(
                    {t: Fraction(rng.randint(-2, 2)) for t in rng.sample(srcs, 2)}
                )
                if not img.is_zero():
                    table[(x, y)] = img

    def rule(a, b):
        key = (a, b) if a <= b else (b, a)
        return table.get(key, Element.zero())

    return (table, ProductSpec(kind="table", name="random", rule=rule))


def test_trivial_space_excludes_nonzero_products():
    # where only scalar multiples of the identity are half-derivations, a
    # commutative product would need x*z = c x for every x, which symmetry
    # kills; so every nonzero random table must fail the right-mult test
    rng = random.Random(2)
    for name, W in (("sl2", None), ("schrodinger", None), ("virasoro", 6)):
        alg = make_algebra(name)
        if alg.is_finite:
            space = solve_stabilized(alg, HALF)
            srcs = sorted(alg.basis_list)
            window = len(srcs)
        else:
            space = solve_stabilized(alg, HALF, window=W, shift=2)
            srcs = alg.indices_in_degree2_range(-4, 4)
            window = W
        assert is_trivial_space(space)
        pairs = list(in_window_pairs(alg, window))
        found_products = 0
        while found_products < 8:
            table, p = _random_symmetric_table(alg, srcs, rng)
            if not table:
                continue
            found_products += 1
            failing = False
            for z in srcs:
                r = right_mult_map(p, z, alg, window)
                if any(not delta_residual(alg, r, HALF, pr).is_zero() for pr in pairs):
                    failing = True
                    break
            assert failing, (name, sorted((x.token, y.token) for x, y in table))


# ---------------------------------------------------------------------------
# product literals


def test_parse_product_literal():
    witt = make_algebra("witt")
    p = parse_product_literal("mutation:w=e_0+2*e_3", witt)
    assert p.kind == "mutation" and p.ambient.name == "laurent"
    assert product_eval(p, E(1), E(1)) == el("e_2 + 2*e_5")
    wab = make_algebra("wab", a=1, b=-1)
    q = parse_product_literal("mutation:w=L_0 - I_2", wab)
    assert q.ambient.name == "extended_laurent"
    thin = make_algebra("thin")
    t = parse_product_literal("table:thin_k:3", thin)
    assert t.name == "table:thin_k:3"
    sol = make_algebra("solvable")
    s = parse_product_literal("table:solvable:2", sol)
    assert s.name == "table:solvable:2"


def test_parse_product_literal_errors():
    witt = make_algebra("witt")
    thin = make_algebra("thin")
    for bad, alg in (
        ("mutation:e_0", witt),
        ("mutation:w=L_0", witt),
        ("mutation:w=e_0", make_algebra("virasoro")),
        ("table:thin_k:3", witt),
        ("table:thin_k:x", thin),
        ("table:thin_k:1", thin),
        ("table:thin_k", thin),
        ("table:solvable:7", make_algebra("solvable")),
        ("table:solvable:2", thin),
        ("table:junk:1", thin),
        ("bogus", witt),
    ):
        with pytest.raises(ValueError):
            parse_product_literal(bad, alg)
