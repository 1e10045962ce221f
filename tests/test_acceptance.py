"""End-to-end gate for the workbench.

One test per numbered claim; every value is checked in exact rational
arithmetic and each test prints a single pass/fail line (visible under
pytest -s, mirrored by the -v test status).

 1. bracket identities vanish on every ordered window-6 basis tuple of
    every built-in algebra, both sectors of the super pairs, and the
    3-ary and 4-ary simple algebras exhaustively, in under 30 s
 2. the stabilized half-derivation space of witt at (window 8, shift 2)
    has dimension exactly 5 and contains all five shift maps, under 10 s
 3. virasoro keeps only the scalar maps there
 4. wab has dimension 1 at four generic (a, b) points and dimension 10
    at four points with b = -1, where every even and odd closed-form
    generator lies in the solved span
 5. finite no-gos: sl2, sl2 + sl2, schrodinger, osp(1|2), and the 3-ary
    simple algebra at delta = 1/3; sl2 and osp(1|2) at delta = 1 give the
    full derivation spaces, of dimensions 3 and 5, cross-checked against
    inner (super)derivations, and osp(1|2) has none at delta = -1 or 0;
    each solve finishes in under 5 s
 6. super no-gos: svir and n2sca, both sectors, stabilize to dimension 1
    at (window 6, shift 2)
 7. the transposed compatibility law holds on every window-5 triple for
    twenty seeded Laurent mutations of witt and eight seeded extended
    mutations on wab at four values of a with b = -1, and on every
    window-10 triple for thin_k with k in {2, 3, 5} and the three
    solvable variants, in under 60 s
 8. every nonzero product from claim 7 admits a classical Leibniz
    defect witness within window 6
 9. right multiplication by any window element of any claim-7 product
    passes the half-derivation test on every in-window pair
10. mutating a working witt mutation by ten seeded elements q keeps the
    compatibility law intact
11. the stabilized thin space at (window 12, shift 3) excludes the
    candidate family whenever beta_1 != 0 and admits it when beta_1 = 0
12. every CLI verb reports byte-identical JSON when run twice
"""

import itertools
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement as cwr

import pytest

from halfder.algebras import identity_residual, make_algebra
from halfder.basis import Family, bidx
from halfder.candidates import closed_form_map
from halfder.catalogue import ALGEBRA_NAMES
from halfder.cli import run_command
from halfder.core import render
from halfder.element import Element
from halfder.maps import LinMapWindow, delta_residual
from halfder.poisson import (
    check_tpa_window,
    find_poisson_witness,
    mutation_closure_check,
    poisson_residual,
    right_mult_map,
)
from halfder.products import ambient_for, mutation_product, normal_form_product
from halfder.report import emit_report
from halfder.solver import is_trivial_space, solve_delta_derivations, solve_stabilized, space_to_jsonable
from halfder.tables import direct_sum
from test_solver import osp12

HALF = Fraction(1, 2)

# one instance per built-in name; both sectors for the super pairs and
# both small arities for the n-ary family
IDENTITY_INSTANCES = (
    ("witt", {}),
    ("laurent", {}),
    ("wab", {"a": 1, "b": 2}),
    ("virasoro", {}),
    ("svir", {"sector": "ramond"}),
    ("svir", {"sector": "neveu_schwarz"}),
    ("n2sca", {"sector": "ramond"}),
    ("n2sca", {"sector": "neveu_schwarz"}),
    ("thin", {}),
    ("solvable", {}),
    ("extended_laurent", {}),
    ("sl2", {}),
    ("heisenberg", {}),
    ("schrodinger", {}),
    ("nary_simple", {"n": 3}),
    ("nary_simple", {"n": 4}),
)


def random_window_element(rng, families, span):
    """One to three basis terms with small nonzero integer coefficients."""
    el = Element.zero()
    for _ in range(rng.randint(1, 3)):
        fam = rng.choice(families)
        deg = rng.randint(-span, span)
        coeff = rng.choice([c for c in range(-3, 4) if c])
        el = el + Element.single(bidx(fam, 2 * deg), Fraction(coeff))
    return el


@pytest.fixture(scope="module")
def seeded_products():
    """The claim-7 product list: (algebra, product, window, nonzero)."""
    rng = random.Random(7)
    out = []
    witt = make_algebra("witt")
    laurent = ambient_for(witt)
    for _ in range(20):
        w = random_window_element(rng, (Family.E,), 3)
        out.append((witt, mutation_product(laurent, w), 5, not w.is_zero()))
    extended = ambient_for(make_algebra("wab", a=0, b=-1))
    ws = [random_window_element(rng, (Family.L, Family.I), 2) for _ in range(8)]
    for a in (0, 1, 3, Fraction(-1, 2)):
        alg = make_algebra("wab", a=a, b=-1)
        for w in ws:
            out.append((alg, mutation_product(extended, w), 5, not w.is_zero()))
    thin = make_algebra("thin")
    for k in (2, 3, 5):
        out.append((thin, normal_form_product("thin_k", {"k": k}), 10, True))
    solvable = make_algebra("solvable")
    for variant in (1, 2, 3):
        out.append((solvable, normal_form_product(f"solvable_{variant}"), 10, True))
    return out


def test_criterion_01_defining_identities():
    assert {name for name, _ in IDENTITY_INSTANCES} == set(ALGEBRA_NAMES)
    t0 = time.perf_counter()
    checked = 0
    for name, kwargs in IDENTITY_INSTANCES:
        alg = make_algebra(name, **kwargs)
        srcs = alg.window_indices(None if alg.is_finite else 6)
        n = alg.arity
        for xs in itertools.product(srcs, repeat=n - 1):
            for ys in itertools.product(srcs, repeat=n):
                residual = identity_residual(alg, xs + ys)
                assert residual.is_zero(), (alg.display, xs, ys, render(residual))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"identity scan took {elapsed:.1f}s"
    print(
        f"criterion 1: PASS - {checked} identity residuals vanish across "
        f"{len(IDENTITY_INSTANCES)} algebra instances in {elapsed:.1f}s"
    )


def test_criterion_02_witt_half_derivations():
    t0 = time.perf_counter()
    witt = make_algebra("witt")
    space = solve_stabilized(witt, HALF, window=8, shift=2)
    assert space.stable
    assert space.dimension == 5
    for k in range(-2, 3):
        shift_map = closed_form_map("witt_shift_family", {k: 1}, witt, 8)
        assert space.contains(shift_map), f"shift by {k} not in span"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"witt solve took {elapsed:.1f}s"
    print(
        "criterion 2: PASS - witt space at (8, 2) has dimension 5 and "
        f"contains all five shift maps in {elapsed:.1f}s"
    )


def test_criterion_03_virasoro_no_go():
    space = solve_stabilized(make_algebra("virasoro"), HALF, window=8, shift=2)
    assert space.stable
    assert space.dimension == 1
    assert is_trivial_space(space)
    print("criterion 3: PASS - virasoro space at (8, 2) is exactly the scalar line")


def test_criterion_04_wab_dichotomy():
    for a, b in ((0, 0), (1, 2), (-2, 3), (Fraction(1, 2), 5)):
        alg = make_algebra("wab", a=a, b=b)
        space = solve_stabilized(alg, HALF, window=6, shift=2)
        assert space.stable
        assert space.dimension == 1, (a, b, space.dimension)
        assert is_trivial_space(space)
    for a in (1, 0, 3, Fraction(-1, 2)):
        alg = make_algebra("wab", a=a, b=-1)
        space = solve_stabilized(alg, HALF, window=6, shift=2)
        assert space.stable
        assert space.dimension == 10, (a, space.dimension)
        for t in range(-2, 3):
            even = closed_form_map("wab_even", {t: 1}, alg, 6)
            odd = closed_form_map("wab_odd", {t: 1}, alg, 6)
            assert space.contains(even), (a, "even", t)
            assert space.contains(odd), (a, "odd", t)
    print(
        "criterion 4: PASS - wab dimension 1 at four generic points, "
        "dimension 10 with all closed-form generators in span at b = -1"
    )


def test_criterion_05_finite_no_gos():
    cases = []
    sl2 = make_algebra("sl2")
    cases.append(("sl2", sl2, HALF, 1))
    cases.append(("sl2+sl2", direct_sum(sl2, sl2), HALF, 2))
    cases.append(("schrodinger", make_algebra("schrodinger"), HALF, 1))
    cases.append(("A4 at 1/3", make_algebra("nary_simple", n=3), Fraction(1, 3), 1))
    cases.append(("sl2 at 1", sl2, Fraction(1), 3))
    osp = osp12()
    # the super-Jacobi identity on every ordered triple
    assert not any(identity_residual(osp, t) for t in itertools.product(osp.basis_list, repeat=3))
    cases.append(("osp(1|2)", osp, HALF, 1))
    cases.append(("osp(1|2) at 1", osp, Fraction(1), 5))
    cases.append(("osp(1|2) at -1", osp, Fraction(-1), 0))
    cases.append(("osp(1|2) at 0", osp, Fraction(0), 0))
    for label, alg, delta, expected in cases:
        t0 = time.perf_counter()
        space = solve_delta_derivations(alg, delta, None, None)
        elapsed = time.perf_counter() - t0
        assert space.dimension == expected, (label, space.dimension)
        if expected == 1:
            assert is_trivial_space(space)
        assert elapsed < 5.0, f"{label} took {elapsed:.1f}s"
    # ad_x of an odd x is an odd superderivation
    for alg in (sl2, osp):
        derivations = solve_delta_derivations(alg, Fraction(1), None, None)
        srcs = alg.window_indices(None)
        for x in srcs:
            inner = LinMapWindow(alg, srcs, {s: alg.bracket_basis((x, s)) for s in srcs})
            assert derivations.contains(inner), f"ad_{x.token} not a derivation of {alg.name}"
    print(
        "criterion 5: PASS - finite spaces have dimensions 1, 2, 1, 1, 1 at "
        "delta = 1/2 resp. 1/3, and sl2 and osp(1|2) at delta = 1 are spanned by inner derivations"
    )


def test_criterion_06_super_no_gos():
    for name in ("svir", "n2sca"):
        for sector in ("ramond", "neveu_schwarz"):
            alg = make_algebra(name, sector=sector)
            space = solve_stabilized(alg, HALF, window=6, shift=2)
            assert space.stable, (name, sector)
            assert space.dimension == 1, (name, sector, space.dimension)
            assert is_trivial_space(space)
    print(
        "criterion 6: PASS - svir and n2sca stabilize to the scalar line "
        "in both sectors at (6, 2)"
    )


def test_criterion_07_transposed_compatibility(seeded_products):
    t0 = time.perf_counter()
    total = 0
    for alg, product, window, _ in seeded_products:
        witness, checked = check_tpa_window(alg, product, window)
        assert witness is None, (alg.display, product.name, witness)
        total += checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"compatibility sweep took {elapsed:.1f}s"
    print(
        f"criterion 7: PASS - {total} compatibility residuals vanish over "
        f"{len(seeded_products)} seeded products in {elapsed:.1f}s"
    )


def test_criterion_08_poisson_witnesses(seeded_products):
    found = 0
    for alg, product, _, nonzero in seeded_products:
        if not nonzero:
            continue
        hit = find_poisson_witness(alg, product, 6)
        assert hit is not None, (alg.display, product.name)
        (x, y, z), residual = hit
        assert residual == poisson_residual(alg, product, x, y, z)
        assert not residual.is_zero(), (x.token, y.token, z.token)
        found += 1
    assert found > 0
    print(
        f"criterion 8: PASS - all {found} nonzero products break the "
        "classical Leibniz rule within window 6"
    )


def test_criterion_09_right_multiplication(seeded_products):
    checked = 0
    for alg, product, window, _ in seeded_products:
        srcs = alg.window_indices(window)
        in_window = set(srcs)
        pairs = [
            t
            for t in cwr(srcs, 2)
            if all(i in in_window for i in alg.bracket_basis(t).support())
        ]
        for z in srcs:
            mul_z = right_mult_map(product, z, alg, window)
            for t in pairs:
                residual = delta_residual(alg, mul_z, HALF, t)
                assert residual.is_zero(), (alg.display, product.name, z.token, t)
                checked += 1
    print(
        f"criterion 9: PASS - {checked} right-multiplication residuals vanish "
        "at delta = 1/2"
    )


def test_criterion_10_mutation_closure():
    rng = random.Random(10)
    witt = make_algebra("witt")
    laurent = ambient_for(witt)
    for _ in range(10):
        w = random_window_element(rng, (Family.E,), 2)
        q = random_window_element(rng, (Family.E,), 2)
        product = mutation_product(laurent, w)
        assert mutation_closure_check(witt, product, q, 4), (render(w), render(q))
    print("criterion 10: PASS - ten seeded witt mutations stay compatible after mutation by q")


def test_criterion_11_thin_constraint_discovery():
    thin = make_algebra("thin")
    space = solve_stabilized(thin, HALF, window=12, shift=3)
    assert space.stable
    bad = closed_form_map(
        "thin_candidate", {"alpha": {}, "beta": {1: 1}}, thin, 12
    )
    assert not space.contains(bad), "candidate with beta_1 != 0 wrongly admitted"
    good = closed_form_map(
        "thin_candidate", {"alpha": {1: 2}, "beta": {2: -1}}, thin, 12
    )
    assert space.contains(good), "candidate with beta_1 = 0 wrongly excluded"
    print(
        "criterion 11: PASS - thin space at (12, 3) forces beta_1 = 0 "
        "in the candidate family"
    )


CLI_COMMANDS = (
    ["algebra-list"],
    ["algebra-check", "--algebra", "svir", "--param", "sector=ramond", "--window", "4"],
    ["derive-solve", "--algebra", "witt", "--window", "6", "--shift", "2"],
    ["tpa-verify", "--algebra", "witt", "--product", "mutation:w=e_0+2*e_3", "--window", "5"],
    [
        "tpa-witness",
        "--algebra",
        "thin",
        "--product",
        "table:thin_k:2",
        "--window",
        "5",
        "--expect-witness",
    ],
    ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=1", "--window", "6"],
    ["closure-check", "--algebra", "witt", "--product", "mutation:w=e_0", "--q", "e_2", "--window", "4"],
)


def test_criterion_12_determinism():
    verbs = {argv[0] for argv in CLI_COMMANDS}
    assert verbs == {
        "algebra-list",
        "algebra-check",
        "derive-solve",
        "tpa-verify",
        "tpa-witness",
        "tpa-normal-form",
        "closure-check",
    }
    for argv in CLI_COMMANDS:
        full = argv + ["--format", "json"]
        code_a, report_a = run_command(full)
        code_b, report_b = run_command(full)
        assert report_a is not None and report_b is not None
        assert code_a == code_b
        text_a = emit_report(report_a)
        text_b = emit_report(report_b)
        assert text_a == text_b, f"nondeterministic output for {argv[0]}"
    witt = make_algebra("witt")
    snap_a = space_to_jsonable(solve_stabilized(witt, HALF, window=6, shift=2), True)
    snap_b = space_to_jsonable(solve_stabilized(witt, HALF, window=6, shift=2), True)
    assert snap_a == snap_b
    print("criterion 12: PASS - every verb and a repeated solve are byte-identical")
