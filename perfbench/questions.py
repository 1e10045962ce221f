"""Seeded benchmark questions, each paired with its known answer.

Every expected answer below is a fact stated by the source paper
(arXiv:2010.00443) or by Bai, Bai, Guo and Wu, "Transposed Poisson
algebras" (arXiv:2005.01110).  Nothing here imports halfder, so the oracle
does not trust the code it times:

* the stabilized 1/2-derivation space is the scalar line (dimension 1) for
  svir, n2sca, virasoro and W(a, b) with b != -1;
* on witt at shift S it has dimension 2S + 1 and holds every shift map;
* on W(a, -1) at shift 2 it has dimension 10 and holds every even and odd
  generator;
* on thin, the candidate family is admitted iff beta_1 = 0;
* the finite classics give 1 (sl2), 2 (sl2 + sl2), 1 (schrodinger) and
  1 (the 3-ary simple algebra at delta 1/3), and sl2 at delta 1 gives 3;
* every Laurent mutation of witt and every extended mutation of W(a, -1)
  is a transposed Poisson structure, and so is its mutation by any q;
* the normal-form table products are transposed Poisson structures;
* every nonzero such product breaks the classical Leibniz rule, with a
  witness inside window 6.

The generator takes a seed; the same seed gives the same questions in the
same order.  A seed changes the seeded inputs and the order, never the
number of questions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("solve-super", "solve-family", "scan")


@dataclass
class Question:
    """One question: a CLI argv or a library solve, with its known answer.

    kind "cli": argv is run through run_command and emit_report; expect
    holds the exit code, the status and report fields that must match.
    kind "solve": spec names the algebra, delta, window and shift, and the
    closed-form maps to test for membership; expect holds the dimension,
    whether the space is the scalar line, and each membership answer.
    """

    label: str
    kind: str
    argv: tuple = ()
    spec: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def generate(workload: str, seed: int, tiny: bool = False) -> list[Question]:
    """The workload's question list for a seed, shuffled by the same seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    build = {"solve-super": _solve_super, "solve-family": _solve_family, "scan": _scan}[workload]
    questions = build(rng, tiny)
    rng.shuffle(questions)
    return questions


# ---------------------------------------------------------------------------
# elements and coefficients


def _element(terms: list[tuple[int, str]]) -> str:
    """Element text in the halfder grammar from (coefficient, token) pairs."""
    out = ""
    for coeff, token in terms:
        piece = token if abs(coeff) == 1 else f"{abs(coeff)}*{token}"
        if not out:
            out = f"-{piece}" if coeff < 0 else piece
        else:
            out += f" - {piece}" if coeff < 0 else f" + {piece}"
    return out


def _coeff(rng) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _rational(rng) -> Fraction:
    return Fraction(_coeff(rng), rng.choice((1, 2)))


def _terms(rng, families: tuple[str, ...], span: int) -> str:
    """A nonzero element with one term from each family, of degree in [-span, span].

    Distinct families never cancel, so every seed gives a nonzero element
    with the same number of terms, and questions cost about the same.
    """
    degrees = [rng.randint(-span, span) for _ in families]
    return _element([(_coeff(rng), f"{f}_{d}") for f, d in zip(families, degrees)])


def _two_laurent_terms(rng, span: int) -> str:
    """A nonzero Laurent element a*e_i + b*e_j with i < j in [-span, span]."""
    i, j = sorted(rng.sample(range(-span, span + 1), 2))
    return _element([(_coeff(rng), f"e_{i}"), (_coeff(rng), f"e_{j}")])


# ---------------------------------------------------------------------------
# workloads


def _derive_solve(algebra: str, params: dict, window: int, shift: int) -> Question:
    argv = ["derive-solve", "--algebra", algebra]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    argv += ["--window", str(window), "--shift", str(shift), "--format", "json"]
    label = f"derive-solve {algebra} {params} ({window}, {shift})"
    fields = {"dimension": 1, "stable": True, "trivial_only": True}
    return Question(label, "cli", tuple(argv), expect={"code": 0, "status": "pass", "fields": fields})


def _solve_super(rng, tiny: bool) -> list[Question]:
    # the seed only orders these: their inputs are the fixed criterion-6 shapes
    sectors = ("ramond", "neveu_schwarz")
    if tiny:
        sizes = [("svir", 3, 1), ("svir", 4, 1)]
    else:
        sizes = [("n2sca", 2, 1), ("n2sca", 3, 1), ("svir", 6, 2)]
    return [_derive_solve(name, {"sector": s}, w, shift) for name, w, shift in sizes for s in sectors]


def _solve(label, algebra, params=None, delta=Fraction(1, 2), window=None, shift=None,
           dimension=None, members=(), pair=False) -> Question:
    spec = {
        "algebra": algebra,
        "params": dict(params or {}),
        "pair": pair,
        "delta": delta,
        "window": window,
        "shift": shift,
        "members": [(family, coeffs) for family, coeffs, _ in members],
    }
    expect = {
        "dimension": dimension,
        "trivial": None if dimension is None else dimension == 1,
        "members": [answer for _, _, answer in members],
    }
    return Question(label, "solve", spec=spec, expect=expect)


def _witt(window: int, shift: int) -> Question:
    members = [("witt_shift_family", {k: 1}, True) for k in range(-shift, shift + 1)]
    return _solve(f"witt ({window}, {shift})", "witt", window=window, shift=shift,
                  dimension=2 * shift + 1, members=members)


def _thin(rng, window: int, shift: int) -> Question:
    # beta_1 = 0: a combination of the identity and the diagonal candidate
    good = {"alpha": {1: _rational(rng)}, "beta": {2: _rational(rng)}}
    # beta_1 != 0 on top of an admitted map is still excluded
    bad = {"alpha": {1: _rational(rng)}, "beta": {1: _rational(rng), 2: _rational(rng)}}
    members = [("thin_candidate", good, True), ("thin_candidate", bad, False)]
    return _solve(f"thin ({window}, {shift})", "thin", window=window, shift=shift, members=members)


def _solve_family(rng, tiny: bool) -> list[Question]:
    # odd halves only: every seeded point has the same denominators, so the
    # Fraction work per question does not depend on the seed
    halves = [Fraction(p, 2) for p in (-7, -5, -3, -1, 1, 3, 5, 7)]
    if tiny:
        out = [_witt(4, 1), _thin(rng, 6, 2)]
        wab_window, wab_shift, wab_count = 4, 1, 2
    else:
        out = [_witt(8, 2), _witt(10, 3), _thin(rng, 12, 3)]
        out.append(_solve("virasoro (8, 2)", "virasoro", window=8, shift=2, dimension=1))
        wab_window, wab_shift, wab_count = 6, 2, 6
    for a in rng.sample(halves, wab_count):
        b = rng.choice(halves)
        out.append(_solve(f"wab a={a} b={b}", "wab", {"a": a, "b": b},
                          window=wab_window, shift=wab_shift, dimension=1))
    generators = [
        (family, {t: 1}, True)
        for family in ("wab_even", "wab_odd")
        for t in range(-wab_shift, wab_shift + 1)
    ]
    for a in rng.sample(halves, wab_count):
        out.append(_solve(f"wab a={a} b=-1", "wab", {"a": a, "b": -1}, window=wab_window,
                          shift=wab_shift, dimension=len(generators), members=generators))
    out += [
        _solve("sl2", "sl2", dimension=1),
        _solve("sl2+sl2", "sl2", pair=True, dimension=2),
    ]
    if not tiny:
        out += [
            _solve("schrodinger", "schrodinger", dimension=1),
            _solve("nary_simple n=3 at 1/3", "nary_simple", {"n": 3}, delta=Fraction(1, 3), dimension=1),
            _solve("sl2 at 1", "sl2", delta=Fraction(1), dimension=3),
        ]
    return out


def _cli(label, argv, status="pass", witness=False) -> Question:
    return Question(label, "cli", tuple(argv),
                    expect={"code": 0, "status": status, "fields": {}, "witness": witness})


def _scan(rng, tiny: bool) -> list[Question]:
    n_witt, n_ext, n_closure = (2, 1, 1) if tiny else (20, 8, 10)
    verify_window, ext_window, witness_window, table_window, closure_window = (
        (3, 2, 3, 4, 2) if tiny else (5, 4, 6, 10, 4)
    )
    out = []
    checks = [("svir", {"sector": "ramond"}, 2)] if tiny else [
        ("n2sca", {"sector": "ramond"}, 4),
        ("n2sca", {"sector": "neveu_schwarz"}, 4),
        ("nary_simple", {"n": 4}, 4),
    ]
    for algebra, params, window in checks:
        argv = ["algebra-check", "--algebra", algebra]
        for key, value in params.items():
            argv += ["--param", f"{key}={value}"]
        argv += ["--window", str(window), "--format", "json"]
        out.append(_cli(f"algebra-check {algebra} {params}", argv))

    # (algebra argv, product literal, verify window) for every nonzero mutation
    products = []
    for _ in range(n_witt):
        w = _two_laurent_terms(rng, 3)
        products.append((["--algebra", "witt"], f"mutation:w={w}", verify_window))
    ws = [_terms(rng, ("L", "I"), 2) for _ in range(n_ext)]
    for a in ("0", "1", "3", "-1/2"):
        for w in ws:
            products.append(
                (["--algebra", "wab", "--param", f"a={a}", "--param", "b=-1"], f"mutation:w={w}", ext_window)
            )
    for algebra_argv, literal, window in products:
        argv = ["tpa-verify", *algebra_argv, f"--product={literal}", "--window", str(window), "--format", "json"]
        out.append(_cli(f"tpa-verify {' '.join(algebra_argv[1:])} {literal}", argv))

    tables = [(["--algebra", "thin"], f"table:thin_k:{k}", ["--param", f"k={k}"]) for k in (2, 3, 5)]
    tables += [(["--algebra", "solvable"], f"table:solvable:{v}", ["--param", f"variant={v}"]) for v in (1, 2, 3)]
    for algebra_argv, literal, _ in products + tables:
        argv = ["tpa-witness", *algebra_argv, f"--product={literal}", "--window", str(witness_window),
                "--expect-witness", "--format", "json"]
        out.append(_cli(f"tpa-witness {' '.join(algebra_argv[1:])} {literal}", argv,
                        status="witness-found", witness=True))
    for algebra_argv, literal, params in tables:
        argv = ["tpa-normal-form", *algebra_argv, *params, "--window", str(table_window), "--format", "json"]
        out.append(_cli(f"tpa-normal-form {literal}", argv))

    for _ in range(n_closure):
        w, q = _two_laurent_terms(rng, 2), _terms(rng, ("e",), 2)
        argv = ["closure-check", "--algebra", "witt", f"--product=mutation:w={w}", f"--q={q}",
                "--window", str(closure_window), "--format", "json"]
        out.append(_cli(f"closure-check w={w} q={q}", argv))
    return out
