"""Byte-for-byte gate on reported outputs.

tests/data/golden.json records, for a fixed set of commands and library
calls, the exact text the workbench reported when the file was written:
the JSON report and exit code of CLI runs, the JSON view of a stabilized
solve, and the structure tables of the finite algebras.  A refactor must
reproduce every entry exactly.

Regenerate the file (``python3 tests/test_golden.py``) only for a change
that is meant to alter a reported answer, and record that change.
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest

from halfder.algebras import direct_sum, finite_structure_json, make_algebra
from halfder.cli import emit_report, run_command
from halfder.solver import is_trivial_space, solve_stabilized, space_to_jsonable

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"

CLI_CASES = {
    # the seven criterion-12 commands
    "algebra-list": ["algebra-list"],
    "algebra-check:svir-ramond": ["algebra-check", "--algebra", "svir", "--param", "sector=ramond", "--window", "4"],
    "derive-solve:witt": ["derive-solve", "--algebra", "witt", "--window", "6", "--shift", "2"],
    "tpa-verify:witt": ["tpa-verify", "--algebra", "witt", "--product", "mutation:w=e_0+2*e_3", "--window", "5"],
    "tpa-witness:thin-k2": [
        "tpa-witness", "--algebra", "thin", "--product", "table:thin_k:2", "--window", "5", "--expect-witness",
    ],
    "tpa-normal-form:solvable-1": ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=1", "--window", "6"],
    "closure-check:witt": [
        "closure-check", "--algebra", "witt", "--product", "mutation:w=e_0", "--q", "e_2", "--window", "4",
    ],
    # solves
    "derive-solve:wab-0--1": [
        "derive-solve", "--algebra", "wab", "--param", "a=0", "--param", "b=-1", "--window", "6", "--shift", "2",
    ],
    "derive-solve:n2sca-ramond": [
        "derive-solve", "--algebra", "n2sca", "--param", "sector=ramond", "--window", "3", "--shift", "1",
    ],
    "derive-solve:n2sca-neveu-schwarz": [
        "derive-solve", "--algebra", "n2sca", "--param", "sector=neveu_schwarz", "--window", "3", "--shift", "1",
    ],
    "derive-solve:svir-ramond": [
        "derive-solve", "--algebra", "svir", "--param", "sector=ramond", "--window", "4", "--shift", "1",
    ],
    "derive-solve:sl2-delta-1": ["derive-solve", "--algebra", "sl2", "--delta", "1"],
    "derive-solve:nary3-delta-1/3": ["derive-solve", "--algebra", "nary_simple", "--param", "n=3", "--delta", "1/3"],
    # products
    "tpa-witness:wab": [
        "tpa-witness", "--algebra", "wab", "--param", "a=1", "--param", "b=-1",
        "--product", "mutation:w=L_1-2*I_0", "--window", "6", "--expect-witness",
    ],
    "tpa-witness:witt": [
        "tpa-witness", "--algebra", "witt", "--product", "mutation:w=e_-1+3*e_2", "--window", "6", "--expect-witness",
    ],
    "tpa-normal-form:thin-3": ["tpa-normal-form", "--algebra", "thin", "--param", "k=3", "--window", "6"],
    "tpa-normal-form:solvable-2": ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=2", "--window", "6"],
    "tpa-normal-form:solvable-3": ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=3", "--window", "6"],
    "tpa-verify:wab-fails": [
        "tpa-verify", "--algebra", "wab", "--param", "a=1", "--param", "b=0", "--product", "mutation:w=L_1", "--window", "3",
    ],
    "algebra-check:nary3": ["algebra-check", "--algebra", "nary_simple", "--param", "n=3"],
}

FINITE_ALGEBRAS = {
    "sl2": ("sl2", {}),
    "heisenberg": ("heisenberg", {}),
    "schrodinger": ("schrodinger", {}),
    "nary_simple-3": ("nary_simple", {"n": 3}),
    "nary_simple-4": ("nary_simple", {"n": 4}),
}


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _cli(argv) -> dict:
    code, report = run_command(argv + ["--format", "json"])
    return {"code": code, "text": None if report is None else emit_report(report)}


def _thin_space() -> dict:
    space = solve_stabilized(make_algebra("thin"), Fraction(1, 2), window=12, shift=3)
    return {"text": _dump(space_to_jsonable(space, is_trivial_space(space)))}


def _structure(name, params) -> dict:
    return {"text": _dump(finite_structure_json(make_algebra(name, params)))}


def _sl2_pair() -> dict:
    pair = direct_sum(make_algebra("sl2"), make_algebra("sl2"))
    return {"text": _dump(finite_structure_json(pair))}


def _cases() -> dict:
    cases = {f"cli:{name}": (_cli, (argv,)) for name, argv in CLI_CASES.items()}
    cases["space:thin-12-3"] = (_thin_space, ())
    for name, (alg, params) in FINITE_ALGEBRAS.items():
        cases[f"structure:{name}"] = (_structure, (alg, params))
    cases["structure:sl2+sl2"] = (_sl2_pair, ())
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(golden, name):
    fn, args = CASES[name]
    assert fn(*args) == golden[name]


if __name__ == "__main__":
    out = {name: fn(*args) for name, (fn, args) in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}", file=sys.stderr)
