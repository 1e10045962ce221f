import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from halfder.cli import main, run_command
from halfder.report import emit_report

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return run_command(args)


def test_algebra_list():
    code, report = run(["algebra-list"])
    assert code == 0 and report.status == "none"
    assert len(report.payload["algebras"]) == 13
    names = [a["name"] for a in report.payload["algebras"]]
    assert "witt" in names and "nary_simple" in names
    text = emit_report(report)
    assert "witt" in text


def test_algebra_check_passes_builtins():
    for args in (
        ["algebra-check", "--algebra", "witt", "--window", "5"],
        ["algebra-check", "--algebra", "svir", "--param", "sector=ramond", "--window", "3"],
        ["algebra-check", "--algebra", "nary_simple", "--param", "n=3"],
        ["algebra-check", "--algebra", "schrodinger"],
    ):
        code, report = run(args)
        assert code == 0 and report.status == "pass", args
        assert report.payload["antisymmetry_checked"] > 0
        assert report.payload["identity_checked"] > 0


def test_derive_solve_virasoro_example():
    code, report = run(
        [
            "derive-solve",
            "--algebra",
            "virasoro",
            "--delta",
            "1/2",
            "--window",
            "8",
            "--shift",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert report.payload["dimension"] == 1
    assert report.payload["trivial_only"] is True
    doc = json.loads(emit_report(report))
    assert doc["dimension"] == 1 and doc["status"] == "pass"


def test_derive_solve_finite_and_witt():
    code, report = run(["derive-solve", "--algebra", "sl2", "--delta", "1"])
    assert code == 0 and report.payload["dimension"] == 3
    code, report = run(
        ["derive-solve", "--algebra", "witt", "--window", "6", "--shift", "2"]
    )
    assert code == 0 and report.payload["dimension"] == 5
    assert report.payload["trivial_only"] is False
    assert report.payload["residuals_checked"] > 0


def test_tpa_verify_examples():
    code, report = run(
        ["tpa-verify", "--algebra", "witt", "--product", "mutation:w=e_0+2*e_3", "--window", "5"]
    )
    assert code == 0 and report.status == "pass"
    text = emit_report(report)
    assert "PASS" in text and str(report.payload["tuples_checked"]) in text

    code, report = run(
        [
            "tpa-verify",
            "--algebra",
            "wab",
            "--param",
            "a=0",
            "--param",
            "b=2",
            "--product",
            "mutation:w=L_0",
            "--window",
            "3",
        ]
    )
    assert code == 1 and report.status == "fail"
    assert "witness" in report.payload


def test_tpa_witness_exit_semantics():
    base = ["tpa-witness", "--algebra", "witt", "--product", "mutation:w=e_0", "--window", "4"]
    code, report = run(base + ["--expect-witness"])
    assert code == 0 and report.status == "witness-found"
    w = report.payload["witness"]
    assert set(w) == {"triple", "residual"} and len(w["triple"]) == 3
    code, report = run(base)
    assert code == 1 and report.status == "witness-found"

    none_cmd = ["tpa-witness", "--algebra", "witt", "--product", "mutation:w=0", "--window", "3"]
    code, report = run(none_cmd)
    assert code == 0 and report.status == "none"
    code, report = run(none_cmd + ["--expect-witness"])
    assert code == 1 and report.status == "none"


def test_tpa_normal_form():
    code, report = run(
        ["tpa-normal-form", "--algebra", "thin", "--param", "k=3", "--window", "6"]
    )
    assert code == 0 and report.status == "pass"
    assert {"x": "e_1", "y": "e_1", "value": "e_3"} in report.payload["table"]
    code, report = run(
        ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=2", "--window", "6"]
    )
    assert code == 0 and report.status == "pass"


def test_tpa_normal_form_usage_errors_name_the_param(capsys):
    for param, message in (
        ("variant=9", "tpa-normal-form on solvable takes exactly --param variant=<1|2|3>"),
        ("variant=0", "tpa-normal-form on solvable takes exactly --param variant=<1|2|3>"),
        ("k=1", "thin_k needs an integer k >= 2"),
    ):
        algebra = "thin" if param.startswith("k") else "solvable"
        code, report = run(["tpa-normal-form", "--algebra", algebra, "--param", param])
        assert (code, report) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"


def test_closure_check():
    code, report = run(
        ["closure-check", "--algebra", "witt", "--product", "mutation:w=e_0", "--q", "e_2", "--window", "4"]
    )
    assert code == 0 and report.status == "pass"
    # a base product that is not compatible cannot be mutated further
    code, report = run(
        [
            "closure-check",
            "--algebra",
            "wab",
            "--param",
            "a=0",
            "--param",
            "b=2",
            "--product",
            "mutation:w=L_0",
            "--q",
            "L_1",
            "--window",
            "3",
        ]
    )
    assert code == 1 and report.status == "fail"
    assert "error" in report.payload


def test_usage_errors_exit_2():
    for args in (
        ["derive-solve", "--algebra", "bogus"],
        ["derive-solve", "--algebra", "witt", "--delta", "x"],
        ["derive-solve", "--algebra", "witt", "--window", "2", "--shift", "5"],
        ["derive-solve", "--algebra", "wab"],  # missing a, b
        ["derive-solve", "--algebra", "witt", "--param", "a=1"],
        ["derive-solve", "--algebra", "witt", "--param", "junk=1"],
        ["derive-solve", "--algebra", "witt", "--param", "a"],
        ["algebra-check", "--algebra", "svir", "--param", "sector=weird"],
        ["tpa-verify", "--algebra", "witt", "--product", "bogus"],
        ["tpa-verify", "--algebra", "witt", "--product", "mutation:w=L_0"],
        ["tpa-verify", "--algebra", "virasoro", "--product", "mutation:w=e_0"],
        ["tpa-normal-form", "--algebra", "witt", "--param", "k=2"],
        ["tpa-normal-form", "--algebra", "thin", "--param", "k=1"],
        ["tpa-normal-form", "--algebra", "thin"],
        ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=9"],
        ["closure-check", "--algebra", "thin", "--product", "table:thin_k:2", "--q", "e_1"],
        ["closure-check", "--algebra", "witt", "--product", "mutation:w=e_0", "--q", "L_1"],
    ):
        code, report = run(args)
        assert code == 2 and report is None, args
    code, report = run(["no-such-verb"])
    assert code == 2 and report is None
    code, report = run([])
    assert code == 2 and report is None


def test_json_round_trip_and_determinism():
    cmd = [
        "derive-solve",
        "--algebra",
        "wab",
        "--param",
        "a=1",
        "--param",
        "b=-1",
        "--window",
        "5",
        "--shift",
        "2",
        "--format",
        "json",
    ]
    _, first = run(cmd)
    _, second = run(cmd)
    s1, s2 = emit_report(first), emit_report(second)
    assert s1 == s2
    assert json.dumps(json.loads(s1), sort_keys=True, indent=2) == s1
    assert json.loads(s1)["dimension"] == 10

    t1 = emit_report(first, "text")
    t2 = emit_report(second, "text")
    assert t1 == t2


def test_seed_flag_accepted():
    code, report = run(["algebra-list", "--seed", "7"])
    assert code == 0
    code, report = run(
        ["tpa-verify", "--algebra", "witt", "--product", "mutation:w=e_0", "--window", "3", "--seed", "3"]
    )
    assert code == 0


def test_main_prints_report_and_timing(capsys):
    code = main(["algebra-check", "--algebra", "sl2", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "PASS" in out
    assert "elapsed" in err
    code = main(["derive-solve", "--algebra", "bogus"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error" in err


def test_finite_algebras_ignore_the_window():
    code, report = run(["algebra-check", "--algebra", "sl2", "--window", "0"])
    assert code == 0 and report.status == "pass"
    code, zero = run(["derive-solve", "--algebra", "sl2", "--window", "0"])
    assert code == 0 and zero.status == "pass"
    _, eight = run(["derive-solve", "--algebra", "sl2", "--window", "8"])
    assert emit_report(zero) == emit_report(eight)
    for verb in ("derive-solve", "algebra-check"):
        code, report = run([verb, "--algebra", "witt", "--window", "0"])
        assert code == 2 and report is None, verb


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "halfder.cli", "derive-solve", "--algebra", "sl2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_exits_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "halfder.cli", "derive-solve", "--algebra", "sl2"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive-solve", "--algebra", "witt", "--param", "a"], "--param needs KEY=VALUE"),
        (["tpa-verify", "--algebra", "sl2", "--product=mutation:w=e_0"], "no mutation ambient"),
    ],
)
def test_module_entry_point_reports_usage_errors(argv, message):
    # python -m halfder.cli, whose usage errors come from the argument
    # grammar and the Poisson verbs, modules of their own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "halfder.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}") and "Traceback" not in proc.stderr


def test_structure_tables_hold_only_packed_entries(monkeypatch):
    # every structure constant a scan computes is stored once, as a packed
    # int entry (den, o_1, n_1, ...); no Element cache sits beside it
    from halfder.basis import BasisIndex
    from halfder.products import ProductSpec
    from halfder.spec import AlgebraSpec

    made = []
    for cls, attr in ((AlgebraSpec, "__post_init__"), (ProductSpec, "__init__")):
        original = getattr(cls, attr)

        def keep(self, *args, _original=original, **kwargs):
            _original(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, attr, keep)
    wab = ["--algebra", "wab", "--param", "a=1", "--param", "b=-1", "--product=mutation:w=L_1 + 2*I_-1"]
    for args in (
        ["algebra-check", "--algebra", "n2sca", "--param", "sector=ramond", "--window", "4"],
        ["tpa-verify", *wab, "--window", "3"],
        ["tpa-witness", *wab, "--window", "3", "--expect-witness"],
        ["algebra-check", "--algebra", "sl2"],
        ["derive-solve", "--algebra", "sl2"],
    ):
        code, _ = run(args)
        assert code == 0, args
    tables = {"_bcache": 0, "_acache": 0, "_cache": 0}
    for obj in made:
        for name in tables:
            for entry in getattr(obj, name, {}).values():
                assert type(entry) is tuple, (name, entry)
                assert all(type(x) is int or isinstance(x, BasisIndex) for x in entry), (name, entry)
                tables[name] += 1
    assert all(tables.values()), tables


def test_algebra_check_compares_packed_brackets(monkeypatch):
    from halfder import cli
    from halfder.basis import ONE, Family, bidx
    from halfder.element import Element
    from halfder.spec import AlgebraSpec

    basis = (bidx(Family.E, 0), bidx(Family.E, 2))

    def check(rule):
        alg = AlgebraSpec(name="table", basis_list=basis, bracket_fn=rule)
        monkeypatch.setattr(cli, "_make_algebra", lambda ns: alg)
        return run(["algebra-check", "--algebra", "sl2"])[1]

    # [x, y] = x - y, its terms in argument order: [y, x] lists them the
    # other way round and is still -[x, y]
    report = check(lambda xy: Element({xy[0]: ONE, xy[1]: -ONE}) if xy[0] != xy[1] else Element.zero())
    assert report.status == "pass" and report.payload["antisymmetry_checked"] == 3
    report = check(lambda xy: Element.basis(xy[0]) if xy[0] != xy[1] else Element.zero())
    assert report.status == "fail"
    assert report.payload == {"check": "antisymmetry", "tuple": ["e_0", "e_1"], "residual": "e_0 + e_1"}


def test_poisson_names_bind_on_first_use(monkeypatch):
    # cli binds the halfder.poisson names on first use; a name set on cli
    # before the first Poisson verb, as a tracer sets its wrappers, is the
    # one the verb calls, on that command and on later ones
    from halfder import cli, poisson

    assert not hasattr(cli, "no_such_name")
    for name in cli._POISSON:
        monkeypatch.delitem(vars(cli), name, raising=False)
    windows = []

    def spy(alg, p, window):
        windows.append(window)
        return poisson.check_tpa_window(alg, p, window)

    monkeypatch.setattr(cli, "check_tpa_window", spy)
    for window in ("2", "3"):
        code, report = run(["tpa-verify", "--algebra", "witt", "--product=mutation:w=e_0", "--window", window])
        assert code == 0 and report.status == "pass"
    assert windows == [2, 3] and cli.check_tpa_window is spy
    assert [n for n in cli._POISSON if getattr(cli, n) is not getattr(poisson, n)] == ["check_tpa_window"]


def test_poisson_names_import_from_cli_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "from halfder.cli import tpa_residual\nfrom halfder import poisson\nprint(tpa_residual is poisson.tpa_residual)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
