import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfder import cli
from halfder.algebras import algebra_params
from halfder.catalogue import ALGEBRA_NAMES
from halfder.cli import main, run_command
from halfder.core import parse_element
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


def test_tpa_normal_form(monkeypatch):
    code, report = run(
        ["tpa-normal-form", "--algebra", "thin", "--param", "k=3", "--window", "6"]
    )
    assert code == 0 and report.status == "pass"
    assert {"x": "e_1", "y": "e_1", "value": "e_3"} in report.payload["table"]
    code, report = run(
        ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=2", "--window", "6"]
    )
    assert code == 0 and report.status == "pass"
    # no built-in table fails the scan; a failing one reports its witness as
    # tpa-verify does, residual included
    failing = ["tpa-verify", "--algebra", "wab", "--param", "a=0", "--param", "b=2", "--product=mutation:w=L_0"]
    witness = run(failing + ["--window", "3"])[1].payload["witness"]
    assert set(witness) == {"z", "args", "residual"}

    def idx(token):
        return parse_element(token).support()[0]

    hit = ((idx(witness["z"]), tuple(map(idx, witness["args"]))), parse_element(witness["residual"]))
    monkeypatch.setattr(cli, "check_tpa_window", lambda alg, p, window: (hit, 7))
    code, report = run(["tpa-normal-form", "--algebra", "thin", "--param", "k=3", "--window", "6"])
    assert code == 1 and report.status == "fail"
    assert report.payload["witness"] == witness and report.payload["tuples_checked"] == 7
    assert {"x": "e_1", "y": "e_1", "value": "e_3"} in report.payload["table"]


def test_tpa_normal_form_usage_errors_name_the_param(capsys):
    for param, message in (
        ("variant=9", "solvable variant must be 1, 2 or 3: '9'"),
        ("variant=0", "solvable variant must be 1, 2 or 3: '0'"),
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


def test_usage_errors_exit_2(capsys):
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
        # '²' passed str.isdigit, and int() then raised past the usage check
        ["closure-check", "--algebra", "witt", "--product", "mutation:w=e_0", "--q", "²*e_1", "--window", "2"],
        # int() and Fraction(str) read these as 3, 10, 1/2 and 1
        ["tpa-normal-form", "--algebra", "thin", "--param", "k=٣"],
        ["tpa-verify", "--algebra", "thin", "--product=table:thin_k:1_0"],
        ["derive-solve", "--algebra", "witt", "--delta=١/٢"],
        ["derive-solve", "--algebra", "wab", "--param", "a=١/٢", "--param", "b=-1"],
        ["derive-solve", "--algebra", "nary_simple", "--param", "n=٣"],
        ["algebra-check", "--algebra", "witt", "--window", "1_0"],
        ["algebra-check", "--algebra", "witt", "--window", "٣"],
        ["tpa-normal-form", "--algebra", "solvable", "--param", "variant=+1"],
    ):
        code, report = run(args)
        assert code == 2 and report is None, args
    code, report = run(["no-such-verb"])
    assert code == 2 and report is None
    code, report = run([])
    assert code == 2 and report is None
    # the message names the number grammar, not the Python reader (as_int, as_scalar)
    for args, line in (
        (["algebra-check", "--algebra", "witt", "--window", "1_0"], "argument --window: not an integer: '1_0'"),
        (["derive-solve", "--algebra", "witt", "--delta=١/٢"], "argument --delta: not an exact rational: '١/٢'"),
        (
            ["tpa-witness", "--algebra", "nary_simple", "--param", "n=3", "--product=mutation:w=e_0"],
            "the Poisson Leibniz check needs a binary bracket",
        ),
    ):
        capsys.readouterr()
        assert run(args) == (2, None)
        assert capsys.readouterr().err.endswith(f"error: {line}\n"), args


@pytest.mark.parametrize(
    "argv, line",
    [
        (["algebra-check", "--algebra", "witt", "--window", "0"], "window must be positive"),
        (["derive-solve", "--algebra", "witt", "--window", "2", "--shift", "5"],
         "shift bound must be smaller than the window"),
        (["derive-solve", "--algebra", "svir", "--param", "sector=weird"],
         "parameter sector: not 'ramond' or 'neveu_schwarz': 'weird'"),
        (["derive-solve", "--algebra", "bogus"],
         "unknown algebra 'bogus'; known: witt, laurent, wab, virasoro, svir, n2sca, thin, solvable, "
         "extended_laurent, sl2, heisenberg, schrodinger, nary_simple"),
        (["tpa-verify", "--algebra", "witt", "--product=mutation:w=e_x", "--window", "2"],
         "bad element in product literal: expected an integer (at position 2)"),
        (["tpa-verify", "--algebra", "virasoro", "--product=mutation:w=e_0"],
         "no mutation ambient is defined for algebra virasoro"),
        (["closure-check", "--algebra", "witt", "--product=mutation:w=e_0", "--q=e_x", "--window", "2"],
         "bad --q element: expected an integer (at position 2)"),
    ],
)
def test_library_errors_are_usage_errors(argv, line, capsys):
    # a ValueError of the library, raised as a usage error by cli._usage;
    # a ParseError's message carries the name of the element it read
    assert run(argv) == (2, None)
    assert capsys.readouterr().err == f"error: {line}\n"


# (good, bad) text for each value of a command line.  No window or shift
# is above 4: no work budget bounds a solve or a scan yet
_PARAM_VALUES = {
    "a": (("0", "1", "1/2", "-3/2"), ("١/٢", "0.5", "1/0", "x")),
    "b": (("-1", "0", "2", "-02"), ("1_0", "+1")),
    "k": (("2", "3", "02", " 5"), ("1", "-1", "٣", "1_0", "3/2")),
    "n": (("3", "4"), ("2", "٣", "+3", "3/1")),
    "variant": (("1", "2", "3", "01"), ("0", "9", "+1", "٣")),
    "sector": (("ramond", "neveu_schwarz"), ("x",)),
    "junk": ((), ("1",)),
}
_FLAG_VALUES = {
    "--window": (("1", "2", "3", "4", " 2"), ("-1", "0", "1_0", "٣", "x")),
    "--shift": (("1", "2"), ("-1", "0", "3", "4", "1_0", "٣")),
    "--delta": (("1/2", "1", "-1", "0", "1/3", " 6/4 "), ("١/٢", "0.5", "1/0", "x")),
    "--product": ((), ("mutation:w=e_²", "mutation:e_0", "table:thin_k:1_0", "table:solvable:+1", "table:x:1", "bogus")),
    "--q": ((), ("²*e_1", "G+_1/2", "0", "", "L_1")),
    "--seed": (("0", "7"), ("٣",)),
    "--format": (("text", "json"), ()),
}
# the good products and --q elements of each algebra a Poisson verb takes
_FITS = {
    "witt": {"--product": ("mutation:w=e_0", "mutation:w=e_1 - 1/2*e_-1"), "--q": ("e_1", "1/2*e_2 - e_0")},
    "wab": {"--product": ("mutation:w=L_0", "mutation:w=L_1 + 2*I_-1"), "--q": ("L_1", "L_-1 + I_0")},
    "thin": {"--product": ("table:thin_k:2", "table:thin_k:3")},
    "solvable": {"--product": ("table:solvable:1", "table:solvable:3")},
}
# the flags each verb takes beside --algebra, --param, --window, --seed and --format
_VERB_FLAGS = {
    "algebra-check": (),
    "derive-solve": ("--delta", "--shift"),
    "tpa-verify": ("--product",),
    "tpa-witness": ("--product",),
    "tpa-normal-form": (),
    "closure-check": ("--product", "--q"),
}


@st.composite
def _command_lines(draw):
    def value(name):
        good, bad = {**_PARAM_VALUES, **_FLAG_VALUES}[name]
        good = _FITS.get(algebra, {}).get(name, good)
        # about one value in five is bad
        return draw(st.sampled_from(good * 4 + bad if good else bad))

    verb = draw(st.sampled_from((*_VERB_FLAGS, *_VERB_FLAGS, "algebra-list", "no-such-verb")))
    algebra = draw(st.sampled_from((*_FITS, *_FITS, *ALGEBRA_NAMES, "bogus")))
    # mostly the parameters the algebra and the verb need, sometimes any
    needed = [*algebra_params(algebra)] if algebra in ALGEBRA_NAMES else []
    if verb == "tpa-normal-form":
        needed += {"thin": ["k"], "solvable": ["variant"]}.get(algebra, [])
    keys = draw(st.sampled_from((needed,) * 4 + ([],)) | st.lists(st.sampled_from(tuple(_PARAM_VALUES)), max_size=2))
    argv = [verb]
    if verb != "algebra-list":
        argv += ["--algebra", algebra, "--window", value("--window")]
    for key in keys:
        argv += ["--param", f"{key}={value(key)}"]
    flags = ["--seed", "--format", *_VERB_FLAGS.get(verb, ())]
    # now and then a flag this verb does not take
    flags += draw(st.lists(st.sampled_from(tuple(_FLAG_VALUES)), max_size=1))
    for flag in flags:
        if flag in ("--product", "--q") or draw(st.booleans()):
            argv += [flag, value(flag)]
    if verb == "tpa-witness" and draw(st.booleans()):
        argv.append("--expect-witness")
    return argv


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_any_command_line_exits_0_1_or_2(argv):
    code, report = run(argv)
    assert code in (0, 1, 2) and (report is None) == (code == 2)
    if report is not None:
        assert emit_report(report, "text") and json.loads(emit_report(report, "json"))["status"] == report.status


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
        (["derive-solve", "--algebra", "witt", "--window", "2", "--shift", "5"],
         "shift bound must be smaller than the window"),
        (["closure-check", "--algebra", "witt", "--product=mutation:w=e_0", "--q=e_x", "--window", "2"],
         "bad --q element: expected an integer (at position 2)"),
    ],
)
def test_module_entry_point_reports_usage_errors(argv, message):
    # python -m halfder.cli runs cli.py as __main__, and a Poisson verb
    # imports halfder.cli beside it; the argument grammar, the Poisson verbs
    # and _usage all raise halfder.report's UsageError, which __main__ catches
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


def test_algebra_check_reports_a_defining_identity_failure(monkeypatch):
    from halfder import cli
    from halfder.tables import algebra_from_structure_json

    # antisymmetric, but [e_0, [e_1, e_2]] = 0 while [[e_0, e_1], e_2] + [e_1, [e_0, e_2]] = e_1
    alg = algebra_from_structure_json({"dim": 3, "brackets": [[0, 1, [[0, "1"]]], [0, 2, [[1, "1"]]]]})
    monkeypatch.setattr(cli, "_make_algebra", lambda ns: alg)
    code, report = run(["algebra-check", "--algebra", "sl2"])
    assert code == 1 and report.status == "fail"
    assert report.payload == {"check": "defining identity", "tuple": ["e_0", "e_1", "e_2"], "residual": "-e_1"}


def test_derive_solve_rechecks_the_maps_it_reports(monkeypatch):
    from halfder import cli
    from halfder.basis import Family, bidx
    from halfder.maps import _Window
    from halfder.solver import SolutionSpace

    def solve_stabilized(alg, delta, window, shift):
        # a "stable" space whose one map, e_1 -> e_1, is no delta-derivation
        e1 = bidx(Family.E, 2)
        win = _Window(alg, window + shift, shift)
        u = win.uid[e1, e1]
        return SolutionSpace(delta, win, {u: {u: 1}}, True)

    monkeypatch.setattr(cli, "solve_stabilized", solve_stabilized)
    code, report = run(["derive-solve", "--algebra", "witt", "--window", "2", "--shift", "1"])
    assert code == 1 and report.status == "fail"
    assert report.payload == {"error": "solution fails its defining equations", "tuple": ["e_-2", "e_1"]}


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


@pytest.mark.parametrize(
    "argv, spied, case",
    [
        (["tpa-witness", "--algebra", "witt", "--product=mutation:w=e_0", "--window", "2"],
         "poisson_residual", ("e_-2", "e_-2", "e_-2")),
        (["tpa-verify", "--algebra", "wab", "--param", "a=0", "--param", "b=2", "--product=mutation:w=L_0",
          "--window", "3"], "leibniz_parts", ("L_-3", "I_-3")),
    ],
    ids=["tpa-witness", "tpa-verify"],
)
def test_failing_poisson_verb_evaluates_its_case_once(monkeypatch, argv, spied, case):
    # the scan hands its residual to the verb, which reports it without
    # evaluating the law again
    from halfder import cli, poisson

    for name in cli._POISSON:
        monkeypatch.delitem(vars(cli), name, raising=False)
    seen = []
    original = getattr(poisson, spied)

    def count(*args):
        # poisson_residual(alg, p, x, y, z) and leibniz_parts(bracket, args, ...)
        seen.append(tuple(i.token for i in (args[2:] if spied == "poisson_residual" else args[1])))
        return original(*args)

    monkeypatch.setattr(poisson, spied, count)
    code, report = run(argv)
    assert code == 1 and report.status in ("witness-found", "fail")
    assert seen.count(case) == 1, seen


def test_poisson_names_import_from_cli_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "from halfder.cli import find_poisson_witness\nfrom halfder import poisson\n"
        "print(find_poisson_witness is poisson.find_poisson_witness)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
