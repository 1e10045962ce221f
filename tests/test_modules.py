"""Package layout: module size, import order and dead names."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# above spec.py, the largest module (1,283)
MAX_CODE_TOKENS = 1400


def code_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(
            1
            for tok in tokenize.tokenize(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)
        )


def test_module_size_limit():
    sizes = {p.name: code_tokens(p) for p in sorted((SRC / "halfder").glob("*.py"))}
    assert "solver.py" in sizes
    over = {name: n for name, n in sizes.items() if n > MAX_CODE_TOKENS}
    assert not over, (
        f"modules above {MAX_CODE_TOKENS} code tokens: {over}. Without cached "
        "bytecode every process compiles src/, and its peak memory follows the "
        "parse of the largest module (README, 'Module size'): split the module"
    )


@pytest.mark.parametrize(
    "code",
    [
        "import halfder.catalogue",
        "import halfder.algebras; halfder.algebras.make_algebra('n2sca', sector='ramond')",
        "import halfder.tables",
        "import halfder.candidates",
        # each part split off a larger module, imported first
        "import halfder.basis",
        "import halfder.element",
        "import halfder.spec",
        "import halfder.elimination",
        "import halfder.maps",
        "import halfder.superconformal",
        "import halfder.finite",
        "import halfder.products",
        "import halfder.report",
        "import halfder.arguments",
        "import halfder.poisson_verbs",
    ],
)
def test_import_order(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], stderr=subprocess.PIPE, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


# run under -S, so that no .pth file of site-packages preloads modules
_FOOTPRINT = """
import sys
from halfder import cli
print(sorted(m for m in {modules!r} if m in sys.modules))
code = cli.run_command(["algebra-list", "--format", "json"])[0]
from halfder.arguments import _build_parser
print(code, _build_parser.cache_info().currsize)
print(cli.run_command(["derive-solve", "--algebra", "sl2", "--format", "json"])[0],
      sorted(m for m in {poisson_or_data!r} if m in sys.modules))
print(cli.run_command(["tpa-verify", "--algebra", "witt", "--product=mutation:w=e_0", "--window", "2"])[0],
      all(m in sys.modules for m in ("halfder.poisson", "halfder.products", "halfder.poisson_verbs")))
"""

# pulled in by dataclass code generation or by typing, or compiled only on first use
_NOT_AT_IMPORT = ("dataclasses", "typing", "inspect", "halfder.catalogue", "halfder.superconformal",
                  "halfder.finite", "halfder.rows", "halfder.poisson", "halfder.products", "halfder.tables",
                  "halfder.candidates", "halfder.arguments", "halfder.poisson_verbs", "halfder.core",
                  "halfder.element", "halfder.spec", "halfder.maps", "halfder.report", "halfder.elimination")
# the Poisson modules, and the algebras and maps built from data, which no solve compiles
_NOT_IN_A_SOLVE = ("halfder.poisson", "halfder.products", "halfder.poisson_verbs", "halfder.tables",
                   "halfder.candidates")


def test_import_builds_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = _FOOTPRINT.format(modules=_NOT_AT_IMPORT, poisson_or_data=_NOT_IN_A_SOLVE)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, listed, solved, verified = proc.stdout.splitlines()[-4:]
    # halfder.arguments among them: the argument parser is not even compiled at import
    assert loaded == "[]", f"import halfder.cli loaded {loaded}"
    assert listed == "0 1", "algebra-list should exit 0 after building the parser once"
    assert solved == "0 []", f"derive-solve should exit 0 without importing these: {solved}"
    assert verified == "0 True", "tpa-verify should exit 0 after importing the Poisson modules"


# the modules the benchmark's import, `from halfder import algebras, cli,
# solver`, loads: the package's import rule lets any module import from them
_GATED = ["halfder", "halfder.algebras", "halfder.basis", "halfder.cli", "halfder.solver"]

# every halfder module an import loads: the package, the modules named, the
# modules below them, and the gated modules they import from; every other
# name binds on first use
_LOADS = {
    "import halfder": ["halfder", "halfder.basis"],
    "from halfder import algebras, cli, solver": _GATED,
    "import halfder.cli": _GATED,
    "import halfder.solver": ["halfder", "halfder.algebras", "halfder.basis", "halfder.solver"],
    # the builders take _skew from spec, so they load no algebras
    "import halfder.finite": ["halfder", "halfder.basis", "halfder.element", "halfder.finite", "halfder.spec"],
}


@pytest.mark.parametrize("code", sorted(_LOADS))
def test_import_loads_only_what_runs_at_import(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'halfder'))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(_LOADS[code])


_WRAPPED = """
import json
from halfder import cli, solver
calls = {}
def count(owner, name):
    original = getattr(owner, name)
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    setattr(owner, name, wrapper)
for name in ("delta_residual", "identity_residual", "solve_stabilized"):
    count(cli, name)
count(solver, "_rref")
code, solved = cli.run_command(["derive-solve", "--algebra", "witt", "--window", "3", "--shift", "1"])
code2, checked = cli.run_command(["algebra-check", "--algebra", "witt", "--window", "2"])
print(json.dumps([code, code2, solved.payload["residuals_checked"], checked.payload["identity_checked"], calls]))
"""


def test_wrappers_set_before_first_use_are_called():
    # a tracer wraps names on cli and solver before the first command; the
    # first-use binding keeps them, so every call goes through them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", _WRAPPED], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, code2, residuals, identities, calls = json.loads(proc.stdout.splitlines()[-1])
    assert code == code2 == 0
    # one _rref in the solve's solver._system_rows and one in solver.stabilize
    assert calls == {"solve_stabilized": 1, "_rref": 2, "delta_residual": residuals,
                     "identity_residual": identities}, calls
    assert residuals > 0 and identities > 0


# first calls into solver, each in a fresh process: every function that
# reads the table's names as globals must work with nothing bound before it
_FIRST_CALLS = {
    "_system_rows": "from halfder.maps import _Window\n"
    "print(len(solver._system_rows(_Window(algebras.make_algebra('witt'), 3, 1), Fraction(1, 2))) > 0)",
    "solve_delta_derivations": "print(solver.solve_delta_derivations(algebras.make_algebra('sl2'), 1).dimension > 0)",
    "solve_stabilized-finite": "print(solver.solve_stabilized(algebras.make_algebra('sl2'), 1).stable)",
    "solve_stabilized": "print(solver.solve_stabilized(algebras.make_algebra('witt'), Fraction(1, 2), 3, 1).stable)",
}


@pytest.mark.parametrize("call", sorted(_FIRST_CALLS))
def test_first_calls_bind_what_they_read(call):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"from fractions import Fraction\nfrom halfder import algebras, solver\n{_FIRST_CALLS[call]}"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_package_serves_its_public_names():
    # the basis names are imported, since the package loads basis anyway;
    # the other public names are served
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import halfder\nbound = {n for n in halfder.__all__ if n in vars(halfder)} - {'__version__'}\n"
            "from halfder import *\n"
            "print(all(globals()[n] is getattr(halfder, n) for n in halfder.__all__),"
            " all(vars(halfder)[n] is getattr(halfder.basis, n) for n in bound),"
            " sorted(set(halfder._SERVED) | bound) == sorted(set(halfder.__all__) - {'__version__'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def test_arguments_imports_no_cli():
    # UsageError lives in halfder.report, so the argument grammar needs
    # nothing from halfder.cli, which imports it on the first command
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, halfder.arguments; print('halfder.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"], "import halfder.arguments loaded halfder.cli"


def _defined(tree) -> set:
    """Names a module binds at top level other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _readme_library() -> str:
    library = (SRC.parent / "README.md").read_text().split("\n## Library\n", 1)[1]
    return library.split("```python\n", 1)[1].split("```", 1)[0]


# the submodules that serve names through a first-use table, `_SERVED`
_SERVING = sorted(p.stem for p in (SRC / "halfder").glob("*.py") if p.stem != "__init__"
                  and "\n_SERVED = " in p.read_text())


def test_imports_name_the_defining_module():
    """Each `from .X import n` in src/halfder, and each `from halfder.X
    import n` in tests/ and the README's library example, names a module X
    that defines n.  The exceptions are the names a module serves on first
    use through its `__getattr__`.  No module but halfder/__init__ has an
    `__all__`."""
    trees = _trees()
    defined = {name[:-3]: _defined(tree) for name, tree in trees.items()}
    served = {(name, n) for name in _SERVING for n in importlib.import_module(f"halfder.{name}")._SERVED}
    sources = {f"src/halfder/{name}": tree for name, tree in trees.items()}
    sources.update({f"tests/{p.name}": ast.parse(p.read_text()) for p in sorted(Path(__file__).parent.glob("*.py"))})
    sources["README.md"] = ast.parse(_readme_library())
    wrong = []
    for where, tree in sources.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 1 and module and where.startswith("src/"):
                home = module
            elif node.level == 0 and module.startswith("halfder."):
                home = module[len("halfder."):]
            else:
                continue
            wrong += [f"{where}:{node.lineno}: {home}.{a.name}" for a in node.names
                      if a.name not in defined[home] and (home, a.name) not in served]
    assert not wrong, f"imports through a module that does not define the name: {wrong}"
    with_all = [name for name, names in defined.items() if "__all__" in names and name != "__init__"]
    assert not with_all, f"only halfder/__init__ lists the public names: {with_all}"


# the bindings perfbench/spans.py and perfbench/ask.py read, or the Poisson
# verbs call, through a module that does not define them, with the module
# that does: every name of a first-use table, and poisson's ProductSpec,
# which it imports
_READ_THROUGH = {"poisson": {"ProductSpec": "products"}}


@pytest.mark.parametrize("name", sorted(["halfder", *_SERVING, *_READ_THROUGH]))
def test_kept_bindings_are_the_defining_objects(name):
    # the same objects, so a tracer's wrapper on either binding fires once per call
    module = importlib.import_module(name if name == "halfder" else f"halfder.{name}")
    table = _READ_THROUGH[name] if name in _READ_THROUGH else module._SERVED
    for attr, home in table.items():
        assert getattr(module, attr) is getattr(importlib.import_module(f"halfder.{home}"), attr), attr
    assert not hasattr(module, "no_such_name")


# first-use bindings no code of their own module reads, {(module, name): the
# file that reads them through it}: the tracer's wrappers and the benchmark's
# questions, and the Poisson verbs, which call cli.<name>
_READ_ELSEWHERE = {
    ("algebras", "AlgebraSpec"): "perfbench/spans.py",
    ("algebras", "direct_sum"): "perfbench/ask.py",
    ("solver", "closed_form_map"): "perfbench/ask.py",
    ("cli", "solve_delta_derivations"): "perfbench/spans.py",
    ("cli", "check_tpa_window"): "src/halfder/poisson_verbs.py",
    ("cli", "find_poisson_witness"): "src/halfder/poisson_verbs.py",
    ("cli", "mutation_closure_check"): "src/halfder/poisson_verbs.py",
}


@pytest.mark.parametrize("name", ["halfder", *_SERVING])
def test_tables_serve_only_what_the_gated_import_does_not_load(name):
    # the import rule: a module imports what the gated import loads anyway,
    # and serves a name of such a module only for a reader elsewhere
    module = importlib.import_module(name if name == "halfder" else f"halfder.{name}")
    gated = [n for n, home in module._SERVED.items() if f"halfder.{home}" in _GATED and (name, n) not in _READ_ELSEWHERE]
    assert not gated, f"{name} serves names of modules the gated import loads: {gated}"


def _bare_reads(tree) -> set:
    """Names a module's code reads as bare names, outside annotations,
    which `from __future__ import annotations` leaves as strings."""
    notes = [fn.returns for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [a.annotation for a in ast.walk(tree) if isinstance(a, (ast.arg, ast.AnnAssign))]
    in_notes = {id(n) for note in notes if note is not None for n in ast.walk(note)}
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            and id(n) not in in_notes}


@pytest.mark.parametrize("name", ["algebras", "cli", "solver"])
def test_every_first_use_binding_has_a_reader(name):
    # a table entry that nothing reads costs a bind (and maybe a module
    # import) for no caller
    reads = _bare_reads(_trees()[f"{name}.py"])
    served = importlib.import_module(f"halfder.{name}")._SERVED
    unread = [n for n in served if n not in reads and (name, n) not in _READ_ELSEWHERE]
    assert not unread, f"{name} serves names nothing reads: {unread}"
    for (module, attr), where in _READ_ELSEWHERE.items():
        if module == name:
            assert attr in served, f"{module}.{attr} is no first-use binding"
            assert re.search(rf"\b{attr}\b", (SRC.parent / where).read_text()), f"{where} does not read {module}.{attr}"


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text()) for p in sorted((SRC / "halfder").glob("*.py"))}


def _names_used(tree) -> set:
    """Names a module reads: bare names, attributes and `__all__` strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in _trees().items():
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, f"imports never used: {unused}"


def test_no_unreferenced_private_functions():
    trees = _trees()
    used = set().union(*map(_names_used, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not dead, f"private module-level functions nothing in src/ references: {dead}"


def test_one_koszul_sign():
    """The Koszul sign of a Leibniz residual is stated once in src/halfder:
    only algebras.leibniz_slots folds the parities of the slots before each
    slot, and algebras.leibniz_parts and rows.residual_rows read its p."""
    folds, texts = [], {}
    for name, tree in _trees().items():
        texts[name] = (SRC / "halfder" / name).read_text().count("prefix % 2")
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.AugAssign) and isinstance(node.value, ast.Attribute) and node.value.attr == "parity"
                for node in ast.walk(fn)
            ):
                folds.append(f"{name[:-3]}.{fn.name}")
    assert folds == ["algebras.leibniz_slots"], f"functions that fold slot parities: {folds}"
    assert {name: n for name, n in texts.items() if n} == {"algebras.py": 1}, texts


def test_one_reduction():
    """solver makes every reduced pivot: only its code calls _rref (in
    _system_rows and stabilize), and rows imports nothing from solver but
    bounded_tuples, so rows.nullspace_basis hands back vectors, not pivots."""
    trees, calls = _trees(), {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls[name] = calls.get(name, 0) + 1
    assert calls == {"solver.py": 2}, f"calls of _rref per module: {calls}"
    from_solver = []
    for node in ast.walk(trees["rows.py"]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            from_solver += [a.name for a in node.names if node.module == "solver" or (node.module, a.name) == (None, "solver")]
    assert from_solver == ["bounded_tuples"], f"rows imports from solver: {from_solver}"


def test_no_import_inside_a_function():
    """A name is bound at top level or through a first-use table, once per
    process, never by an import statement run on each call: the row, tuple
    and bracket functions run thousands of times per question.  The one
    exception is Element.__repr__, whose grammar module imports element."""
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and f"{name}.{fn.name}" != "element.py.__repr__":
                found += [f"{name}: {fn.name}" for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"import statements inside functions: {found}"


def test_no_typing_or_dataclasses_imports():
    banned = {"typing", "dataclasses"}
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}: {a.name}" for a in node.names if a.name.split(".")[0] in banned]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in banned:
                found.append(f"{name}: {node.module}")
    assert not found, f"annotation-only or code-generating imports (README, 'Import cost'): {found}"


def test_readme_library_example_runs():
    """The README's library example, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _readme_library()], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
