"""Package layout: module size, import order and dead names."""

import ast
import importlib
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# just above cli.py, the largest module (1,311)
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
                  "halfder.candidates", "halfder.arguments", "halfder.poisson_verbs")
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


def test_imports_name_the_defining_module():
    """Each `from .X import n` in src/halfder, and each `from halfder.X
    import n` in tests/ and the README's library example, names a module X
    that defines n.  The exceptions are the names a module serves on first
    use through its `__getattr__`.  No module but halfder/__init__ has an
    `__all__`."""
    trees = _trees()
    defined = {name[:-3]: _defined(tree) for name, tree in trees.items()}
    from halfder import cli

    served = {("algebras", "direct_sum"), ("solver", "closed_form_map"), *(("cli", n) for n in cli._POISSON)}
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
# that does
_READ_THROUGH = {
    "algebras": {"AlgebraSpec": "spec", "direct_sum": "tables"},
    "cli": {"delta_residual": "maps", "emit_report": "report", "identity_residual": "algebras",
            "solve_delta_derivations": "solver", "solve_stabilized": "solver",
            **dict.fromkeys(("check_tpa_window", "find_poisson_witness", "mutation_closure_check"), "poisson")},
    "poisson": {"ProductSpec": "products"},
    "solver": {"_rref": "elimination", "closed_form_map": "candidates"},
}


@pytest.mark.parametrize("name", sorted(_READ_THROUGH))
def test_kept_bindings_are_the_defining_objects(name):
    # the same objects, so a tracer's wrapper on either binding fires once per call
    module = importlib.import_module(f"halfder.{name}")
    for attr, home in _READ_THROUGH[name].items():
        assert getattr(module, attr) is getattr(importlib.import_module(f"halfder.{home}"), attr), attr
    assert not hasattr(module, "no_such_name")


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
