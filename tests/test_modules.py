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

# just above cli.py, the largest module (1,415)
MAX_CODE_TOKENS = 1500


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
print(cli.run_command(["algebra-list", "--format", "json"])[0], cli._build_parser.cache_info().currsize)
print(cli.run_command(["derive-solve", "--algebra", "sl2", "--format", "json"])[0],
      sorted(m for m in {poisson_or_data!r} if m in sys.modules))
print(cli.run_command(["tpa-verify", "--algebra", "witt", "--product=mutation:w=e_0", "--window", "2"])[0],
      all(m in sys.modules for m in ("halfder.poisson", "halfder.products", "halfder.poisson_verbs")))
from halfder import poisson
print([n for n in cli._POISSON if getattr(cli, n) is not getattr(poisson, n)])
from halfder import algebras, candidates, solver, tables
print(solver.closed_form_map is candidates.closed_form_map, algebras.direct_sum is tables.direct_sum,
      hasattr(solver, "no_such_name"), hasattr(algebras, "no_such_name"))
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
    loaded, listed, solved, verified, unbound, served = proc.stdout.splitlines()[-6:]
    # halfder.arguments among them: the argument parser is not even compiled at import
    assert loaded == "[]", f"import halfder.cli loaded {loaded}"
    assert listed == "0 1", "algebra-list should exit 0 after building the parser once"
    assert solved == "0 []", f"derive-solve should exit 0 without importing these: {solved}"
    assert verified == "0 True", "tpa-verify should exit 0 after importing the Poisson modules"
    # the same objects, so a wrapper on either binding fires once per call
    assert unbound == "[]", f"cli names that are not the halfder.poisson objects: {unbound}"
    # the moved objects themselves, and no other name served
    assert served == "True True False False", f"solver/algebras names on first use: {served}"


# the names tests, the README and perfbench/ask.py read from each module
# before it was split, besides its __all__
_READ_FROM = {
    "core": ("BasisIndex", "Element", "Family", "ONE", "ParseError", "as_scalar", "bidx", "combine",
             "element_combine", "pack", "parse_element", "render", "unpack"),
    "solver": ("LinMapWindow", "SolutionSpace", "WindowEscapeError", "_Window", "_row_dict", "_rref",
               "_system_rows", "closed_form_map", "delta_residual", "identity_map", "is_trivial_space",
               "nullspace", "solve_delta_derivations", "solve_stabilized", "space_to_jsonable", "stabilize"),
    "algebras": ("ALGEBRA_NAMES", "AlgebraSpec", "algebra_from_structure_json", "algebra_params", "direct_sum",
                 "finite_structure_json", "identity_residual", "make_algebra"),
    "poisson": ("ProductSpec", "ambient_for", "assoc_comm_residuals", "check_tpa_window", "find_poisson_witness",
                "mutation_closure_check", "mutation_product", "normal_form_product", "parse_product_literal",
                "poisson_residual", "product_eval", "right_mult_map", "tpa_residual"),
    "cli": ("_POISSON", "_build_parser", "_make_algebra", "check_tpa_window", "emit_report", "main",
            "run_command"),
    "catalogue": ("BUILDERS",),
}


@pytest.mark.parametrize("name", sorted(_READ_FROM))
def test_split_modules_keep_their_names(name):
    module = importlib.import_module(f"halfder.{name}")
    for attr in sorted({*_READ_FROM[name], *getattr(module, "__all__", ())}):
        obj = getattr(module, attr)
        home = getattr(obj, "__module__", "") if callable(obj) else ""
        if home.startswith("halfder."):
            # a function or class is the object of the module that defines it
            assert getattr(importlib.import_module(home), obj.__name__) is obj, f"{name}.{attr}"


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
    """The README's library example, in a fresh process: its import of
    closed_form_map from halfder.solver takes the first-use path."""
    library = (SRC.parent / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
