"""Package layout: module size, import order and dead names."""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# just above cli.py, the largest module
MAX_CODE_TOKENS = 3400


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
print(cli._build_parser.cache_info().currsize)
print(cli.run_command(["algebra-list", "--format", "json"])[0], cli._build_parser.cache_info().currsize)
print(cli.run_command(["derive-solve", "--algebra", "sl2", "--format", "json"])[0],
      sorted(m for m in ("halfder.poisson", "halfder.tables", "halfder.candidates") if m in sys.modules))
print(cli.run_command(["tpa-verify", "--algebra", "witt", "--product=mutation:w=e_0", "--window", "2"])[0],
      "halfder.poisson" in sys.modules)
from halfder import poisson
print([n for n in cli._POISSON if getattr(cli, n) is not getattr(poisson, n)])
from halfder import algebras, candidates, solver, tables
print(solver.closed_form_map is candidates.closed_form_map, algebras.direct_sum is tables.direct_sum,
      hasattr(solver, "no_such_name"), hasattr(algebras, "no_such_name"))
"""

# pulled in by dataclass code generation or by typing, or compiled only on first use
_NOT_AT_IMPORT = ("dataclasses", "typing", "inspect", "halfder.catalogue", "halfder.rows", "halfder.poisson",
                  "halfder.tables", "halfder.candidates")


def test_import_builds_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT.format(modules=_NOT_AT_IMPORT)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, before, after, solved, verified, unbound, served = proc.stdout.splitlines()[-7:]
    assert loaded == "[]", f"import halfder.cli loaded {loaded}"
    assert before == "0", "the argument parser was built at import"
    assert after == "0 1", "algebra-list should exit 0 after building the parser once"
    assert solved == "0 []", f"derive-solve should exit 0 without importing these: {solved}"
    assert verified == "0 True", "tpa-verify should exit 0 after importing halfder.poisson"
    # the same objects, so a wrapper on either binding fires once per call
    assert unbound == "[]", f"cli names that are not the halfder.poisson objects: {unbound}"
    # the moved objects themselves, and no other name served
    assert served == "True True False False", f"solver/algebras names on first use: {served}"


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
