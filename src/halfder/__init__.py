"""Exact workbench for half-derivation spaces and transposed Poisson products.

The import rule: a module imports names from the modules below it, or
from the five that the benchmark's import, `from halfder import algebras,
cli, solver`, loads anyway (`halfder`, `algebras`, `basis`, `cli`,
`solver`).  Through a first-use table (`_first_use`) it serves only names
of the other modules, or names a reader outside it wraps there.  So
importing the package compiles `halfder.basis`, and the other public
names bind on their first read.  README "Import cost" states the rule,
and bench/BENCH_import-rule.json times it in whole processes.
"""

from importlib import import_module

from .basis import BasisIndex, Family, Scalar, as_scalar, bidx

__version__ = "0.1.0"


def _first_use(space: dict, table: dict, *on_read):
    """(__getattr__, bind) for the module whose globals are space and whose
    table is {name: the halfder module that defines it}.

    bind(*homes) binds the names of those modules for the module's own
    functions, which read them as globals; by default it binds every module
    but the on_read ones, in the table's order, so the import order does not
    follow the hash seed.  __getattr__ (PEP 562) binds a name's module on
    the name's first read as an attribute.  Each module's names are bound
    once per process, with setdefault: a name set before, such as a tracer's
    wrapper, is kept, and a name deleted after is gone.
    """
    work = [home for home in dict.fromkeys(table.values()) if home not in on_read]
    bound = set()

    def bind(*homes):
        for home in homes or work:
            if home not in bound:
                module = import_module(f"{__name__}.{home}")
                for name in table:
                    if table[name] == home:
                        space.setdefault(name, getattr(module, name))
                bound.add(home)

    def __getattr__(name):
        if name not in table or table[name] in bound:
            raise AttributeError(f"module {space['__name__']!r} has no attribute {name!r}")
        bind(table[name])
        return space[name]

    return __getattr__, bind


# the public names from modules the import does not load, bound on first read
_SERVED = {
    "ParseError": "core", "parse_element": "core", "render": "core",
    "Element": "element", "element_combine": "element",
}
__getattr__ = _first_use(globals(), _SERVED)[0]

__all__ = [
    "BasisIndex", "Element", "Family", "ParseError", "Scalar", "as_scalar", "bidx", "element_combine",
    "parse_element", "render", "__version__",
]
