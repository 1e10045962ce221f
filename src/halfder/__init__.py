"""Exact workbench for half-derivation spaces and transposed Poisson products.

Importing the package compiles none of its modules: each public name is
bound from the module that defines it on its first read.
"""

from importlib import import_module

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


# the public names of the exact layer, bound on first read
_SERVED = {
    "BasisIndex": "basis", "Family": "basis", "Scalar": "basis", "as_scalar": "basis", "bidx": "basis",
    "ParseError": "core", "parse_element": "core", "render": "core",
    "Element": "element", "element_combine": "element",
}
__getattr__ = _first_use(globals(), _SERVED)[0]

__all__ = [
    "BasisIndex", "Element", "Family", "ParseError", "Scalar", "as_scalar", "bidx", "element_combine",
    "parse_element", "render", "__version__",
]
