"""The command-line argument grammar: the argparse parser, built on the
first command, the --param values, and `_usage`, the one place where a
library `ValueError` on a command's input becomes a `UsageError`.
`halfder.cli` imports this module on its first command, so importing the
package never compiles it."""

from __future__ import annotations

import argparse
from functools import cache

from .algebras import make_algebra
from .basis import as_int, as_scalar
from .core import ParseError
from .report import UsageError


def _grammar(read):
    """read as an argparse type whose usage error quotes read's message
    ('not an integer: ...'), not read's name ('invalid as_int value')."""

    def typed(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


_INT, _SCALAR = _grammar(as_int), _grammar(as_scalar)


_PARAMS = ("a", "b", "k", "n", "sector", "variant")

# every flag's argparse keywords; a verb lists its flags in this order
_FLAGS = {
    "--algebra": dict(required=True, help="built-in algebra name"),
    "--param": dict(action="append", default=[], metavar="KEY=VALUE",
                    help=f"algebra or product parameter ({', '.join(_PARAMS)}); repeatable"),
    "--window": dict(type=_INT, default=8, help="degree window bound (default 8)"),
    "--delta": dict(type=_SCALAR, default="1/2", help="derivation parameter (default 1/2)"),
    "--shift": dict(type=_INT, default=2, help="image shift bound (default 2)"),
    "--product": dict(required=True, help="product literal: mutation:w=<element> or table:<family>:<param>"),
    "--q": dict(required=True, help="element to mutate the product by"),
    "--expect-witness": dict(action="store_true", help="treat a found witness as the successful outcome"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--seed": dict(type=_INT, default=0, help="seed echo for scripted runs"),
}

_ON_A_WINDOW = ("--algebra", "--param", "--window")

# {verb: (help, its flags before --format and --seed)}
_VERBS = {
    "algebra-list": ("list the built-in algebras", ()),
    "algebra-check": ("verify bracket identities on a window", _ON_A_WINDOW),
    "derive-solve": ("solve for delta-derivations", (*_ON_A_WINDOW, "--delta", "--shift")),
    "tpa-verify": ("verify product/bracket compatibility", (*_ON_A_WINDOW, "--product")),
    "tpa-witness": ("search for a Poisson Leibniz defect", (*_ON_A_WINDOW, "--product", "--expect-witness")),
    "tpa-normal-form": ("verify a named table product", _ON_A_WINDOW),
    "closure-check": ("check mutation-by-q keeps compatibility", (*_ON_A_WINDOW, "--product", "--q")),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first command rather than at import."""
    parser = argparse.ArgumentParser(
        prog="halfder",
        description="exact checks for brackets, half-derivations and compatible products",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, flags) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        for flag in (*flags, "--format", "--seed"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_params(pairs) -> dict:
    """{key: value text} from KEY=VALUE items; the verb that uses a value reads it."""
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"--param needs KEY=VALUE, got {item!r}")
        if key in out:
            raise UsageError(f"--param {key} given twice")
        if key not in _PARAMS:
            raise UsageError(f"unknown parameter {key!r} (known: {', '.join(_PARAMS)})")
        out[key] = value
    return out


def _usage(read, *args, element=""):
    """read(*args), with a ValueError from it raised as a UsageError; a
    ParseError's message gets element as a prefix."""
    try:
        return read(*args)
    except ValueError as e:
        raise UsageError(f"{element}{e}" if isinstance(e, ParseError) else str(e)) from None


def _make_algebra(ns):
    """The algebra of a command's --algebra and --param."""
    return _usage(make_algebra, ns.algebra, _parse_params(ns.param))
