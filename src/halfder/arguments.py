"""The command-line argument grammar: the argparse parser, built on the
first command, and the --param values.  `halfder.cli` imports this module
on its first command, so importing the package never compiles it."""

from __future__ import annotations

import argparse
from functools import cache

from .basis import as_int, as_scalar
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first command rather than at import."""
    parser = argparse.ArgumentParser(
        prog="halfder",
        description="exact checks for brackets, half-derivations and compatible products",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, product=False, solve=False, witness=False, q=False):
        p.add_argument("--algebra", required=True, help="built-in algebra name")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="algebra or product parameter (a, b, k, n, sector, variant); repeatable",
        )
        p.add_argument("--window", type=_INT, default=8, help="degree window bound (default 8)")
        if solve:
            p.add_argument("--delta", type=_SCALAR, default="1/2", help="derivation parameter (default 1/2)")
            p.add_argument("--shift", type=_INT, default=2, help="image shift bound (default 2)")
        if product:
            p.add_argument(
                "--product",
                required=True,
                help="product literal: mutation:w=<element> or table:<family>:<param>",
            )
        if q:
            p.add_argument("--q", required=True, help="element to mutate the product by")
        if witness:
            p.add_argument(
                "--expect-witness",
                action="store_true",
                help="treat a found witness as the successful outcome",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=_INT, default=0, help="seed echo for scripted runs")

    p = sub.add_parser("algebra-list", help="list the built-in algebras")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=_INT, default=0)

    common(sub.add_parser("algebra-check", help="verify bracket identities on a window"))
    common(sub.add_parser("derive-solve", help="solve for delta-derivations"), solve=True)
    common(sub.add_parser("tpa-verify", help="verify product/bracket compatibility"), product=True)
    common(
        sub.add_parser("tpa-witness", help="search for a Poisson Leibniz defect"),
        product=True,
        witness=True,
    )
    common(sub.add_parser("tpa-normal-form", help="verify a named table product"))
    common(
        sub.add_parser("closure-check", help="check mutation-by-q keeps compatibility"),
        product=True,
        q=True,
    )
    return parser


_PARAMS = ("a", "b", "k", "n", "sector", "variant")


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
