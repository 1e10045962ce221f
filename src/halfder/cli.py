"""Command-line front end: every verification and solve as a scriptable report.

Output on stdout is fully deterministic for a fixed command line (timing
goes to stderr), so reports can be diffed and archived.  Exit codes:
0 pass/none, 1 fail/witness-found, 2 usage error.  --expect-witness turns
a found witness into the success outcome of the witness verbs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from itertools import combinations_with_replacement

from .algebras import ALGEBRA_NAMES, algebra_params, identity_residual, make_algebra
from .core import ParseError, as_scalar, combine, parse_element, render
from .solver import (
    bounded_tuples,
    delta_residual,
    is_trivial_space,
    solve_delta_derivations,
    solve_stabilized,
    space_to_jsonable,
)

__all__ = ["Report", "emit_report", "main", "run_command"]

# bound from halfder.poisson by __getattr__ on first use, so a solve never compiles it
_POISSON = ("check_tpa_window", "find_poisson_witness", "mutation_closure_check", "parse_product_literal",
            "poisson_residual", "product_eval", "tpa_residual")


def __getattr__(name):
    """Bind the Poisson names; setdefault keeps one already set, such as a tracer's wrapper."""
    if name not in _POISSON:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import poisson
    for n in _POISSON:
        globals().setdefault(n, getattr(poisson, n))
    return globals()[name]


class Report:
    """One command's result; status is pass, fail, witness-found or none."""

    def __init__(self, command, verb, status, payload, elapsed, fmt="text"):
        self.command, self.verb, self.status = command, verb, status
        self.payload, self.elapsed, self.fmt = payload, elapsed, fmt


class UsageError(ValueError):
    pass


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
        p.add_argument("--window", type=int, default=8, help="degree window bound (default 8)")
        if solve:
            p.add_argument("--delta", default="1/2", help="derivation parameter (default 1/2)")
            p.add_argument("--shift", type=int, default=2, help="image shift bound (default 2)")
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
        p.add_argument("--seed", type=int, default=0, help="seed echo for scripted runs")

    p = sub.add_parser("algebra-list", help="list the built-in algebras")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=0)

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


_INT_PARAMS = ("k", "n", "variant")
_RATIONAL_PARAMS = ("a", "b")


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"--param needs KEY=VALUE, got {item!r}")
        if key in out:
            raise UsageError(f"--param {key} given twice")
        if key in _INT_PARAMS:
            try:
                out[key] = int(value)
            except ValueError:
                raise UsageError(f"parameter {key} must be an integer, got {value!r}") from None
        elif key in _RATIONAL_PARAMS:
            try:
                out[key] = as_scalar(value)
            except (ValueError, TypeError):
                raise UsageError(f"parameter {key} must be rational, got {value!r}") from None
        elif key == "sector":
            out[key] = value
        else:
            raise UsageError(f"unknown parameter {key!r} (known: a, b, k, n, sector, variant)")
    return out


def _make_algebra(ns):
    params = _parse_params(ns.param)
    try:
        return make_algebra(ns.algebra, params)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _window_sources(alg, window):
    if window <= 0 and not alg.is_finite:
        raise UsageError("window must be positive")
    return alg.window_indices(window)


# ---------------------------------------------------------------------------
# verbs


def _verb_algebra_list(ns):
    entries = []
    for name in ALGEBRA_NAMES:
        wanted = algebra_params(name)
        sample = {"a": 0, "b": 0, "sector": "ramond", "n": 3}
        alg = make_algebra(name, {k: sample[k] for k in wanted})
        entries.append(
            {
                "name": name,
                "arity": alg.arity,
                "finite": alg.is_finite,
                "params": list(wanted),
                "display": alg.display,
            }
        )
    return "none", {"algebras": entries}


def _verb_algebra_check(ns):
    alg = _make_algebra(ns)
    srcs = _window_sources(alg, ns.window)
    n = alg.arity
    anti_checked = 0
    for t in combinations_with_replacement(srcs, n):
        for i in range(n - 1):
            swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
            sign = -1 if (t[i].parity and t[i + 1].parity) else 1
            res = combine([(1, 1, alg.bracket_ints(t)), (sign, 1, alg.bracket_ints(swapped))])
            anti_checked += 1
            if res:
                return "fail", {"check": "antisymmetry", "tuple": [i.token for i in t], "residual": render(res)}
    id_checked = 0
    for xblock in combinations_with_replacement(srcs, n - 1):
        for yblock in combinations_with_replacement(srcs, n):
            args = xblock + yblock
            res = identity_residual(alg, args)
            id_checked += 1
            if not res.is_zero():
                return "fail", {
                    "check": "defining identity",
                    "tuple": [i.token for i in args],
                    "residual": render(res),
                }
    return "pass", {
        "algebra": alg.name,
        "params": {k: str(v) for k, v in sorted(alg.params.items())},
        "window": ns.window,
        "antisymmetry_checked": anti_checked,
        "identity_checked": id_checked,
    }


def _verb_derive_solve(ns):
    alg = _make_algebra(ns)
    try:
        delta = as_scalar(ns.delta)
    except (ValueError, TypeError):
        raise UsageError(f"delta must be rational, got {ns.delta!r}") from None
    if alg.is_finite:
        space = solve_delta_derivations(alg, delta)
    else:
        try:
            space = solve_stabilized(alg, delta, ns.window, ns.shift)
        except ValueError as e:
            raise UsageError(str(e)) from None
    trivial = is_trivial_space(space)
    tuples = list(bounded_tuples(alg, _window_sources(alg, ns.window)))
    checked = 0
    for phi in space.basis:
        for args in tuples:
            checked += 1
            if not delta_residual(alg, phi, delta, args).is_zero():
                return "fail", {
                    "error": "solution fails its defining equations",
                    "tuple": [i.token for i in args],
                }
    payload = space_to_jsonable(space, trivial)
    payload["residuals_checked"] = checked
    return "pass", payload


def _product_for(literal, alg):
    try:
        return __getattr__("parse_product_literal")(literal, alg)  # binds the names the verbs below call
    except ParseError as e:
        raise UsageError(f"bad element in product literal: {e}") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


def _verb_tpa_verify(ns):
    alg = _make_algebra(ns)
    p = _product_for(ns.product, alg)
    _window_sources(alg, ns.window)
    witness, checked = check_tpa_window(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window, "tuples_checked": checked}
    if witness is None:
        return "pass", base
    z, args = witness
    res = render(tpa_residual(alg, p, z, args))
    base["witness"] = {"z": z.token, "args": [i.token for i in args], "residual": res}
    return "fail", base


def _verb_tpa_witness(ns):
    alg = _make_algebra(ns)
    if alg.arity != 2:
        raise UsageError("the Poisson Leibniz check needs a binary bracket")
    p = _product_for(ns.product, alg)
    _window_sources(alg, ns.window)
    triple = find_poisson_witness(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window}
    if triple is None:
        return "none", base
    res = poisson_residual(alg, p, *triple)
    base["witness"] = {"triple": [i.token for i in triple], "residual": render(res)}
    return "witness-found", base


def _verb_tpa_normal_form(ns):
    params = _parse_params(ns.param)
    if ns.algebra == "thin":
        if set(params) != {"k"}:
            raise UsageError("tpa-normal-form on thin takes exactly --param k=<int>")
        literal = f"table:thin_k:{params['k']}"
    elif ns.algebra == "solvable":
        if set(params) != {"variant"}:
            raise UsageError("tpa-normal-form on solvable takes exactly --param variant=<1|2|3>")
        literal = f"table:solvable:{params['variant']}"
    else:
        raise UsageError("tpa-normal-form applies to the thin and solvable algebras")
    alg = make_algebra(ns.algebra)
    p = _product_for(literal, alg)
    srcs = _window_sources(alg, ns.window)
    table = []
    for i, x in enumerate(srcs):
        for y in srcs[i:]:
            v = product_eval(p, x, y)
            if not v.is_zero():
                table.append({"x": x.token, "y": y.token, "value": render(v)})
    witness, checked = check_tpa_window(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window, "tuples_checked": checked, "table": table}
    if witness is None:
        return "pass", base
    z, args = witness
    base["witness"] = {"z": z.token, "args": [i.token for i in args]}
    return "fail", base


def _verb_closure_check(ns):
    alg = _make_algebra(ns)
    p = _product_for(ns.product, alg)
    if p.kind != "mutation":
        raise UsageError("closure-check needs a mutation product")
    try:
        q = parse_element(ns.q, p.ambient)
    except ParseError as e:
        raise UsageError(f"bad --q element: {e}") from None
    _window_sources(alg, ns.window)
    try:
        ok = mutation_closure_check(alg, p, q, ns.window)
    except ValueError as e:
        return "fail", {"product": p.name, "q": render(q), "error": str(e)}
    base = {"product": p.name, "q": render(q), "window": ns.window}
    return ("pass" if ok else "fail"), base


_VERBS = {
    "algebra-list": _verb_algebra_list,
    "algebra-check": _verb_algebra_check,
    "derive-solve": _verb_derive_solve,
    "tpa-verify": _verb_tpa_verify,
    "tpa-witness": _verb_tpa_witness,
    "tpa-normal-form": _verb_tpa_normal_form,
    "closure-check": _verb_closure_check,
}


def _exit_code(ns, status) -> int:
    if getattr(ns, "expect_witness", False) and status in ("witness-found", "none"):
        return int(status == "none")
    return 0 if status in ("pass", "none") else 1


def run_command(argv) -> tuple[int, Report | None]:
    """Parse and execute one command; (exit code, report or None on usage error)."""
    try:
        ns = _build_parser().parse_args(list(argv))
    except SystemExit as e:
        return (0 if e.code in (0, None) else 2, None)
    start = time.perf_counter()
    try:
        status, payload = _VERBS[ns.verb](ns)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2, None
    elapsed = time.perf_counter() - start
    report = Report(command=["halfder"] + list(argv), verb=ns.verb, status=status, payload=payload,
                    elapsed=elapsed, fmt=ns.format)
    return _exit_code(ns, status), report


def _text_value(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v, sort_keys=True)


def emit_report(report: Report, fmt: str | None = None) -> str:
    """Render a report; json output is byte-stable and round-trips."""
    fmt = fmt or report.fmt
    if fmt == "json":
        doc = {"command": report.command, "verb": report.verb, "status": report.status}
        doc.update(report.payload)
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = [f"{report.verb}: {report.status.upper()}"]
    for key in sorted(report.payload):
        value = report.payload[key]
        if key in ("basis", "table", "algebras") and isinstance(value, list):
            lines.append(f"{key}:")
            for entry in value:
                lines.append(f"  {_text_value(entry)}")
        else:
            lines.append(f"{key}: {_text_value(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    code, report = run_command(sys.argv[1:] if argv is None else argv)
    if report is not None:
        try:
            print(emit_report(report))
            sys.stdout.flush()
        except OSError as e:
            # stdout is closed or full; keep the exit-time flush from raising again
            print(f"error: cannot write the report: {e}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
