"""Command-line front end: every verification and solve as a scriptable report.

Output on stdout is fully deterministic for a fixed command line (timing
goes to stderr), so reports can be diffed and archived.  Exit codes:
0 pass/none, 1 fail/witness-found, 2 usage error.  --expect-witness turns
a found witness into the success outcome of the witness verbs.

This module holds the dispatch, the verbs that solve and check brackets,
and `_usage`, the one place where a library `ValueError` becomes a
`UsageError`.  The argument grammar (`halfder.arguments`) is imported on
the first command and the Poisson verbs (`halfder.poisson_verbs`) on the
first Poisson verb; the report, its emission and `UsageError` live in
`halfder.report`.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import combinations_with_replacement, product

from .algebras import algebra_params, first_defect, identity_residual, make_algebra
from .core import ParseError, render
from .element import combine
from .maps import delta_residual
from .report import Report, UsageError, emit_report
from .solver import bounded_tuples, is_trivial_space, solve_delta_derivations, solve_stabilized, space_to_jsonable

# bound from halfder.poisson by __getattr__ on first use, so a solve never
# compiles it; the Poisson verbs call them as cli.<name>, and perfbench's
# tracer wraps them here
_POISSON = ("check_tpa_window", "find_poisson_witness", "mutation_closure_check")


def __getattr__(name):
    """Bind the Poisson names; setdefault keeps one already set, such as a
    tracer's wrapper."""
    if name not in _POISSON:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import poisson
    for n in _POISSON:
        globals().setdefault(n, getattr(poisson, n))
    return globals()[name]


def _usage(read, *args, element=""):
    """read(*args), with a ValueError from it raised as a UsageError; a
    ParseError's message gets element as a prefix."""
    try:
        return read(*args)
    except ValueError as e:
        raise UsageError(f"{element}{e}" if isinstance(e, ParseError) else str(e)) from None


def _make_algebra(ns):
    from .arguments import _parse_params

    return _usage(make_algebra, ns.algebra, _parse_params(ns.param))


# ---------------------------------------------------------------------------
# verbs


def _verb_algebra_list(ns):
    from .catalogue import ALGEBRA_NAMES

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
    srcs = _usage(alg.window_indices, ns.window)
    n = alg.arity

    def swap_residual(t, i):
        swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
        sign = -1 if (t[i].parity and t[i + 1].parity) else 1
        return combine([(1, 1, alg.bracket_ints(t)), (sign, 1, alg.bracket_ints(swapped))])

    hit, anti_checked = first_defect(product(combinations_with_replacement(srcs, n), range(n - 1)), swap_residual)
    if hit:
        (t, _), res = hit
        return "fail", {"check": "antisymmetry", "tuple": [i.token for i in t], "residual": render(res)}
    hit, id_checked = first_defect(
        product(combinations_with_replacement(srcs, n - 1), combinations_with_replacement(srcs, n)),
        lambda x, y: identity_residual(alg, x + y),
    )
    if hit:
        (x, y), res = hit
        return "fail", {"check": "defining identity", "tuple": [i.token for i in x + y], "residual": render(res)}
    return "pass", {
        "algebra": alg.name,
        "params": {k: str(v) for k, v in sorted(alg.params.items())},
        "window": ns.window,
        "antisymmetry_checked": anti_checked,
        "identity_checked": id_checked,
    }


def _verb_derive_solve(ns):
    alg = _make_algebra(ns)
    if alg.is_finite:
        space = solve_delta_derivations(alg, ns.delta)
    else:
        space = _usage(solve_stabilized, alg, ns.delta, ns.window, ns.shift)
    trivial = is_trivial_space(space)
    hit, checked = first_defect(
        product(space.basis, bounded_tuples(alg, _usage(alg.window_indices, ns.window), alg.bracket_ints)),
        lambda phi, args: delta_residual(alg, phi, ns.delta, args),
    )
    if hit:
        return "fail", {"error": "solution fails its defining equations", "tuple": [i.token for i in hit[0][1]]}
    payload = space_to_jsonable(space, trivial)
    payload["residuals_checked"] = checked
    return "pass", payload


def _poisson_verb(ns):
    """Run a Poisson verb, from halfder.poisson_verbs, which the first one imports."""
    from .poisson_verbs import VERBS

    return VERBS[ns.verb](ns)


# the bracket verbs; the parser admits only these and the Poisson verbs
_VERBS = {
    "algebra-list": _verb_algebra_list,
    "algebra-check": _verb_algebra_check,
    "derive-solve": _verb_derive_solve,
}


def _exit_code(ns, status) -> int:
    if getattr(ns, "expect_witness", False) and status in ("witness-found", "none"):
        return int(status == "none")
    return 0 if status in ("pass", "none") else 1


def run_command(argv) -> tuple[int, Report | None]:
    """Parse and execute one command; (exit code, report or None on usage error)."""
    from .arguments import _build_parser

    try:
        ns = _build_parser().parse_args(list(argv))
    except SystemExit as e:
        return (0 if e.code in (0, None) else 2, None)
    start = time.perf_counter()
    try:
        status, payload = _VERBS.get(ns.verb, _poisson_verb)(ns)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2, None
    elapsed = time.perf_counter() - start
    report = Report(command=["halfder"] + list(argv), verb=ns.verb, status=status, payload=payload,
                    elapsed=elapsed, fmt=ns.format)
    return _exit_code(ns, status), report


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
