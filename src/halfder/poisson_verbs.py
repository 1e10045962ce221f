"""The four Poisson verbs of the command line: tpa-verify, tpa-witness,
tpa-normal-form and closure-check.  `halfder.cli` imports this module on
the first Poisson verb of a process, so a solve never compiles it.

The verbs call the halfder.poisson names as attributes of `halfder.cli`
(`cli.check_tpa_window`, ...), which binds them on first use, so a name
set on `cli`, such as a tracer's wrapper, is the one every verb calls.
"""

from __future__ import annotations

from . import cli
from .algebras import make_algebra
from .arguments import _parse_params
from .cli import UsageError, _make_algebra, _window_sources
from .core import ParseError, parse_element, render
from .products import normal_form_product, parse_product_literal, product_eval


def _product(build, *args):
    """build(*args), a product constructor, with its errors as usage errors."""
    try:
        return build(*args)
    except ParseError as e:
        raise UsageError(f"bad element in product literal: {e}") from None
    except ValueError as e:
        raise UsageError(str(e)) from None


def _verb_tpa_verify(ns):
    alg = _make_algebra(ns)
    p = _product(parse_product_literal, ns.product, alg)
    _window_sources(alg, ns.window)
    witness, checked = cli.check_tpa_window(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window, "tuples_checked": checked}
    if witness is None:
        return "pass", base
    z, args = witness
    res = render(cli.tpa_residual(alg, p, z, args))
    base["witness"] = {"z": z.token, "args": [i.token for i in args], "residual": res}
    return "fail", base


def _verb_tpa_witness(ns):
    alg = _make_algebra(ns)
    if alg.arity != 2:
        raise UsageError("the Poisson Leibniz check needs a binary bracket")
    p = _product(parse_product_literal, ns.product, alg)
    _window_sources(alg, ns.window)
    triple = cli.find_poisson_witness(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window}
    if triple is None:
        return "none", base
    res = cli.poisson_residual(alg, p, *triple)
    base["witness"] = {"triple": [i.token for i in triple], "residual": render(res)}
    return "witness-found", base


def _verb_tpa_normal_form(ns):
    params = _parse_params(ns.param)
    if ns.algebra == "thin":
        if set(params) != {"k"}:
            raise UsageError("tpa-normal-form on thin takes exactly --param k=<int>")
        family = "thin_k"
    elif ns.algebra == "solvable":
        if set(params) != {"variant"} or params["variant"] not in (1, 2, 3):
            raise UsageError("tpa-normal-form on solvable takes exactly --param variant=<1|2|3>")
        family, params = f"solvable_{params['variant']}", None
    else:
        raise UsageError("tpa-normal-form applies to the thin and solvable algebras")
    alg = make_algebra(ns.algebra)
    p = _product(normal_form_product, family, params)
    srcs = _window_sources(alg, ns.window)
    table = []
    for i, x in enumerate(srcs):
        for y in srcs[i:]:
            v = product_eval(p, x, y)
            if not v.is_zero():
                table.append({"x": x.token, "y": y.token, "value": render(v)})
    witness, checked = cli.check_tpa_window(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window, "tuples_checked": checked, "table": table}
    if witness is None:
        return "pass", base
    z, args = witness
    base["witness"] = {"z": z.token, "args": [i.token for i in args]}
    return "fail", base


def _verb_closure_check(ns):
    alg = _make_algebra(ns)
    p = _product(parse_product_literal, ns.product, alg)
    if p.kind != "mutation":
        raise UsageError("closure-check needs a mutation product")
    try:
        q = parse_element(ns.q, p.ambient)
    except ParseError as e:
        raise UsageError(f"bad --q element: {e}") from None
    _window_sources(alg, ns.window)
    try:
        ok = cli.mutation_closure_check(alg, p, q, ns.window)
    except ValueError as e:
        return "fail", {"product": p.name, "q": render(q), "error": str(e)}
    base = {"product": p.name, "q": render(q), "window": ns.window}
    return ("pass" if ok else "fail"), base


VERBS = {
    "tpa-verify": _verb_tpa_verify,
    "tpa-witness": _verb_tpa_witness,
    "tpa-normal-form": _verb_tpa_normal_form,
    "closure-check": _verb_closure_check,
}
