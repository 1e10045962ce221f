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
from .cli import _make_algebra, _usage
from .core import parse_element, render
from .products import parse_product_literal, product_eval
from .report import UsageError


def _product(text, alg):
    return _usage(parse_product_literal, text, alg, element="bad element in product literal: ")


def _tpa_report(alg, p, window):
    """(status, payload) of the compatibility scan, for tpa-verify and
    tpa-normal-form: pass, or fail with the first witness and its residual."""
    hit, checked = cli.check_tpa_window(alg, p, window)
    base = {"product": p.name, "window": window, "tuples_checked": checked}
    if hit is None:
        return "pass", base
    (z, args), res = hit
    base["witness"] = {"z": z.token, "args": [i.token for i in args], "residual": render(res)}
    return "fail", base


def _verb_tpa_verify(ns):
    alg = _make_algebra(ns)
    p = _product(ns.product, alg)
    _usage(alg.window_indices, ns.window)
    return _tpa_report(alg, p, ns.window)


def _verb_tpa_witness(ns):
    alg = _make_algebra(ns)
    if alg.arity != 2:
        raise UsageError("the Poisson Leibniz check needs a binary bracket")
    p = _product(ns.product, alg)
    _usage(alg.window_indices, ns.window)
    hit = cli.find_poisson_witness(alg, p, ns.window)
    base = {"product": p.name, "window": ns.window}
    if hit is None:
        return "none", base
    triple, res = hit
    base["witness"] = {"triple": [i.token for i in triple], "residual": render(res)}
    return "witness-found", base


# algebra -> (its one --param, the table family it names, the values it takes)
_NORMAL_FORMS = {"thin": ("k", "thin_k", "<int>"), "solvable": ("variant", "solvable", "<1|2|3>")}


def _verb_tpa_normal_form(ns):
    params = _parse_params(ns.param)
    if ns.algebra not in _NORMAL_FORMS:
        raise UsageError("tpa-normal-form applies to the thin and solvable algebras")
    key, family, values = _NORMAL_FORMS[ns.algebra]
    if set(params) != {key}:
        raise UsageError(f"tpa-normal-form on {ns.algebra} takes exactly --param {key}={values}")
    alg = make_algebra(ns.algebra)
    p = _product(f"table:{family}:{params[key]}", alg)
    srcs = _usage(alg.window_indices, ns.window)
    table = []
    for i, x in enumerate(srcs):
        for y in srcs[i:]:
            v = product_eval(p, x, y)
            if not v.is_zero():
                table.append({"x": x.token, "y": y.token, "value": render(v)})
    status, base = _tpa_report(alg, p, ns.window)
    base["table"] = table
    return status, base


def _verb_closure_check(ns):
    alg = _make_algebra(ns)
    p = _product(ns.product, alg)
    if p.kind != "mutation":
        raise UsageError("closure-check needs a mutation product")
    q = _usage(parse_element, ns.q, p.ambient, element="bad --q element: ")
    _usage(alg.window_indices, ns.window)
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
