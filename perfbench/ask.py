"""Answer benchmark questions through halfder's public entry points, and
check the answers against the questions' known values.

ask() is the timed part: it builds the algebra fresh, as every user call
does, and goes through halfder.cli.run_command with emit_report or through
the halfder.solver library functions.  Module attributes are looked up at
call time, so a traced run sees every call.  check() is not timed.
"""

from __future__ import annotations

import json

from halfder import algebras, cli, solver


def ask(q):
    """Answer one question; the result is what check() reads."""
    if q.kind == "cli":
        code, report = cli.run_command(q.argv)
        text = None if report is None else cli.emit_report(report)
        return code, report, text
    spec = q.spec
    alg = algebras.make_algebra(spec["algebra"], spec["params"])
    if spec["pair"]:
        alg = algebras.direct_sum(alg, algebras.make_algebra(spec["algebra"], spec["params"]))
    if alg.is_finite:
        space = solver.solve_delta_derivations(alg, spec["delta"])
    else:
        space = solver.solve_stabilized(alg, spec["delta"], spec["window"], spec["shift"])
    members = [
        space.contains(solver.closed_form_map(family, coeffs, alg, spec["window"]))
        for family, coeffs in spec["members"]
    ]
    trivial = solver.is_trivial_space(space)
    return space, members, solver.space_to_jsonable(space, trivial)


def check(q, answer) -> list[str]:
    """Every way the answer differs from the known one; empty when right."""
    if q.kind == "cli":
        return _check_cli(q, *answer)
    space, members, doc = answer
    want = q.expect
    wrong = []
    if not space.stable or not doc["stable"]:
        wrong.append("space is not stable")
    if want["dimension"] is not None and doc["dimension"] != want["dimension"]:
        wrong.append(f"dimension {doc['dimension']}, expected {want['dimension']}")
    if len(doc["basis"]) != doc["dimension"]:
        wrong.append(f"{len(doc['basis'])} basis maps for dimension {doc['dimension']}")
    if want["trivial"] is not None and doc["trivial_only"] != want["trivial"]:
        wrong.append(f"trivial_only {doc['trivial_only']}, expected {want['trivial']}")
    if members != want["members"]:
        wrong.append(f"membership {members}, expected {want['members']}")
    return wrong


def _check_cli(q, code, report, text) -> list[str]:
    want = q.expect
    wrong = []
    if code != want["code"]:
        wrong.append(f"exit code {code}, expected {want['code']}")
    if report is None:
        return wrong + ["no report"]
    if cli.emit_report(report) != text:
        wrong.append("two emit_report calls differ")
    doc = json.loads(text)
    if doc["status"] != want["status"]:
        wrong.append(f"status {doc['status']}, expected {want['status']}")
    for key, value in want["fields"].items():
        if doc.get(key) != value:
            wrong.append(f"{key} {doc.get(key)!r}, expected {value!r}")
    if want.get("witness") and doc.get("witness", {}).get("residual") in (None, "0"):
        wrong.append("witness without a nonzero residual")
    return wrong
