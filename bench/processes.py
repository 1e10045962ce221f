"""Whole halfder processes of two revisions, timed in alternating pairs.

    python3 bench/processes.py --base 4d4a566 --pairs 10 --out bench/BENCH_name.json

Run it from a git checkout.  It unpacks the base revision with
`git archive`, and copies the working tree (the tracked files and the
untracked ones .gitignore keeps), into the sibling directories `parent`
and `change`.  The two names have equal length, because a checkout's path
length moves a process's peak memory (README, "Measuring a change").
Each command then runs as a fresh process from each checkout.  The runs
come in alternating pairs: the parent first in even pairs, the change
first in odd ones.  One warm-up round comes first and is not recorded.
Every run goes through one launcher, bench/launch.py, with
PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, so each process compiles
what it imports.  The launcher records the wall time from launch to exit
and the child's own peak RSS (`ru_maxrss` from `os.wait4`); it is a small
fresh process, since a child's `ru_maxrss` is never below its launcher's
peak.  For perfbench's `--setup-only` runs the harness also records the
setup time the run prints.

The commands are the seven criterion-12 commands, read from
tests/test_golden.py; `import halfder; halfder.parse_element('e_1')`;
the benchmark's import `from halfder import algebras, cli, solver`; and
`perfbench/run.py --setup-only` for each workload.

The output file records both revisions and the host.  For each command
and metric it gives each side's runs, median and quartiles, and the
pairs the change won.  Its verdict follows the rule for a gated claim: a
side is lower only when it wins at least 9 of 10 pairs and the medians
differ by more than the parent's quartile spread.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# the keys of the criterion-12 commands in tests/test_golden.py's CLI_CASES
CRITERION_12 = (
    "algebra-list", "algebra-check:svir-ramond", "derive-solve:witt", "tpa-verify:witt",
    "tpa-witness:thin-k2", "tpa-normal-form:solvable-1", "closure-check:witt",
)
# what the installed `halfder` console script runs
_CONSOLE = "import sys; from halfder.cli import main; sys.exit(main())"
WORKLOADS = ("solve-super", "solve-family", "scan")


def commands() -> dict:
    """{name: (argv after the interpreter, prints its setup time)}."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    cases = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_CASES")
    out = {f"halfder {key}": (["-c", _CONSOLE, *cases[key], "--format", "json"], False) for key in CRITERION_12}
    out["import halfder"] = (["-c", "import halfder; halfder.parse_element('e_1')"], False)
    out["from halfder import algebras, cli, solver"] = (["-c", "from halfder import algebras, cli, solver"], False)
    for w in WORKLOADS:
        out[f"setup-only {w}"] = (["perfbench/run.py", "--workload", w, "--seed", "1", "--seconds", "0",
                                   "--setup-only"], True)
    return out


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def checkouts(base: str, work: Path) -> dict:
    """{side: directory}: the base revision and a copy of the working tree."""
    dirs = {side: work / side for side in SIDES}
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
        tar.extractall(dirs["parent"], **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (dirs["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dirs["change"] / name)
    return dirs


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def _check_sources(dirs: dict) -> None:
    """Each side imports halfder from its own checkout, not from an install."""
    for side, checkout in dirs.items():
        out = subprocess.run([sys.executable, "-c", "import halfder; print(halfder.__file__)"], cwd=checkout,
                             env=_env(checkout), capture_output=True, text=True).stdout
        if not Path(out.strip() or "/").resolve().is_relative_to(checkout.resolve()):
            raise SystemExit(f"{side} does not import halfder from {checkout}: {out!r}")


def measure(dirs: dict, cmds: dict, pairs: int, work: Path) -> dict:
    """{name: {side: {metric: [one value per pair]}, "stdout": {side: digests}}},
    from one run of bench/launch.py over every pair and command."""
    out = work / "runs"
    out.mkdir()
    plan = {"python": sys.executable, "pairs": pairs, "out": str(out), "commands": [argv for argv, _ in cmds.values()],
            "sides": {side: {"cwd": str(d), "env": _env(d)} for side, d in dirs.items()}}
    (work / "plan.json").write_text(json.dumps(plan))
    launched = subprocess.run([sys.executable, "-S", str(Path(__file__).with_name("launch.py")), str(work / "plan.json")],
                              capture_output=True, text=True, check=True)
    names = list(cmds)
    runs = {name: {side: {} for side in SIDES} for name in cmds}
    digests = {name: {side: set() for side in SIDES} for name in cmds}
    for k, (pair, index, side, wall, rss_kb, code) in enumerate(json.loads(launched.stdout)):
        name = names[index]
        if code:
            raise SystemExit(f"{name} exited {code} in {side}:\n{(out / f'{k}.err').read_text()}")
        if pair < 0:
            continue
        values = {"wall_s": round(wall, 6), "max_rss_mb": round(rss_kb / 1024, 4)}
        stdout = (out / f"{k}.out").read_bytes()
        if cmds[name][1]:
            values["setup_s"] = round(float(stdout.split()[-1]), 7)
        else:
            digests[name][side].add(hashlib.sha256(stdout).hexdigest())
        for metric, value in values.items():
            runs[name][side].setdefault(metric, []).append(value)
    return {name: {**runs[name], "stdout": digests[name]} for name in cmds}


def summary(xs: list) -> dict:
    if len(xs) > 1:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    else:
        q1 = med = q3 = xs[0]
    return {"median": med, "q1": q1, "q3": q3}


def compare(parent: list, change: list) -> dict:
    """Both sides' summaries, the pairs won, and the verdict of the rule for
    a gated claim: at least 9 of 10 pairs won, and medians apart by more
    than the parent's quartile spread."""
    sp, sc = summary(parent), summary(change)
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    gap, spread = sc["median"] - sp["median"], sp["q3"] - sp["q1"]
    if 10 * lower >= 9 * len(parent) and -gap > spread:
        verdict = "change lower"
    elif 10 * higher >= 9 * len(parent) and gap > spread:
        verdict = "change higher"
    else:
        verdict = "no change shown"
    return {"parent": sp, "change": sc, "change_lower_in": lower, "change_higher_in": higher,
            "pairs": len(parent), "median_gap": gap, "parent_quartile_spread": spread,
            "gap_within_parent_spread": abs(gap) <= spread, "verdict": verdict,
            "runs": {"parent": parent, "change": change}}


def _host() -> dict:
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "platform": platform.platform(), "cpu": cpu,
            "cpus": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--base", required=True, help="the parent revision, as git names it")
    p.add_argument("--pairs", type=int, default=10, help="alternating pairs per command (default 10)")
    p.add_argument("--only", action="append", metavar="NAME", help="run only this command (repeatable)")
    p.add_argument("--out", type=Path, help="output file (default bench/BENCH_<base>.json)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    cmds = commands()
    if args.only:
        if unknown := [name for name in args.only if name not in cmds]:
            p.error(f"unknown command(s) {unknown}; known: {list(cmds)}")
        cmds = {name: cmds[name] for name in args.only}
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    head = _git("rev-parse", "HEAD").strip()
    out = args.out or ROOT / "bench" / f"BENCH_{base[:7]}.json"
    with tempfile.TemporaryDirectory(prefix="halfder-processes-") as work:
        dirs = checkouts(base, Path(work))
        _check_sources(dirs)
        runs = measure(dirs, cmds, args.pairs, Path(work))
    doc = {
        "parent": {"rev": base},
        "change": {"rev": head, "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "host": _host(),
        "settings": {"pairs": args.pairs, "first_in_even_pairs": "parent", "warm_up_rounds": 1,
                     "env": {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"},
                     "launcher": "bench/launch.py: os.posix_spawn and os.wait4, one process per run"},
        "commands": {},
    }
    for name, (argv, _) in cmds.items():
        got = runs[name]
        entry = {"argv": ["python3", *argv]}
        for metric in got["parent"]:
            entry[metric] = compare(got["parent"][metric], got["change"][metric])
        if any(got["stdout"].values()):
            entry["stdout_identical"] = len(got["stdout"]["parent"] | got["stdout"]["change"]) == 1
        doc["commands"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["commands"].items():
        wall = entry["wall_s"]
        print(f"{name}: wall {1e3 * wall['parent']['median']:.2f} -> {1e3 * wall['change']['median']:.2f} ms, "
              f"change lower in {wall['change_lower_in']} of {wall['pairs']}, {wall['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
