"""bench/processes.py, the whole-process A/B harness: one A/A pair."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == ROOT


@pytest.mark.skipif(not _git_checkout(), reason="needs git and the repository")
def test_one_aa_pair_against_head(tmp_path):
    out = tmp_path / "BENCH_aa.json"
    argv = [sys.executable, str(ROOT / "bench" / "processes.py"), "--base", "HEAD", "--pairs", "1",
            "--only", "import halfder", "--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    assert doc["parent"]["rev"] == doc["change"]["rev"] == head
    assert list(doc["commands"]) == ["import halfder"]
    entry = doc["commands"]["import halfder"]
    assert entry["stdout_identical"]
    for metric in ("wall_s", "max_rss_mb"):
        got = entry[metric]
        assert got["pairs"] == 1 and got["change_lower_in"] + got["change_higher_in"] <= 1
        assert all(len(got["runs"][side]) == 1 and got["runs"][side][0] > 0 for side in ("parent", "change"))
        assert got["verdict"] in ("change lower", "change higher", "no change shown")


def test_the_criterion_12_commands_are_the_golden_ones():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import processes
    finally:
        sys.path.remove(str(ROOT / "bench"))
    cmds = processes.commands()
    assert len(cmds) == 7 + 2 + 3
    assert [name for name in cmds if name.startswith("halfder ")] == [f"halfder {k}" for k in processes.CRITERION_12]
    assert cmds["halfder derive-solve:witt"][0][2:] == [
        "derive-solve", "--algebra", "witt", "--window", "6", "--shift", "2", "--format", "json"]
