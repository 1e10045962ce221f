"""The one launcher of bench/processes.py.

    python3 -S bench/launch.py PLAN.json

PLAN.json is {"python": interpreter, "pairs": N, "sides": {side: {"cwd":
directory, "env": environment}}, "commands": [argv after the interpreter,
...], "out": directory}.  Pair -1 is a warm-up round; in each pair every
command runs once per side, in the order of "sides" in even pairs and in
the reverse order in odd ones.  Run k writes its stdout to out/k.out and
its stderr to out/k.err, and the launcher prints one JSON list of
[pair, command index, side, wall seconds, peak RSS in kB, exit code].

A child started by posix_spawn (or vfork) takes its launcher's peak
memory as the floor of its own ru_maxrss, so this process stays small:
it imports only what a bare interpreter has loaded and json, and keeps
no output in memory.
"""

import json
import os
import sys
import time


def main(path: str) -> None:
    with open(path) as fh:
        plan = json.load(fh)
    sides = list(plan["sides"])
    results = []
    for pair in range(-1, plan["pairs"]):
        for index, argv in enumerate(plan["commands"]):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                k = len(results)
                os.chdir(plan["sides"][side]["cwd"])
                out = os.open(os.path.join(plan["out"], f"{k}.out"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                err = os.open(os.path.join(plan["out"], f"{k}.err"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                start = time.perf_counter()
                pid = os.posix_spawn(plan["python"], [plan["python"], *argv], plan["sides"][side]["env"],
                                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
                _, status, usage = os.wait4(pid, 0)
                wall = time.perf_counter() - start
                os.close(out)
                os.close(err)
                results.append([pair, index, side, wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)])
    json.dump(results, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
