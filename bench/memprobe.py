"""Peak resident memory of a process that runs only pdsplit.

    python3 bench/memprobe.py WORKLOAD SEED WORKDIR

Generates the workload's inputs from the seed and sets up every instance,
prints "ready", reads an instance index from standard input, solves that
instance once and prints the process's peak resident set in KiB.

run.py starts it before it imports numpy itself: Linux carries the peak
resident set of the parent over into the child at fork and exec, so a
child started later would report the parent's peak when that is larger.
The benchmark's independent references (dense assemblies, SVDs, reference
solves) run in run.py and do not count towards the child's peak.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from types import SimpleNamespace

import run  # pins the BLAS threads before numpy loads
import workloads


def main(argv):
    name, seed, workdir = argv
    pd = SimpleNamespace(**run.import_pdsplit())
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](pd, int(seed), workdir)
    ready = wl.setup()
    print("ready", flush=True)
    wl.solve(ready, int(sys.stdin.readline()))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
