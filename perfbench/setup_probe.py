"""Set-up probe: import ``repro``, construct a workload's first search, exit.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--small]``
by ``perfbench/run.py``.  The last line of standard output is the
``time.monotonic()`` reading at the point the first search would start.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import make_workload  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = make_workload(name, seed, small="--small" in sys.argv[4:])
    workload.setup_probe(workdir)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
