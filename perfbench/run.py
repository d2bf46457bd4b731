"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload digamma-edge --seed 0 --seconds 20 --trace 0

Workloads: ``digamma-edge``, ``nsga2-pareto-3level``, ``fig5-sweep`` (see
``perfbench/README.md``).  A run repeats rounds of the workload's three
passes (``plain``, ``cold``, ``warm``) until ``--seconds`` would be
exceeded, at least one round.  With ``--trace 0`` it reports the
end-to-end metrics (medians over rounds); with ``--trace 1`` it runs one
untraced ``plain`` pass and one traced round and reports per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

The exit code is 0 whenever a result was printed (check ``correct``), and
non-zero when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import SUMMARY_UNITS, measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    summary = result.pop("summary")
    for error in summary.pop("errors"):
        print(f"FAILED: {error}", file=sys.stderr)
    summary.pop("span_sums_ns", None)
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for name, value in summary.items():
        print(f"{args.workload} {name} {value:.6g} {SUMMARY_UNITS[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
