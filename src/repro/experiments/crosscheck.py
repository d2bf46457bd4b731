"""Cross-backend agreement check (``repro crosscheck``).

Prices one random (repaired) design sample on both cost backends — the
analytic MAESTRO-style engine and the independently coded ZigZag-style
memory-centric model (:mod:`repro.cost.zigzag`) — and gates their
per-objective deltas.  Two independent implementations agreeing within the
documented envelope is a correctness oracle a single model cannot provide:
a bug in shared geometry (footprints, buffer sizing, PE counting) or in
either engine's loop analysis breaks one of the gates.

Documented tolerance
--------------------

The backends share footprint geometry, buffer sizing, PE counting and the
energy coefficient structure, but count data movement differently (the
analytic engine scans the concrete loop order; ZigZag-style counting
assumes maximal per-operand stationarity, a *lower bound* on the
order-aware count) and the analytic engine adds a pipeline-fill latency
term.  The gates encode exactly that relationship:

* **area** — agrees exactly (relative delta <= 1e-12 per design), and the
  two backends must agree on which designs are valid.  Area is a pure
  function of the shared geometry.
* **compute cycles** — agree exactly (relative delta <= 1e-9 per design):
  both engines count the same total loop trips.
* **lower bound** — zigzag latency and energy never exceed the analytic
  value (per design, within float slack): stationarity can only remove
  traffic, and dropping the fill term can only shorten latency.
* **latency** — median relative delta <= ``--tolerance`` (default 0.35)
  and Spearman rank correlation >= ``--min-rank-corr`` (default 0.9):
  compute-bound designs agree almost exactly, traffic-bound ones diverge,
  and both backends must still *order* designs consistently.
* **energy** — reported (median / p90 / max deltas and rank correlation)
  but not magnitude-gated: energy is dominated by the traffic counts the
  two models intentionally disagree on; the lower-bound gate above is the
  invariant that must hold.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.platform import get_platform
from repro.encoding.genome_matrix import GenomeMatrix, repaired_matrix
from repro.framework.evaluator import DesignEvaluator
from repro.workloads.registry import get_model

#: Per-design relative slack on the exact-agreement and bound gates.
EXACT_TOLERANCE = 1e-12
COMPUTE_TOLERANCE = 1e-9
BOUND_SLACK = 1e-9

#: Default gates on the latency distribution (see module docstring).
DEFAULT_TOLERANCE = 0.35
DEFAULT_MIN_RANK_CORR = 0.9

DEFAULT_DESIGNS = 120


def _relative_deltas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.abs(a - b) / scale

def _rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (1.0 when either side is constant-rank)."""
    rank_a = np.argsort(np.argsort(a)).astype(np.float64)
    rank_b = np.argsort(np.argsort(b)).astype(np.float64)
    rank_a -= rank_a.mean()
    rank_b -= rank_b.mean()
    norm = np.sqrt((rank_a**2).sum() * (rank_b**2).sum())
    if norm == 0.0:
        return 1.0
    return float((rank_a * rank_b).sum() / norm)


def _stats_line(label: str, deltas: np.ndarray, rho: float) -> str:
    return (
        f"  {label:<8} rel delta median {np.median(deltas):.2e}  "
        f"p90 {np.quantile(deltas, 0.9):.2e}  max {deltas.max():.2e}  "
        f"rank corr {rho:+.3f}"
    )


def run_crosscheck(
    model_name: str = "resnet18",
    platform_name: str = "edge",
    designs: int = DEFAULT_DESIGNS,
    num_levels: int = 2,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    min_rank_corr: float = DEFAULT_MIN_RANK_CORR,
    out=None,
) -> int:
    """Price ``designs`` random designs on both backends and gate the deltas.

    Returns the process exit code: 0 on agreement, 1 with one line per
    violated gate otherwise.
    """
    if designs < 2:
        raise ValueError(f"designs must be >= 2, got {designs}")
    if out is None:
        out = sys.stdout
    model = get_model(model_name)
    platform = get_platform(platform_name)
    evaluators = {
        backend: DesignEvaluator(
            model=model, platform=platform, backend=backend
        )
        for backend in ("analytic", "zigzag")
    }
    space = evaluators["analytic"].genome_space(num_levels=num_levels)
    rng = np.random.default_rng(seed)
    genomes = space.random_population(designs, rng)
    matrix = repaired_matrix(GenomeMatrix.from_genomes(genomes), space)

    results = {
        backend: evaluator.evaluate_matrix(matrix, workers=1)
        for backend, evaluator in evaluators.items()
    }
    values = {
        backend: {
            "latency": np.array([r.design.latency for r in rs]),
            "energy": np.array([r.design.energy for r in rs]),
            "area": np.array([r.design.area.total for r in rs]),
            "compute": np.array(
                [
                    sum(
                        layer.compute_cycles * layer.count
                        for layer in r.design.performance.layers
                    )
                    for r in rs
                ]
            ),
            "valid": np.array([r.valid for r in rs]),
        }
        for backend, rs in results.items()
    }
    analytic, zigzag = values["analytic"], values["zigzag"]

    failures: List[str] = []
    if not np.array_equal(analytic["valid"], zigzag["valid"]):
        differing = int((analytic["valid"] != zigzag["valid"]).sum())
        failures.append(
            f"validity: backends disagree on {differing} of {designs} designs"
        )

    area_deltas = _relative_deltas(analytic["area"], zigzag["area"])
    if area_deltas.max() > EXACT_TOLERANCE:
        failures.append(
            f"area: max relative delta {area_deltas.max():.2e} "
            f"> {EXACT_TOLERANCE:.0e} (shared geometry must agree exactly)"
        )
    compute_deltas = _relative_deltas(analytic["compute"], zigzag["compute"])
    if compute_deltas.max() > COMPUTE_TOLERANCE:
        failures.append(
            f"compute cycles: max relative delta {compute_deltas.max():.2e} "
            f"> {COMPUTE_TOLERANCE:.0e}"
        )
    for objective in ("latency", "energy"):
        bound = analytic[objective] * (1.0 + BOUND_SLACK)
        violations = int((zigzag[objective] > bound).sum())
        if violations:
            failures.append(
                f"{objective}: zigzag exceeds the analytic value on "
                f"{violations} of {designs} designs (stationarity must be "
                f"a lower bound)"
            )

    latency_deltas = _relative_deltas(analytic["latency"], zigzag["latency"])
    latency_median = float(np.median(latency_deltas))
    latency_rho = _rank_correlation(analytic["latency"], zigzag["latency"])
    if latency_median > tolerance:
        failures.append(
            f"latency: median relative delta {latency_median:.3f} "
            f"> tolerance {tolerance}"
        )
    if latency_rho < min_rank_corr:
        failures.append(
            f"latency: rank correlation {latency_rho:.3f} "
            f"< {min_rank_corr}"
        )

    energy_deltas = _relative_deltas(analytic["energy"], zigzag["energy"])
    energy_rho = _rank_correlation(analytic["energy"], zigzag["energy"])

    print(
        f"crosscheck: {model_name} on {platform_name}, {designs} designs, "
        f"{num_levels} levels, seed {seed}",
        file=out,
    )
    print(_stats_line("area", area_deltas, _rank_correlation(
        analytic["area"], zigzag["area"])), file=out)
    print(_stats_line("latency", latency_deltas, latency_rho), file=out)
    print(_stats_line("energy", energy_deltas, energy_rho), file=out)
    if failures:
        print("crosscheck FAILED:", file=out)
        for failure in failures:
            print(f"  - {failure}", file=out)
        return 1
    print(
        f"crosscheck OK: backends agree within tolerance "
        f"(latency median delta {latency_median:.3f} <= {tolerance}, "
        f"rank corr {latency_rho:.3f} >= {min_rank_corr}, area exact)",
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro crosscheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--model", default="resnet18")
    parser.add_argument(
        "--platform", choices=("edge", "cloud"), default="edge"
    )
    parser.add_argument(
        "--designs",
        type=int,
        default=DEFAULT_DESIGNS,
        help=f"sample size (default: {DEFAULT_DESIGNS})",
    )
    parser.add_argument(
        "--num-levels",
        type=int,
        default=2,
        help="hierarchy depth of the sampled designs (default: 2)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="gate on the median relative latency delta "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--min-rank-corr",
        type=float,
        default=DEFAULT_MIN_RANK_CORR,
        help="gate on the latency rank correlation "
        f"(default: {DEFAULT_MIN_RANK_CORR})",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_crosscheck(
        model_name=args.model,
        platform_name=args.platform,
        designs=args.designs,
        num_levels=args.num_levels,
        seed=args.seed,
        tolerance=args.tolerance,
        min_rank_corr=args.min_rank_corr,
    )


if __name__ == "__main__":
    raise SystemExit(main())
