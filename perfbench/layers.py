"""The layers the traced run times, and the per-layer metrics it reports.

Each layer is named after the ``repro`` module whose public entry points
bound it.  Times are self times (a layer's spans minus the spans of the
layers it calls); counts and ratios are read from the program's own public
counters (``design_cache_stats``, ``layer_cache_stats``,
``cost_model.vector_stats``, ``PersistentLayerCache.counters()``, the
search trackers' ``generation``/``batch_calls``) or counted at the wrapped
boundaries (calls, the bool returned by ``ParetoArchive.add``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from perfbench.spans import ROOT_LAYER, EntryPoint, Tracer

#: ``(metric suffix, unit)`` of every per-pass layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("optim.self_s", "s"),
    ("optim.generations", "count"),
    ("framework.cooptimizer.self_s", "s"),
    ("framework.search.self_s", "s"),
    ("framework.search.batch_calls", "count"),
    ("encoding.repair_s", "s"),
    ("encoding.repair_calls", "count"),
    ("framework.evaluator.self_s", "s"),
    ("framework.evaluator.design_hit_ratio", "ratio"),
    ("framework.evaluator.delta_member_reuse_ratio", "ratio"),
    ("cost.maestro.self_s", "s"),
    ("cost.maestro.layer_hit_ratio", "ratio"),
    ("cost.maestro.delta_row_reuse_ratio", "ratio"),
    ("cost.maestro.scalar_designs", "count"),
    ("cost.vector_engine.busy_s", "s"),
    ("cost.vector_engine.rows", "count"),
    ("cost.vector_engine.fallback_rows", "count"),
    ("framework.pareto.add_s", "s"),
    ("framework.pareto.accept_ratio", "ratio"),
    ("cost.persist.get_s", "s"),
    ("cost.persist.put_s", "s"),
    ("cost.persist.flush_s", "s"),
    ("cost.persist.hit_ratio", "ratio"),
    ("cost.persist.bytes", "bytes"),
    ("framework.checkpoint.save_s", "s"),
    ("framework.checkpoint.saves", "count"),
    ("experiments.runner.self_s", "s"),
    ("experiments.runner.append_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
)

#: Layer (span attribution) -> the self-time metric it reports under.
_TIME_METRICS: Dict[str, str] = {
    "optim": "optim.self_s",
    "framework.cooptimizer": "framework.cooptimizer.self_s",
    "framework.search": "framework.search.self_s",
    "encoding.repair": "encoding.repair_s",
    "framework.evaluator": "framework.evaluator.self_s",
    "cost.maestro": "cost.maestro.self_s",
    "cost.vector_engine": "cost.vector_engine.busy_s",
    "framework.pareto": "framework.pareto.add_s",
    "cost.persist.get": "cost.persist.get_s",
    "cost.persist.put": "cost.persist.put_s",
    "cost.persist.flush": "cost.persist.flush_s",
    "framework.checkpoint": "framework.checkpoint.save_s",
    "experiments.runner": "experiments.runner.self_s",
    "experiments.runner.append": "experiments.runner.append_s",
}


def _methods(module: str, owner: str, layer: str, names, **options) -> List[EntryPoint]:
    return [
        EntryPoint(module, name, layer, owner=owner, **options) for name in names
    ]


def entry_points() -> List[EntryPoint]:
    """Every wrapped entry point; imports the ``repro`` modules it names."""
    from repro.optim.base import Optimizer
    import repro.optim.registry  # noqa: F401 — registers every optimizer class

    optimizers = []
    pending = list(Optimizer.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and cls.__module__.startswith("repro."):
            optimizers.append(
                EntryPoint(cls.__module__, "run", "optim", owner=cls.__qualname__)
            )
    optimizers.sort(key=lambda entry: entry.name)
    return optimizers + [
        *_methods(
            "repro.framework.cooptimizer",
            "CoOptimizationFramework",
            "framework.cooptimizer",
            ("search", "pareto_search", "close"),
        ),
        *_methods(
            "repro.framework.search",
            "SearchTracker",
            "framework.search",
            (
                "evaluate_genome",
                "evaluate_vector",
                "evaluate_batch",
                "evaluate_batch_results",
                "evaluate_matrix",
                "evaluate_matrix_results",
                "evaluate_vector_batch",
                "checkpoint_generation",
            ),
            collect="tracker",
        ),
        EntryPoint("repro.encoding.repair", "repaired_copy", "encoding.repair"),
        EntryPoint(
            "repro.encoding.genome_matrix", "repaired_matrix", "encoding.repair"
        ),
        *_methods(
            "repro.framework.evaluator",
            "DesignEvaluator",
            "framework.evaluator",
            ("evaluate_matrix", "evaluate_population", "evaluate_genome"),
            collect="evaluator",
        ),
        *_methods(
            "repro.cost.maestro",
            "CostModel",
            "cost.maestro",
            ("evaluate_model_matrix", "evaluate_model_batch", "evaluate_model"),
            collect="cost_model",
        ),
        *_methods(
            "repro.cost.vector_engine",
            "VectorEngine",
            "cost.vector_engine",
            ("evaluate_packed", "evaluate_rows"),
        ),
        EntryPoint(
            "repro.framework.pareto",
            "add",
            "framework.pareto",
            owner="ParetoArchive",
            record_result=True,
        ),
        EntryPoint(
            "repro.cost.persist",
            "get",
            "cost.persist.get",
            owner="PersistentLayerCache",
            collect="tier",
        ),
        EntryPoint(
            "repro.cost.persist",
            "put",
            "cost.persist.put",
            owner="PersistentLayerCache",
            collect="tier",
        ),
        # close() flushes and rewrites the index sidecar: disk writes.
        *_methods(
            "repro.cost.persist",
            "PersistentLayerCache",
            "cost.persist.flush",
            ("flush", "close"),
            collect="tier",
        ),
        EntryPoint(
            "repro.framework.checkpoint",
            "save",
            "framework.checkpoint",
            owner="CheckpointSession",
        ),
        *_methods(
            "repro.framework.checkpoint",
            "CheckpointStore",
            "framework.checkpoint",
            ("save", "load", "clear"),
        ),
        EntryPoint(
            "repro.experiments.runner",
            "run",
            "experiments.runner",
            owner="SweepRunner",
        ),
        *_methods(
            "repro.experiments.runner",
            "ResultStore",
            "experiments.runner.append",
            ("append", "append_failure"),
        ),
    ]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pass_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the pass the tracer just recorded.

    Keys are the :data:`LAYER_METRICS` suffixes; the caller prefixes them
    with the pass name.
    """
    self_ns = tracer.self_times_ns()
    wall_ns = tracer.root_wall_ns()
    metrics: Dict[str, float] = {
        metric: self_ns.get(layer, 0) / 1e9 for layer, metric in _TIME_METRICS.items()
    }
    objects = tracer.objects
    trackers = objects.get("tracker", {}).values()
    evaluators = objects.get("evaluator", {}).values()
    cost_models = list(objects.get("cost_model", {}).values())
    tiers = list(objects.get("tier", {}).values())

    metrics["optim.generations"] = sum(tracker.generation for tracker in trackers)
    metrics["framework.search.batch_calls"] = sum(
        tracker.batch_calls for tracker in trackers
    )
    metrics["encoding.repair_calls"] = tracer.calls("repaired_copy") + tracer.calls(
        "repaired_matrix"
    )

    design_hits = design_requests = 0
    for evaluator in evaluators:
        stats = evaluator.design_cache_stats
        design_hits += stats.hits
        design_requests += stats.requests
    metrics["framework.evaluator.design_hit_ratio"] = _ratio(
        design_hits, design_requests
    )

    totals: Dict[str, int] = {}
    for cost_model in cost_models:
        for key, value in cost_model.vector_stats.items():
            totals[key] = totals.get(key, 0) + value
    metrics["framework.evaluator.delta_member_reuse_ratio"] = _ratio(
        totals.get("delta_members_reused", 0), totals.get("delta_member_requests", 0)
    )
    metrics["cost.maestro.delta_row_reuse_ratio"] = _ratio(
        totals.get("delta_rows_reused", 0), totals.get("delta_row_requests", 0)
    )
    metrics["cost.vector_engine.rows"] = totals.get("rows_vectorized", 0)
    metrics["cost.vector_engine.fallback_rows"] = totals.get("rows_fallback", 0)

    # Adopted layer caches are shared between cost models: count each once.
    layer_caches = {id(model.layer_cache): model for model in cost_models}
    layer_hits = layer_requests = 0
    for model in layer_caches.values():
        stats = model.cache_stats
        layer_hits += stats.hits
        layer_requests += stats.requests
    metrics["cost.maestro.layer_hit_ratio"] = _ratio(layer_hits, layer_requests)
    metrics["cost.maestro.scalar_designs"] = tracer.calls("CostModel.evaluate_model")

    metrics["framework.pareto.accept_ratio"] = _ratio(
        tracer.truthy_results["ParetoArchive.add"], tracer.calls("ParetoArchive.add")
    )

    l2_hits = l2_requests = 0
    for tier in tiers:
        counters = tier.counters()
        l2_hits += counters["l2_hits"]
        l2_requests += counters["l2_hits"] + counters["l2_misses"]
    metrics["cost.persist.hit_ratio"] = _ratio(l2_hits, l2_requests)
    data_files = {os.fspath(tier.data_path) for tier in tiers}
    metrics["cost.persist.bytes"] = sum(
        os.path.getsize(path) for path in data_files if os.path.exists(path)
    )

    metrics["framework.checkpoint.saves"] = tracer.calls("CheckpointStore.save")
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.coverage"] = _ratio(wall_ns - self_ns.get(ROOT_LAYER, 0), wall_ns)
    return metrics
