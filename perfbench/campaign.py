"""Workload ``campaign``: a cold Fig-5/6 grid through ``SweepOrchestrator``.

2 activation pairs x n_train 1000/3000/9000 x 2 MLP stacks = 12 cells at
8 epochs on ``ParallelExecutor("process")``, run as ``repro.cli sweep
run`` does it: ``prewarm_datasets()`` then ``run()``.  Each grid gets a
fresh ``ArtifactCache`` and journal, so every grid is cold.  This is the
only workload that runs the warm pool, chunked dispatch, waves, the
journal, cache writes and verified re-reads.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import calm, check, peak_rss_mb, repeat_until, windowed

from repro.compute import ArtifactCache, ParallelExecutor
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS
from repro.orchestration import SweepOrchestrator, report_json
from repro.orchestration.campaign import CampaignSpec
from repro.storage.journal import Journal

ACTIVATIONS = (("relu", "softmax"), ("selu", "softmax"))
SAMPLE_SIZES = (1000, 3000, 9000)
STACKS = ((32,), (64, 32))
EPOCHS = 8
# The set-up grid has the same cells at a fifth of the sample sizes and
# another seed: it warms every worker without warming the timed grid.
WARMUP_SHRINK = 5
PHASES = ("pool_startup_s", "dispatch_s", "task_compute_s", "result_wait_s")


def _spec(seed: int, sample_sizes=None) -> CampaignSpec:
    return CampaignSpec(
        compounds=tuple(DEFAULT_TASK_COMPOUNDS), activations=ACTIVATIONS,
        sample_sizes=sample_sizes or SAMPLE_SIZES, topologies=STACKS,
        epochs=EPOCHS, seed=seed,
    )


class _MapLog:
    """Times every ``map_tasks`` call (one per wave) and keeps its phase
    stats; wraps the executor instance the benchmark built."""

    def __init__(self, executor: ParallelExecutor):
        self.calls = []  # (wall seconds, last_map_stats)
        original = executor.map_tasks

        def map_tasks(*args, **kwargs):
            start = time.perf_counter()
            rows = original(*args, **kwargs)
            self.calls.append(
                (time.perf_counter() - start, dict(executor.last_map_stats))
            )
            return rows

        executor.map_tasks = map_tasks


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    grid_seed, warm_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    executor = ParallelExecutor("process", max_workers=os.cpu_count() or 1)
    log = _MapLog(executor)
    state = {"spec": _spec(grid_seed), "executor": executor, "log": log,
             "grids": 0}
    _grid(state, _spec(warm_seed, tuple(n // WARMUP_SHRINK for n in SAMPLE_SIZES)))
    return state


def teardown(state: dict) -> None:
    state["executor"].close()


def _orchestrator(state: dict, spec: CampaignSpec) -> SweepOrchestrator:
    state["grids"] += 1
    root = Path(tempfile.gettempdir()) / f"campaign-{state['grids']}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return SweepOrchestrator(
        spec, ArtifactCache(root / "cache"),
        journal_path=str(root / "journal.log"), executor=state["executor"],
    )


def _grid(state: dict, spec: CampaignSpec):
    """One cold grid; ``(orchestrator, result, seconds)``."""
    orchestrator = _orchestrator(state, spec)
    start = time.perf_counter()
    orchestrator.prewarm_datasets()
    result = orchestrator.run()
    return orchestrator, result, time.perf_counter() - start


def _check_grid(orchestrator, result) -> str:
    """Resume re-opens the grid: byte-identical report, nothing recomputed."""
    cells = len(orchestrator.cells())
    check(result.computed == cells and result.cached == 0,
          f"cold grid computed {result.computed}/{cells}, cached {result.cached}")
    cold = report_json(result.report)
    resumed = orchestrator.run(resume=True)
    check(resumed.computed == 0 and resumed.cached == cells,
          f"resume recomputed {resumed.computed} cells")
    check(report_json(resumed.report) == cold,
          "resumed report_json differs from the cold run's")
    records, _ = Journal(orchestrator.journal_path).replay()
    done = [r["cell_id"] for r in records if r.get("event") == "cell_completed"]
    check(len(done) == cells and len(set(done)) == cells,
          f"journal records {len(done)} completions for {cells} cells")
    return cold


def measure(state: dict, seconds: float):
    spec = state["spec"]
    log = state["log"]
    times, waves, reports = [], [], []  # waves: one list per grid
    failed = [0]

    def body(_index: int) -> float:
        first_call = len(log.calls)
        orchestrator, result, elapsed = _grid(state, spec)
        times.append(elapsed)
        waves.append([wall for wall, _stats in log.calls[first_call:]])
        failed[0] += result.failed
        reports.append(_check_grid(orchestrator, result))
        shutil.rmtree(orchestrator.cache.root.parent, ignore_errors=True)
        return elapsed

    grids = repeat_until(seconds, body, minimum=3)
    check(len(set(reports)) == 1, "cold grids of one spec disagree")
    rows = json.loads(reports[0])["rows"]
    cells = len(spec.cells())
    teardown(state)
    grid_s = calm(times)
    values = {
        "time_to_result_s": grid_s,
        "result_mae": float(np.mean([row["mae"] for row in rows])),
        "p50_ms": 1000 * windowed(waves, 50),
        "p90_ms": 1000 * windowed(waves, 90),
        "saturation_rps": cells / grid_s,
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }
    notes = [
        f"grids: {grids}; time_to_result_s per grid: "
        + ", ".join(f"{t:.3f}" for t in times),
        f"p50/p90 over the {len(waves[0])} wave latencies of each grid; "
        f"saturation_rps = {cells} cells / grid time; times, rates and "
        f"percentiles are lower quartiles over the run's grids",
    ]
    return values, grids * cells, failed[0], notes


# -- traced run ------------------------------------------------------------------


def trace_layers(state: dict, seconds: float, recorder):
    spec = state["spec"]
    log = state["log"]
    startup = sum(stats.get("pool_startup_s", 0.0) for _w, stats in log.calls)
    _o, _r, untraced = _grid(state, spec)
    orchestrator = _orchestrator(state, spec)
    recorder.wrap(orchestrator, "prewarm_datasets", "orchestration.prewarm")
    recorder.wrap(orchestrator, "run", "orchestration.run")
    recorder.wrap(orchestrator, "report", "orchestration.report")
    first_call = len(log.calls)
    recorder.wrap(state["executor"], "map_tasks", "compute.map")
    start = time.perf_counter()
    orchestrator.prewarm_datasets()
    result = orchestrator.run()
    traced = time.perf_counter() - start
    orchestrator.report()
    grid_calls = log.calls[first_call:]
    totals = recorder.summary()
    phases = {p: sum(stats[p] for _w, stats in grid_calls) for p in PHASES}
    run_s = totals["orchestration.run"]["total_s"]
    workers = state["executor"].max_workers
    cache = orchestrator.cache
    records, _ = Journal(orchestrator.journal_path).replay()
    values = {
        "compute.pool_startup_s": startup,
        "compute.dispatch_s": phases["dispatch_s"],
        "compute.task_compute_s": phases["task_compute_s"],
        "compute.result_wait_s": phases["result_wait_s"],
        "compute.parallel_efficiency": phases["task_compute_s"] / (workers * run_s),
        "orchestration.prewarm_s": totals["orchestration.prewarm"]["total_s"],
        "orchestration.waves": len(grid_calls),
        "orchestration.report_s": totals["orchestration.report"]["total_s"],
        "orchestration.cells_computed": result.computed,
        "orchestration.cells_failed": result.failed,
        "compute.cache.hits": cache.hits,
        "compute.cache.misses": cache.misses,
        "compute.cache.bytes": cache.total_bytes(),
        "storage.journal_records": len(records),
    }
    teardown(state)
    overhead = 100 * (traced - untraced) / untraced
    notes = [
        f"untraced grid {untraced:.3f} s, traced {traced:.3f} s "
        f"(tracing overhead {overhead:.1f} %); worker-side time comes from "
        f"the executor's phase stats",
        "cache hits and misses are the parent's ArtifactCache (prewarm); "
        "workers and the report's re-read open their own instances",
    ]
    return values, overhead, 2 * len(spec.cells()), notes
