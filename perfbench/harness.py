"""Shared pieces of the benchmark: metric catalogue, statistics, set-up
timing, memory, the run header and the result line.

Every workload module exposes ``setup(seed)``, ``measure(state, seconds)``
and ``trace_layers(state, seconds, recorder)``, which return plain
numbers; this module turns them into named metrics with units.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(RuntimeError):
    """An output check failed: the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` for ``kind`` in ``("end_to_end", "per_layer")``."""
    return {entry["name"]: entry["unit"] for entry in load_spec()[kind]}


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def calm(values: Sequence[float]) -> float:
    """Lower quartile of a run's repeat times, rates or window latencies.

    Other tenants of a shared host slow it by 20-40 % for seconds to
    minutes at a time, which moves a mean or a pooled tail with the share
    of slow time in the run; the lower quartile moves only if three
    quarters of the run were slow.  A change to the program moves every
    repeat, so it still shows.
    """
    return percentile(values, 25)


def windowed(windows: Sequence[Sequence[float]], q: float) -> float:
    """``calm`` over windows of each window's ``q``-th percentile."""
    return calm([percentile(window, q) for window in windows])


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def repeat_until(seconds: float, body: Callable[[int], float],
                 minimum: int = 1) -> int:
    """Call ``body(i)`` until ``seconds`` of wall time are used.

    ``body`` returns its own duration; another call starts only if the
    last one would still fit, so a run ends near ``seconds`` instead of
    overshooting by a whole repeat.  Returns the number of calls.
    """
    start = time.perf_counter()
    count = 0
    while True:
        last = body(count)
        count += 1
        used = time.perf_counter() - start
        if count >= minimum and used + last > seconds:
            return count


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process (plus its largest waited-for
    child process), in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# -- run header ----------------------------------------------------------------


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas": _blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


# -- result line ---------------------------------------------------------------


def metrics_block(values: Dict[str, float], kind: str) -> Dict[str, dict]:
    """Attach units from BENCHMARK.json; the names must match exactly."""
    units = metric_units(kind)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"{kind} metrics do not match BENCHMARK.json: "
            f"missing {missing}, unexpected {extra}"
        )
    block = {}
    for name in units:
        value = float(values[name])
        if not math.isfinite(value):
            raise CheckFailed(f"metric {name} is not finite: {value}")
        block[name] = {"value": value, "unit": units[name]}
    return block


def fill_unexercised(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    names = metric_units("per_layer")
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    return {name: values.get(name, 0.0) for name in names}


def print_report(header: dict, notes: List[str], block: Dict[str, dict]) -> None:
    """Human-readable lines before the result line."""
    print("# " + json.dumps(header, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    width = max((len(name) for name in block), default=0)
    for name, entry in block.items():
        print(f"{name:<{width}}  {entry['value']:.6g} {entry['unit']}")
