"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ms-loop --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` with no metrics and exits with code 1.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"  # everything a run writes goes here
WORKLOADS = ("ms-loop", "campaign", "serve-ms")
SETUP_REPEATS = 3  # setup_s reports the median set-up


def _environment(work: Path) -> None:
    """Pin BLAS to one thread (steady numbers; the campaign's worker pool
    would otherwise oversubscribe the cores) and keep temporary files
    inside the checkout.  Must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["TMPDIR"] = str(work)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def _workload(name: str):
    """``(setup(seed), measure, trace_layers, teardown)`` of one workload."""
    if name == "ms-loop":
        import ms_loop as module

        return module.setup, module.measure, module.trace_layers, lambda s: None
    if name == "campaign":
        import campaign as module
    else:
        import serving as module
    return module.setup, module.measure, module.trace_layers, module.teardown


def _freeze_heap() -> None:
    """Move everything alive after set-up (modules, models, traffic) out
    of the collector's reach, so a full collection in the timed window
    walks only what the window allocated: a 40 ms pause over the set-up
    heap otherwise stalls the open-loop generator."""
    gc.collect()
    gc.freeze()


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    _environment(work)

    import harness
    from tracing import SpanRecorder

    try:
        setup, measure, trace_layers, teardown = _workload(args.workload)
        import_s = time.perf_counter() - PROCESS_START
        header = harness.run_header(
            args.workload, args.seed, args.seconds, args.trace
        )
        try:
            if args.trace:
                state = setup(args.seed)
                _freeze_heap()
                recorder = SpanRecorder()
                values, overhead, attempted, notes = trace_layers(
                    state, args.seconds, recorder
                )
                recorder.dump(WORK_DIR / f"spans-{args.workload}.jsonl")
                notes.append(f"{len(recorder.spans)} spans recorded")
                import probes

                values.update(probes.measure(args.seed))
                values["trace.overhead_pct"] = overhead
                values = harness.fill_unexercised(values)
                block = harness.metrics_block(values, "per_layer")
                failed = values.get("serving.failed", 0)
            else:
                setups = []
                for repeat in range(SETUP_REPEATS):
                    state, seconds = harness.timed(setup, args.seed)
                    setups.append(seconds)
                    if repeat < SETUP_REPEATS - 1:
                        teardown(state)
                        del state
                        gc.collect()  # peak memory: one set-up, not two
                _freeze_heap()
                values, attempted, failed, notes = measure(state, args.seconds)
                values["setup_s"] = import_s + harness.median(setups)
                values.setdefault("peak_rss_mb", harness.peak_rss_mb())
                notes.append(
                    f"setup_s = imports {import_s:.3f} s + median set-up of "
                    + ", ".join(f"{s:.3f}" for s in setups)
                )
                block = harness.metrics_block(values, "end_to_end")
        except harness.CheckFailed as error:
            print(f"# output check failed: {error}")
            print(_result(False, 1, 1, {}))
            return 1
        harness.print_report(header, notes, block)
        print(_result(True, attempted, failed, block))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
