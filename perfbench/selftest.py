"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload untraced and traced in this process with shrunken
constants, and checks that every metric name matches
``[A-Za-z0-9_.-]+``, that every metric has a unit, and that each run
emits exactly its set of metrics from BENCHMARK.json.  Also checks
BENCHMARK.json against the benchmark contract's limits, and that the
benchmark refuses to run (non-zero exit, no result line) in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import time

import run

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def shrink() -> None:
    """Tiny sizes for every workload; the code paths stay the same."""
    import campaign
    import ms_loop
    import probes
    import serving

    ms_loop.N_TRAINING_SPECTRA = 160
    ms_loop.WARMUP_SPECTRA = 64
    campaign.SAMPLE_SIZES = (100, 200, 300)
    campaign.WARMUP_SHRINK = 2
    serving.POOL = 64
    serving.WARMUP_REQUESTS = 100
    serving.BLOCK = 100
    probes.NMR_SPECTRA = 16
    probes.IHM_SPECTRA = 1


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and ".." not in path
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def run_once(workload: str, trace: int, expected: dict) -> float:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)])
    elapsed = time.perf_counter() - start
    lines = out.getvalue().strip().splitlines()
    assert code == 0, (workload, trace, lines[-3:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        workload, trace, sorted(set(metrics) ^ set(expected)))
    for name, entry in metrics.items():
        assert NAME.match(name), name
        assert entry["unit"] == expected[name] and UNIT.match(entry["unit"])
        assert isinstance(entry["value"], float), (name, entry)
    if trace == 0:
        zero = [name for name, entry in metrics.items() if entry["value"] == 0]
        assert not zero, f"end-to-end metrics read 0: {zero}"
    return elapsed


def check_refuses_without_program() -> None:
    """In a directory with only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result line."""
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ms-loop",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0, proc.returncode
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_refuses_without_program()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    work = run.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run._environment(work)
    shrink()
    try:
        for workload in run.WORKLOADS:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                elapsed = run_once(workload, trace, expected)
                print(f"ok  {workload:<10} trace={trace}  {elapsed:5.1f} s",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
