"""Workload ``serve-ms``: one ``AnalysisService``, one generator thread,
one service worker.

The Table-1 CNN, frozen to float32, is served behind the batched drain
path, where engine kernels and the coalescing hold dominate.

Phase A is an open loop: seeded Poisson arrivals at a fixed rate, latency
timed from each request's *scheduled* send time, and the generator never
waits on a result while it sends.  Phase B is a closed loop that keeps
between half a window and a window of requests outstanding (never more
than the queue holds, so nothing is shed) and measures completed
requests per second.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from harness import calm, check, median, percentile, windowed

from repro.core import table1_topology
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis
from repro.observability import MetricsRegistry, Tracer
from repro.serving import AnalysisService, BatchingPolicy, Completed
from repro.serving.batching import batch_analyzer_from_model

# A run alternates phase A and phase B slices of equal length, so each
# phase samples the whole run rather than one half of it: other tenants
# slow this host for seconds at a time.
ROUNDS = 5
MAX_PHASE_A_S = 30.0  # arrivals drawn at set-up cover the longest phase A
POOL = 1024  # distinct traffic spectra, cycled in order
# Warm-up requests: enough to fill the default tracer's span buffer, so the
# timed phases see the service's steady state.
WARMUP_REQUESTS = 2500
DEADLINE_S = 1.0
# Phase-A offered load, about an eighth of capacity: most requests find
# the worker idle, so a latency is the coalescing hold plus one small
# batch.  At 600 req/s requests queued behind each other's batches, and
# a busy neighbour on the host moved p90 by 60 % where throughput moved
# by 20 %.
RATE_RPS = 300.0
WINDOW = 64  # phase-B requests outstanding: two full batches
BLOCK = 1000  # requests per phase-B job
# Phase-A latencies are summarised per window of this many consecutive
# requests (a second at RATE_RPS, 30 above its p90); p50_ms and p90_ms
# are the lower quartiles of the window percentiles (``harness.calm``).
WINDOW_REQUESTS = 300
# Seconds of phase-A arrivals: a stall of the generator or the host
# followed by a catch-up burst sheds nothing.  Larger than the phase-B
# window, so phase B sheds nothing either.
QUEUE_SIZE = 1024
FLOAT32_CONTRACT = 1e-5  # the frozen plan's MAE budget vs float64
MODEL_SEED = 0  # the served weights are part of the program, not the input
LENGTH = MzAxis(1.0, 50.0, 0.1).size  # 491 points, the paper's m/z axis


def _traffic(rng):
    simulator = MassSpectrometerSimulator(
        InstrumentCharacteristics(), MzAxis(1.0, 50.0, 0.1), default_library()
    )
    return simulator.generate_dataset(DEFAULT_TASK_COMPOUNDS, POOL, rng)


def _build():
    """``(analyzer, batch_analyzer, model)`` over the frozen Table-1 CNN."""
    model = table1_topology(len(DEFAULT_TASK_COMPOUNDS)).build(
        (LENGTH,), seed=MODEL_SEED
    )
    batch_analyzer = batch_analyzer_from_model(model, frozen="float32")
    check(batch_analyzer.frozen_dtype == "float32", "model did not freeze")

    def analyzer(row):
        return batch_analyzer(row[None])[0]

    return analyzer, batch_analyzer, model


def _service(analyzer, batch_analyzer, label, **telemetry):
    return AnalysisService(
        analyzer, workers=1, queue_size=QUEUE_SIZE,
        default_deadline_s=DEADLINE_S, expected_length=LENGTH,
        name=f"perfbench-serve-ms-{label}", batching=BatchingPolicy(),
        batch_analyzer=batch_analyzer, **telemetry,
    ).start()


# -- load generation ---------------------------------------------------------------


class _Log:
    """Outcomes of a phase, kept as arrays: holding thousands of result
    objects would make every garbage collection in the timed window walk
    them."""

    def __init__(self):
        self.index = []  # pool rows of the Completed requests, per add()
        self.values = []  # their served values, one matrix per add()
        self.requests = 0
        self.failed = 0  # Rejected or Abstained
        self.latency = np.empty(0)  # from the scheduled send (phase A)
        self.late = np.empty(0)  # how late the generator sent (phase A)

    def add(self, indices, results) -> None:
        ok = [isinstance(result, Completed) for result in results]
        self.requests += len(results)
        self.failed += len(results) - sum(ok)
        kept = [result.value for result, good in zip(results, ok) if good]
        if kept:
            self.index.append(np.asarray(indices)[np.asarray(ok, dtype=bool)])
            self.values.append(np.stack(kept))

    def served(self):
        """``(pool rows, values)`` of every Completed request."""
        check(bool(self.values), "no request completed")
        return np.concatenate(self.index), np.concatenate(self.values)


def phase_a(service, x, arrivals, first, width, submit=None) -> _Log:
    """Open loop: send at each scheduled time and never wait on a result.

    Between sends the generator takes whatever the worker has already
    answered (in order, without blocking) and keeps only numbers, so the
    live heap stays small however long the phase runs.
    """
    submit = submit or (lambda i, row: service.submit(row))
    n = len(arrivals)
    index = (first + np.arange(n)) % len(x)
    late = np.empty(n)
    latency = np.empty(n)
    ok = np.zeros(n, dtype=bool)
    values = np.empty((n, width))
    pending = deque()

    def harvest(wait: bool) -> None:
        while pending and (wait or pending[0][1].resolved):
            i, handle = pending.popleft()
            result = handle.result()
            if isinstance(result, Completed):
                latency[i] = late[i] + handle.latency()
                ok[i] = True
                values[i] = result.value
            else:  # a refused request misses every latency limit
                latency[i] = np.inf

    t0 = time.perf_counter() + 0.005
    for i, offset in enumerate(arrivals):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[i] = time.perf_counter() - due
        pending.append((i, submit(first + i, x[index[i]])))
        harvest(wait=False)
    harvest(wait=True)
    log = _Log()
    log.requests = n
    log.failed = int(n - ok.sum())
    log.index, log.values = [index[ok]], [values[ok]]
    log.late, log.latency = late, latency
    return log


def phase_b(service, x, window, block, seconds, first, submit=None,
            min_jobs=3):
    """Closed loop in jobs of ``block`` requests; ``(log, seconds per job,
    next request number)``.

    The generator tops the outstanding requests up to ``window``, then
    sleeps until the oldest half of them has resolved: one wake-up per
    ``window / 2`` requests instead of one per request, so the generator
    thread takes the interpreter lock from the worker as rarely as the
    window allows.
    """
    submit = submit or (lambda i, row: service.submit(row))
    log = _Log()
    jobs = []
    sent = first
    start = time.perf_counter()
    while True:
        indices, results = [], []
        outstanding = deque()
        submitted = 0
        job_start = time.perf_counter()
        while submitted < block or outstanding:
            while submitted < block and len(outstanding) < window:
                index = sent % len(x)
                outstanding.append((index, submit(sent, x[index])))
                sent += 1
                submitted += 1
            # The worker answers in order: once this one resolves, every
            # request ahead of it has resolved too.
            outstanding[min(window // 2, len(outstanding)) - 1][1].result()
            while outstanding and outstanding[0][1].resolved:
                index, handle = outstanding.popleft()
                indices.append(index)
                results.append(handle.result())
        jobs.append(time.perf_counter() - job_start)
        log.add(indices, results)
        used = time.perf_counter() - start
        if len(jobs) >= min_jobs and used + jobs[-1] > seconds:
            return log, jobs, sent


def _arrivals(rng, rate, seconds):
    """Poisson send times, in seconds from the start of a phase."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    times = np.cumsum(gaps)
    return times[times < seconds]


def _schedule(state, start, stop):
    """The set-up's arrival times in ``[start, stop)``, from ``start``."""
    arrivals = state["arrivals"]
    return arrivals[(arrivals >= start) & (arrivals < stop)] - start


def _windows(latency) -> list:
    """Phase-A latencies in windows of ``WINDOW_REQUESTS`` requests."""
    return np.array_split(latency, max(1, len(latency) // WINDOW_REQUESTS))


def _merge(logs) -> _Log:
    merged = _Log()
    for log in logs:
        merged.index += log.index
        merged.values += log.values
        merged.requests += log.requests
        merged.failed += log.failed
    merged.latency = np.concatenate([log.latency for log in logs])
    merged.late = np.concatenate([log.late for log in logs])
    return merged


# -- set-up ------------------------------------------------------------------------


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    x, labels = _traffic(rng)
    arrivals = _arrivals(rng, RATE_RPS, MAX_PHASE_A_S)
    analyzer, batch_analyzer, model = _build()
    reference = model.predict(x, batch_size=32, validate=False)
    capacity = 1
    while capacity <= BatchingPolicy().max_batch:
        batch_analyzer(x[:capacity])  # one engine call per batch capacity
        capacity *= 2
    service = _service(analyzer, batch_analyzer, "timed")
    state = {
        "arrivals": arrivals, "x": x, "labels": labels,
        "analyzer": analyzer, "batch_analyzer": batch_analyzer,
        "reference": reference, "width": reference.shape[1],
        "service": service, "sent": 0,
    }
    warm = phase_b(service, x, WINDOW, WARMUP_REQUESTS, 0.0, 0, min_jobs=1)
    state["sent"] = warm[2]
    return state


def teardown(state: dict) -> None:
    state["service"].stop()


def _check(log: _Log, reference) -> int:
    """Check every served value against the float64 reference, within the
    frozen plan's float32 contract; returns the number of failed requests."""
    failed = log.failed
    late = log.latency[np.isfinite(log.latency)]  # refused ones are counted
    failed += int(np.sum(late > DEADLINE_S))  # phase A: answered too late
    index, served = log.served()
    mae = float(np.mean(np.abs(served - reference[index])))
    check(mae <= FLOAT32_CONTRACT,
          f"served MAE vs float64 reference {mae:.3g} > {FLOAT32_CONTRACT}")
    return failed


def _check_accounting(service) -> None:
    check(
        service.submitted == service.completed + sum(service.rejections.values())
        + sum(service.abstentions.values()),
        f"submitted {service.submitted} != completed + rejections + abstentions",
    )


def measure(state: dict, seconds: float):
    service, x = state["service"], state["x"]
    slice_s = seconds / (2 * ROUNDS)
    logs_a, logs_b, jobs = [], [], []
    for k in range(ROUNDS):
        arrivals = _schedule(state, k * slice_s, (k + 1) * slice_s)
        logs_a.append(phase_a(service, x, arrivals, state["sent"], state["width"]))
        state["sent"] += len(arrivals)
        log_b, slice_jobs, state["sent"] = phase_b(
            service, x, WINDOW, BLOCK, slice_s, state["sent"],
            min_jobs=1,
        )
        logs_b.append(log_b)
        jobs += slice_jobs
    log_a, log_b = _merge(logs_a), _merge(logs_b)
    teardown(state)
    failed_a = _check(log_a, state["reference"])
    failed_b = _check(log_b, state["reference"])
    _check_accounting(service)
    index, served = log_a.served()
    latency = log_a.latency
    fast_job = calm(jobs)
    values = {
        "time_to_result_s": fast_job,
        "result_mae": float(np.mean(np.abs(served - state["labels"][index]))),
        "p50_ms": 1000 * windowed(_windows(latency), 50),
        "p90_ms": 1000 * windowed(_windows(latency), 90),
        "saturation_rps": (log_b.requests - log_b.failed) / log_b.requests
        * BLOCK / fast_job,
    }
    notes = [
        f"phase A: {latency.size} requests at {RATE_RPS:.0f} req/s in "
        f"{ROUNDS} slices alternating with phase B "
        f"({latency.size // 10} above p90, {failed_a} failed), generator "
        f"late p99 {1000 * percentile(log_a.late, 99):.3f} ms; p50/p90 = "
        f"lower quartiles over {max(1, latency.size // WINDOW_REQUESTS)} windows of "
        f"{WINDOW_REQUESTS} requests (pooled p50 "
        f"{1000 * percentile(latency, 50):.3f}, p90 "
        f"{1000 * percentile(latency, 90):.3f} ms)",
        f"phase B: {len(jobs)} jobs of {BLOCK} with {WINDOW} "
        f"outstanding; time_to_result_s = lower-quartile job time, "
        f"saturation_rps = completed per second in such a job (the mean "
        f"job took {sum(jobs) / len(jobs):.3f} s)",
    ]
    return values, log_a.requests + log_b.requests, failed_a + failed_b, notes


# -- traced run ------------------------------------------------------------------


def trace_layers(state: dict, seconds: float, recorder):
    x = state["x"]
    reference = state["reference"]
    share = seconds / 7.0  # A, B untraced; A, B traced; B telemetry off

    def saturation(log, jobs):
        return (log.requests - log.failed) / sum(jobs)

    # Untraced: the open-loop diagnostics and the baseline saturation.
    service = state["service"]
    log_a = phase_a(service, x, _schedule(state, 0, 2 * share), 0, state["width"])
    log_b, jobs, _ = phase_b(service, x, WINDOW, BLOCK, share, 0)
    teardown(state)
    _check(log_a, reference)
    sat_on = saturation(log_b, jobs)

    # Traced: spans around submit() and around the analyzer callables.
    def traced(name, fn):
        return lambda *args: recorder.call(name, fn, *args)

    analyzer = traced("serving.analyzer", state["analyzer"])
    batch_analyzer = traced("serving.batch_analyzer", state["batch_analyzer"])
    service = _service(analyzer, batch_analyzer, "traced")

    def submit(i, row):
        return recorder.call("serving.submit", service.submit, row, request_id=i)

    traced_a = phase_a(
        service, x, _schedule(state, 0, 2 * share), 0, state["width"], submit
    )
    traced_b, traced_jobs, _ = phase_b(
        service, x, WINDOW, BLOCK, share, 0, submit
    )
    stats = service.stats()
    service.stop()
    failed = _check(traced_a, reference) + _check(traced_b, reference)
    _check_accounting(service)
    sat_traced = saturation(traced_b, traced_jobs)

    # Telemetry off: the same phase B with disabled registry and tracer.
    quiet = _service(
        state["analyzer"], state["batch_analyzer"], "quiet",
        registry=MetricsRegistry(enabled=False), tracer=Tracer(enabled=False),
    )
    quiet_b, quiet_jobs, _ = phase_b(quiet, x, WINDOW, BLOCK, share, 0)
    quiet.stop()
    sat_off = saturation(quiet_b, quiet_jobs)

    durations = {}
    for name, duration, _self, _attrs, _sid, _parent in recorder.self_times():
        durations.setdefault(name, []).append(duration)
    submit_s = median(durations["serving.submit"])
    analyzer_s = median(durations["serving.batch_analyzer"])
    # Median phase-A latency minus the median batch-analyzer call: the
    # coalescing hold plus per-request serving overhead.
    overhead_s = percentile(traced_a.latency, 50) - analyzer_s
    batching = stats["batching"]
    values = {
        "serving.submit_us": 1e6 * submit_s,
        "serving.analyzer_us": 1e6 * analyzer_s,
        "serving.overhead_us": 1e6 * overhead_s,
        "serving.hold_ms": 1000 * overhead_s,
        "serving.mean_batch_size": batching["mean_batch_size"],
        "serving.batches": batching["batches"],
        "serving.completed": stats["completed"],
        "serving.failed": failed,
        "observability.cost_us": 1e6 * (1 / sat_on - 1 / sat_off),
        "loadgen.late_p99_ms": 1000 * percentile(log_a.late, 99),
        "serving.p99_ms": 1000 * percentile(log_a.latency, 99),
        "serving.p99_samples": log_a.latency.size,
    }
    overhead = 100 * (sat_on / sat_traced - 1)
    notes = [
        f"saturation untraced {sat_on:.0f}, traced {sat_traced:.0f}, "
        f"telemetry off {sat_off:.0f} req/s (tracing overhead {overhead:.1f} %)",
        f"p99 diagnostics over {log_a.latency.size} phase-A requests "
        f"({log_a.latency.size // 100} above p99)",
    ]
    return values, overhead, traced_a.requests + traced_b.requests, notes
