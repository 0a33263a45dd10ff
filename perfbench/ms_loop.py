"""Workload ``ms-loop``: the paper's Fig.-3 research loop, end to end.

``MSToolchain.run`` measures reference mixtures on a virtual prototype,
characterizes it, simulates training spectra, trains the Table-1 CNN and
scores it on spectra measured after 48 h of drift.  Training in
``repro.nn`` is almost all of the time, so a training-kernel change does
its full work here.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import calm, check, repeat_until, windowed

from repro.core import MSToolchain, TopologySpec, table1_topology
from repro.core.evaluation import measurements_to_arrays
from repro.ms import MassFlowControllerRig, VirtualMassSpectrometer, default_library
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS
from repro.ms.mixtures import default_mixture_plan
from repro.ms.spectrum import MzAxis

TASK = DEFAULT_TASK_COMPOUNDS
AXIS = MzAxis(1.0, 50.0, 0.1)  # the paper's axis: 491 points
N_TRAINING_SPECTRA = 480  # 384 train (6 full batches of 64) / 96 validation
EPOCHS = 2  # below the toolchain's early-stopping patience of 8
SAMPLES_PER_MIXTURE = 5
EVAL_MIXTURES, EVAL_SAMPLES = 10, 4
DRIFT_HOURS = 48.0
THROUGHPUT_BATCH = 256
WARMUP_SPECTRA, WARMUP_EPOCHS = 128, 1


def _device(seed: int):
    instrument = VirtualMassSpectrometer(
        contamination={"H2O": 0.03}, library=default_library(), axis=AXIS,
        drift_per_hour=0.003, seed=seed,
    )
    return instrument, MassFlowControllerRig(instrument, seed=seed)


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    device_seed, run_seed, eval_seed = (int(v) for v in rng.integers(0, 2**31, 3))
    instrument, rig = _device(device_seed)
    instrument.advance_time(DRIFT_HOURS)
    evaluation = rig.measure_plan(
        default_mixture_plan(TASK, EVAL_MIXTURES, seed=eval_seed), EVAL_SAMPLES
    )
    x_eval, _ = measurements_to_arrays(evaluation, TASK, AXIS)
    state = {
        "device_seed": device_seed, "run_seed": run_seed,
        "evaluation": evaluation, "x_eval": x_eval,
    }
    # Warm-up: a small loop through every stage, then the batch predict.
    result = MSToolchain(TASK, axis=AXIS).run(
        _device(device_seed)[1], evaluation,
        samples_per_mixture=SAMPLES_PER_MIXTURE,
        n_training_spectra=WARMUP_SPECTRA, epochs=WARMUP_EPOCHS, seed=run_seed,
    )
    result.model.predict(np.resize(x_eval, (THROUGHPUT_BATCH, x_eval.shape[1])))
    return state


class _HookedTopology(TopologySpec):
    """The Table-1 topology; ``hook(model)`` runs on the model it builds."""

    hook = None

    def build(self, input_shape, seed=0):
        model = super().build(input_shape, seed=seed)
        self.hook(model)
        return model


def _toolchain_run(state: dict, hook, chain=None):
    """One complete research run on a fresh device; ``(result, seconds)``."""
    spec = table1_topology(len(TASK))
    topology = _HookedTopology(spec.name, spec.layers, spec.description)
    topology.hook = hook
    rig = _device(state["device_seed"])[1]
    chain = chain or MSToolchain(TASK, axis=AXIS)
    start = time.perf_counter()
    result = chain.run(
        rig, state["evaluation"], samples_per_mixture=SAMPLES_PER_MIXTURE,
        n_training_spectra=N_TRAINING_SPECTRA, epochs=EPOCHS,
        seed=state["run_seed"], topology=topology,
    )
    return result, time.perf_counter() - start


def _step_timer(steps: list):
    """A hook that times every ``train_on_batch`` call into ``steps``."""

    def hook(model):
        train_on_batch = model.train_on_batch

        def timed_step(x, y):
            start = time.perf_counter()
            loss = train_on_batch(x, y)
            steps.append(time.perf_counter() - start)
            return loss

        model.train_on_batch = timed_step

    return hook


def measure(state: dict, seconds: float):
    x_eval = state["x_eval"]
    batch = np.resize(x_eval, (THROUGHPUT_BATCH, x_eval.shape[1]))
    times, maes, steps, predicts = [], [], [], []
    hook = _step_timer(steps)
    run_steps = []  # the training steps of each toolchain run

    def body(_index: int) -> float:
        first_step = len(steps)
        result, elapsed = _toolchain_run(state, hook)
        run_steps.append(steps[first_step:])
        times.append(elapsed)
        maes.append(result.measured_mae)
        start = time.perf_counter()
        result.model.predict(batch)
        predicts.append(time.perf_counter() - start)
        # The trained model sits in reference cycles; free it now, so peak
        # memory does not depend on when the collector next runs.
        del result
        gc.collect()
        return elapsed

    runs = repeat_until(seconds, body, minimum=3)
    check(all(np.isfinite(maes)), f"non-finite measured MAE: {maes}")
    check(len(set(maes)) == 1, f"measured MAE differs across repeats: {maes}")
    values = {
        "time_to_result_s": calm(times),
        "result_mae": maes[0],
        "p50_ms": 1000 * windowed(run_steps, 50),
        "p90_ms": 1000 * windowed(run_steps, 90),
        "saturation_rps": THROUGHPUT_BATCH / calm(predicts),
    }
    notes = [
        f"toolchain runs: {runs}; time_to_result_s per run: "
        + ", ".join(f"{t:.3f}" for t in times),
        f"p50/p90 over the {len(steps) // runs} training steps (batch 64) of "
        f"each run; saturation_rps: trained network, {len(predicts)} "
        f"batches of {THROUGHPUT_BATCH}; times, rates and percentiles are "
        f"lower quartiles over the run's repeats",
    ]
    return values, runs, 0, notes


# -- traced run ------------------------------------------------------------------


class _TracedActivation:
    """Per-layer stand-in for a shared activation object."""

    def __init__(self, activation, recorder, prefix):
        self._activation = activation
        self._recorder = recorder
        self._prefix = prefix
        self.name = activation.name

    def forward(self, x):
        return self._recorder.call(
            self._prefix + ".act_fwd", self._activation.forward, x
        )

    def backward(self, grad, x, y):
        return self._recorder.call(
            self._prefix + ".act_bwd", self._activation.backward, grad, x, y
        )

    def __getattr__(self, name):
        return getattr(self._activation, name)


def layer_names(model) -> list:
    return [f"nn.L{i}_{type(layer).__name__}" for i, layer in enumerate(model.layers)]


def _instrument(recorder):
    """A hook that records a span around every layer, activation, loss,
    optimizer, ``fit`` and ``evaluate`` call of the model."""

    def hook(model):
        for prefix, layer in zip(layer_names(model), model.layers):
            recorder.wrap(layer, "forward", prefix + ".fwd",
                          attrs_fn=lambda a, k: bool(k.get("training", False)))
            recorder.wrap(layer, "backward", prefix + ".bwd")
            if hasattr(layer, "activation"):
                layer.activation = _TracedActivation(
                    layer.activation, recorder, prefix
                )
        compile_model = model.compile

        def compile_and_wrap(*args, **kwargs):
            compile_model(*args, **kwargs)
            recorder.wrap(model.loss, "value", "nn.loss")
            recorder.wrap(model.loss, "gradient", "nn.loss")
            recorder.wrap(model.optimizer, "apply", "nn.optimizer")
            return model

        model.compile = compile_and_wrap
        recorder.wrap(model, "fit", "nn.fit")
        recorder.wrap(model, "evaluate", "nn.evaluate")

    return hook


def trace_layers(state: dict, seconds: float, recorder):
    _result, untraced = _toolchain_run(state, lambda model: None)
    chain = MSToolchain(TASK, axis=AXIS)
    for method, name in (
        ("collect_reference_measurements", "ms.measure"),
        ("build_simulator", "ms.characterize"),
        ("generate_training_data", "ms.simulate"),
    ):
        recorder.wrap(chain, method, name)
    result, traced = _toolchain_run(state, _instrument(recorder), chain)
    rows = recorder.self_times()
    totals = recorder.summary()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    steps = totals.get("nn.optimizer", {}).get("calls", 0)
    fit_s = total("nn.fit")
    values = {
        "ms.measure_s": total("ms.measure"),
        "ms.characterize_s": total("ms.characterize"),
        "ms.simulate_s": total("ms.simulate"),
        "nn.fit_s": fit_s,
        "nn.evaluate_s": total("nn.evaluate"),
        "nn.loss_ms": 1000 * total("nn.loss") / max(steps, 1),
        "nn.optimizer_ms": 1000 * total("nn.optimizer") / max(steps, 1),
    }
    n_train = int(round(N_TRAINING_SPECTRA * 0.8))
    values["nn.train_spectra_per_s"] = n_train * len(result.history.epochs) / fit_s
    # Mean self time per training-mode call, per layer and direction; an
    # activation span inherits the mode of the forward call around it.
    training = {sid: attrs for _n, _d, _s, attrs, sid, _p in rows}
    per_call = {}
    for name, _duration, self_time, attrs, _sid, parent in rows:
        if not name.startswith("nn.L"):
            continue
        if name.endswith(".fwd") and attrs is not True:
            continue  # inference-mode forward (validation, scoring)
        if name.endswith(".act_fwd") and training.get(parent) is not True:
            continue
        entry = per_call.setdefault(name, [0.0, 0])
        entry[0] += self_time
        entry[1] += 1
    model = result.model
    for prefix in layer_names(model):
        for suffix in ("fwd", "bwd", "act_fwd", "act_bwd"):
            seconds_sum, calls = per_call.get(f"{prefix}.{suffix}", (0.0, 0))
            values[f"{prefix}.{suffix}_ms"] = (
                1000 * seconds_sum / calls if calls else 0.0
            )
    # What the layer, loss, optimizer and validation spans leave of fit().
    fit_self = sum(r[2] for r in rows if r[0] == "nn.fit")
    values["nn.fit_other_s"] = fit_self
    overhead = 100 * (traced - untraced) / untraced
    notes = [
        f"untraced toolchain run {untraced:.3f} s, traced {traced:.3f} s "
        f"(tracing overhead {overhead:.1f} %)",
        f"nn.fit_s {fit_s:.3f} s = layer, loss, optimizer and validation spans "
        f"{fit_s - fit_self:.3f} s + unaccounted {fit_self:.3f} s "
        f"({100 * fit_self / fit_s:.1f} %)",
    ]
    return values, overhead, 2, notes
