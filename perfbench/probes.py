"""Direct calls into ``repro.inference``, ``repro.nn`` and ``repro.nmr``
that every traced run makes: the frozen engine against the reference
path, exact per-layer FLOP counts of the Table-1 CNN, and the paper's
per-spectrum latency claims (conv net 0.9 ms, LSTM 1.05 ms, IHM >1000x
slower than the conv net).
"""

from __future__ import annotations

import time

import numpy as np

from harness import median

from repro.core import nmr_conv_topology, nmr_lstm_topology, table1_topology
from repro.inference import InferenceEngine, freeze
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis
from repro.nmr import IHMAnalysis, NMRSpectrumSimulator, mndpa_reaction_models
from repro.nn.flops import count_model_flops

from ms_loop import layer_names

NMR_SPECTRA = 512
IHM_SPECTRA = 3


def _median_call_ms(fn, calls: int) -> float:
    fn()  # warm-up
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000 * median(samples)


def inference(seed: int) -> dict:
    """Frozen float32 engine vs the float64 reference on the Table-1 CNN."""
    model = table1_topology(len(DEFAULT_TASK_COMPOUNDS)).build((491,), seed=0)
    simulator = MassSpectrometerSimulator(
        InstrumentCharacteristics(), MzAxis(1.0, 50.0, 0.1), default_library()
    )
    x, _ = simulator.generate_dataset(
        DEFAULT_TASK_COMPOUNDS, 32, np.random.default_rng([seed, 4])
    )
    freeze_s = []
    for _ in range(3):
        start = time.perf_counter()
        plan = freeze(model, dtype="float32")
        freeze_s.append(time.perf_counter() - start)
    engine = InferenceEngine(plan)
    values = {"inference.freeze_s": median(freeze_s)}
    for size in (1, 8, 32):
        batch = x[:size]
        values[f"inference.engine_ms.b{size}"] = _median_call_ms(
            lambda: engine.predict(batch), 50
        )
    values["nn.reference_ms.b32"] = _median_call_ms(
        lambda: model.predict(x, validate=False), 50
    )
    values["inference.speedup.b32"] = (
        values["nn.reference_ms.b32"] / values["inference.engine_ms.b32"]
    )
    values["inference.mae_vs_reference"] = float(
        np.mean(np.abs(engine.predict(x) - model.predict(x, validate=False)))
    )
    for prefix, cost in zip(layer_names(model), count_model_flops(model)):
        values[f"{prefix}.fwd_mflop"] = cost.flops / 1e6
    return values


def paper_claims(seed: int) -> dict:
    """Single-spectrum latencies of the NMR conv net, LSTM and IHM."""
    models = mndpa_reaction_models()
    simulator = NMRSpectrumSimulator(models, {n: (0.0, 0.6) for n in models.names})
    rng = np.random.default_rng([seed, 5])
    start = time.perf_counter()
    x, _ = simulator.generate_dataset(NMR_SPECTRA, rng)
    simulate_s = time.perf_counter() - start
    conv = nmr_conv_topology().build((1700,), seed=0)
    lstm = nmr_lstm_topology().build((5, 1700), seed=0)
    ihm = IHMAnalysis(models)
    conv_ms = _median_call_ms(lambda: conv.predict(x[:1]), 200)
    lstm_ms = _median_call_ms(lambda: lstm.predict(x[None, :5]), 30)
    ihm_s = []
    for row in x[:IHM_SPECTRA]:
        start = time.perf_counter()
        ihm.analyze(row)
        ihm_s.append(time.perf_counter() - start)
    ihm_ms = 1000 * median(ihm_s)
    return {
        "nmr.simulate_s": simulate_s,
        "nn.nmr_conv.predict_ms": conv_ms,
        "nn.nmr_lstm.predict_ms": lstm_ms,
        "nmr.ihm.analyze_ms": ihm_ms,
        "nmr.ihm_over_conv": ihm_ms / conv_ms,
    }


def measure(seed: int) -> dict:
    return {**inference(seed), **paper_claims(seed)}
