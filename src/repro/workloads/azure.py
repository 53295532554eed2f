"""Synthetic Azure-Functions-like invocation traces (substitution for §6.7).

The paper replays one-hour samples of the Azure Functions Trace 2019
(part of the Azure Public Dataset): per-minute invocation counts of
production functions, which are known — both from the paper and from
the original characterisation study ("Serverless in the Wild") — to be

* aggregated per minute,
* extremely heterogeneous across functions (orders of magnitude spread
  in average rate),
* bursty: many functions are sporadic/on-off (the paper singles out the
  MobileNet workload as "highly sporadic"), others have a relatively
  steady base load with fluctuations.

The proprietary CSVs are not available offline, so this module
synthesises per-minute traces with exactly those properties.  Each
function gets a base rate, a smooth modulation (a slow sinusoid plus
autocorrelated noise), and — for sporadic functions — an on/off burst
process.  The generator is deterministic given a seed, so experiments
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.workloads.schedules import TraceSchedule


@dataclass(frozen=True)
class AzureTraceConfig:
    """Parameters of one synthetic per-minute trace.

    Attributes
    ----------
    mean_rate:
        Long-run average arrival rate in requests/second.
    sporadic:
        If true the function is mostly idle and receives occasional
        bursts (the MobileNet-like pattern); if false it has a steady
        base load with fluctuations.
    burst_probability:
        Per-minute probability that a sporadic function starts a burst.
    burst_duration_minutes:
        Mean duration of a burst, in minutes (geometric).
    burst_multiplier:
        Peak rate of a burst relative to ``mean_rate``.
    variability:
        Coefficient of variation of the per-minute noise for steady
        functions.
    """

    mean_rate: float
    sporadic: bool = False
    burst_probability: float = 0.08
    burst_duration_minutes: float = 5.0
    burst_multiplier: float = 6.0
    variability: float = 0.3

    def __post_init__(self) -> None:
        """Validate the trace parameters."""
        if self.mean_rate < 0:
            raise ValueError("mean_rate must be non-negative")
        if not 0 <= self.burst_probability <= 1:
            raise ValueError("burst_probability must be in [0, 1]")
        if self.burst_duration_minutes <= 0:
            raise ValueError("burst_duration_minutes must be positive")
        if self.burst_multiplier <= 0:
            raise ValueError("burst_multiplier must be positive")
        if self.variability < 0:
            raise ValueError("variability must be non-negative")


def azure_rate_series(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The per-minute *rate* series underlying one synthetic trace.

    This is the first of the two RNG passes of
    :func:`synthesize_azure_trace`: it returns the non-negative
    expected-arrivals-per-minute array the Poisson pass then samples.
    Splitting the passes is what lets
    :func:`repro.workloads.stream.iter_azure_trace_chunks` draw the
    Poisson counts chunk by chunk while staying byte-identical to the
    monolithic synthesis.

    RNG contract, in bit-stream terms (pinned against a per-minute
    scalar reference, final generator state included, by
    ``tests/test_trace_replay.py``):

    * **Steady** functions consume one double for the phase, then the
      ``duration_minutes - 1`` AR(1) innovations as standard normals —
      drawn as one ``normal(0, σ, size=n-1)`` call, which consumes
      exactly the doubles of ``n-1`` scalar calls in the same order.
    * **Sporadic** functions consume one double per idle minute (the
      burst-start test ``u < burst_probability``) and one ``geometric``
      per burst start; minutes inside a burst draw nothing.  Idle
      minutes are drawn in blocks of ``random(k)`` (``uniform()`` and
      ``random()`` both turn exactly one double into ``u``).  When a
      block contains a burst start the generator is rewound to its
      state before the block and redraws exactly up to that start, so
      the doubles after it are never consumed and the ``geometric``
      draw sees the same stream as the per-minute loop.
    """
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    minutes = np.arange(duration_minutes)
    base_per_minute = config.mean_rate * 60.0

    if config.sporadic:
        # on/off burst process: mostly zero, occasional multi-minute bursts
        burst_minutes, burst_left = _burst_minutes(config, duration_minutes, rng)
        rates = np.zeros(duration_minutes)
        if burst_minutes:
            # a burst minute's shape uses the minutes left in its burst,
            # counting itself; every value is computed as the scalar
            # expression would, just once over all burst minutes
            m = np.array(burst_minutes)
            left = np.array(burst_left)
            shape = np.sin(np.pi * np.minimum(1.0, (1 + m % left) / left))
            rates[m] = base_per_minute * config.burst_multiplier * np.maximum(0.3, shape)
        # a trickle of background invocations so the function is not always cold
        rates += base_per_minute * 0.05
    else:
        # steady base load: slow sinusoidal modulation + AR(1) noise
        phase = rng.uniform(0, 2 * np.pi)
        modulation = 1.0 + 0.25 * np.sin(2 * np.pi * minutes / max(duration_minutes, 1) + phase)
        noise = [0.0]
        previous = 0.0
        for innovation in rng.normal(0, config.variability, size=duration_minutes - 1).tolist():
            previous = 0.7 * previous + innovation
            noise.append(previous)
        rates = base_per_minute * modulation * np.clip(1.0 + np.array(noise), 0.2, 3.0)
    return np.clip(rates, 0.0, None)


def _burst_minutes(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> Tuple[List[int], List[int]]:
    """The minutes a sporadic function spends in bursts.

    Returns the burst minutes in ascending order and, for each, the
    minutes left in its burst counting itself.  Consumes the generator
    exactly as one ``uniform()`` per idle minute plus one ``geometric``
    per burst start (see :func:`azure_rate_series`).
    """
    probability = config.burst_probability
    # twice the expected idle gap (1/p minutes): most blocks hold a burst
    # start, and an idle stretch rarely needs more than one extra block
    block = duration_minutes if probability == 0.0 else int(2.0 / probability) + 1
    bit_generator = rng.bit_generator
    minutes: List[int] = []
    left: List[int] = []
    m = 0
    while m < duration_minutes:
        saved = bit_generator.state
        starts = rng.random(min(block, duration_minutes - m)) < probability
        first = int(starts.argmax())
        if not starts[first]:
            m += len(starts)
            continue
        if first + 1 < len(starts):
            # rewind: consume only the idle minutes up to the burst start
            bit_generator.state = saved
            rng.random(first + 1)
        m += first
        length = max(1, int(rng.geometric(1.0 / config.burst_duration_minutes)))
        span = min(length, duration_minutes - m)
        minutes.extend(range(m, m + span))
        left.extend(range(length, length - span, -1))
        m += span
    return minutes, left


def synthesize_azure_trace(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthesise one function's per-minute invocation counts.

    Returns an integer array of length ``duration_minutes``.  The RNG is
    consumed in two passes — the :func:`azure_rate_series` draws, then a
    single Poisson pass over the whole rate array — a contract the
    chunked streaming path relies on (see
    :mod:`repro.workloads.stream`).
    """
    rates = azure_rate_series(config, duration_minutes, rng)
    counts = rng.poisson(rates)
    return counts.astype(int)


#: Default trace shapes for the six functions of the §6.7 experiment.
#: MobileNet is the "highly sporadic" one; rates are calibrated so that the
#: 3-node / 12-vCPU cluster is highly utilised, as in the paper.
DEFAULT_AZURE_CONFIGS: Dict[str, AzureTraceConfig] = {
    "mobilenet": AzureTraceConfig(mean_rate=2.5, sporadic=True, burst_multiplier=6.0),
    "shufflenet": AzureTraceConfig(mean_rate=16.0, variability=0.35),
    "squeezenet": AzureTraceConfig(mean_rate=25.0, variability=0.3),
    "binaryalert": AzureTraceConfig(mean_rate=50.0, variability=0.4),
    "geofence": AzureTraceConfig(mean_rate=80.0, variability=0.3),
    "image-resizer": AzureTraceConfig(mean_rate=30.0, variability=0.35),
}


def synthesize_azure_traces(
    configs: Optional[Mapping[str, AzureTraceConfig]] = None,
    duration_minutes: int = 60,
    seed: int = 2019,
) -> Dict[str, TraceSchedule]:
    """Synthesise per-minute traces for a set of functions.

    Parameters
    ----------
    configs:
        Per-function trace configurations (defaults to the six-function
        setup of §6.7).
    duration_minutes:
        Trace length; the paper samples one hour.
    seed:
        Master seed; each function's trace is drawn from its own
        sub-stream so adding a function does not perturb the others.

    Returns
    -------
    dict
        function name → :class:`~repro.workloads.schedules.TraceSchedule`.
    """
    configs = dict(configs) if configs is not None else dict(DEFAULT_AZURE_CONFIGS)
    schedules: Dict[str, TraceSchedule] = {}
    for index, (name, config) in enumerate(sorted(configs.items())):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        counts = synthesize_azure_trace(config, duration_minutes, rng)
        schedules[name] = TraceSchedule(counts, interval=60.0)
    return schedules


def trace_statistics(schedules: Mapping[str, TraceSchedule]) -> Dict[str, Dict[str, float]]:
    """Summary statistics of a set of traces (mean/peak rate, burstiness)."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, schedule in schedules.items():
        counts = schedule.counts
        mean = float(counts.mean())
        peak = float(counts.max())
        stats[name] = {
            "mean_per_minute": mean,
            "peak_per_minute": peak,
            "peak_to_mean": peak / mean if mean > 0 else float("inf"),
            "zero_minutes": float((counts == 0).sum()),
            "total": float(counts.sum()),
        }
    return stats


__all__ = [
    "AzureTraceConfig",
    "DEFAULT_AZURE_CONFIGS",
    "azure_rate_series",
    "synthesize_azure_trace",
    "synthesize_azure_traces",
    "trace_statistics",
]
