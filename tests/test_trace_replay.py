"""Equivalence harness for the streaming trace replay (PR 9).

Four contracts are pinned here:

1. **Chunked ≡ monolithic synthesis** — byte-for-byte, at every chunk
   size, because NumPy ``Generator.poisson`` consumes the bit stream
   element-sequentially (a hypothesis property) and the azure generator
   draws in two ordered passes.
2. **Sharded ≡ whole-process replay** — the merged envelope is
   byte-identical across worker counts, run-twice stable, and — with an
   exhaustive sketch — identical across *different* shard
   decompositions of the same population.
3. **Reservoir-merge determinism** — the cross-shard percentile merge
   is order-insensitive (a pure function of the multiset of shard
   states), with regression tests on both the raw merge and the full
   envelope merge.
4. **Edge cases fail eagerly** — invalid trace configs, invalid
   replay params, degraded sweep envelopes and corrupt sketch states
   raise instead of producing silently-wrong numbers.

The batched rate series is checked against a per-minute scalar
reference (same bytes, same final generator state), and a golden
digest pins the merged replay bytes, so a drift in synthesis cannot
pass by comparing the code only with itself.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.streaming import ReservoirQuantiles, merge_reservoir_states
from repro.scenarios import build, canonical_json
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SweepRunner
from repro.scenarios.trace_shard import (
    TRACE_MERGE_SCHEMA,
    merge_trace_shards,
    run_trace_replay,
    shard_ranges,
)
from repro.workloads.azure import (
    AzureTraceConfig,
    azure_rate_series,
    synthesize_azure_trace,
    synthesize_azure_traces,
    trace_statistics,
)
from repro.workloads.stream import (
    iter_azure_trace_chunks,
    population_function,
    trace_rng,
)

#: Tiny population knobs reused across the equivalence tests.
SMALL = dict(functions=24, duration_minutes=6, chunk_minutes=4, sketch_size=64)


def _small_sweep(shards: int, **overrides):
    """The fig9-at-scale sweep at smoke scale."""
    kwargs = dict(SMALL, shards=shards)
    kwargs.update(overrides)
    return build("fig9-at-scale", **kwargs)


# ----------------------------------------------------------------------
# 1. chunked ingestion ≡ monolithic synthesis
# ----------------------------------------------------------------------
CHUNK_CONFIGS = {
    "steady": AzureTraceConfig(mean_rate=5.0, variability=0.4),
    "sporadic": AzureTraceConfig(mean_rate=2.0, sporadic=True),
    "zero-rate": AzureTraceConfig(mean_rate=0.0),
}


@pytest.mark.parametrize("label", sorted(CHUNK_CONFIGS))
@pytest.mark.parametrize("duration", [1, 17, 60])
@pytest.mark.parametrize("chunk", [1, 4, 60, 70])
def test_chunked_equals_monolithic(label, duration, chunk):
    """Concatenated chunks match the one-shot synthesis byte-for-byte."""
    config = CHUNK_CONFIGS[label]
    whole = synthesize_azure_trace(config, duration, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    parts = list(iter_azure_trace_chunks(config, duration, rng, chunk))
    chunked = np.concatenate(parts)
    assert chunked.tobytes() == whole.tobytes()
    # and the generators end in the same state: a consumer could keep
    # drawing from either and stay in lockstep
    reference = np.random.default_rng(7)
    synthesize_azure_trace(config, duration, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_chunk_count_and_sizes():
    """Chunks tile the duration: all full-size except a shorter tail."""
    config = CHUNK_CONFIGS["steady"]
    parts = list(iter_azure_trace_chunks(config, 10, np.random.default_rng(1), 4))
    assert [len(p) for p in parts] == [4, 4, 2]


def test_chunk_minutes_must_be_positive():
    with pytest.raises(ValueError, match="chunk_minutes"):
        list(iter_azure_trace_chunks(CHUNK_CONFIGS["steady"], 10,
                                     np.random.default_rng(1), 0))


# ----------------------------------------------------------------------
# 1b. batched rate series ≡ the per-minute scalar reference
# ----------------------------------------------------------------------
def _scalar_rate_series(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reference: one scalar RNG call per function-minute (the original loop)."""
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    minutes = np.arange(duration_minutes)
    base_per_minute = config.mean_rate * 60.0

    if config.sporadic:
        # on/off burst process: mostly zero, occasional multi-minute bursts
        rates = np.zeros(duration_minutes)
        in_burst = False
        burst_left = 0
        for m in range(duration_minutes):
            if not in_burst and rng.uniform() < config.burst_probability:
                in_burst = True
                burst_left = max(1, int(rng.geometric(1.0 / config.burst_duration_minutes)))
            if in_burst:
                shape = np.sin(np.pi * min(1.0, (1 + m % max(burst_left, 1)) / max(burst_left, 1)))
                rates[m] = base_per_minute * config.burst_multiplier * max(0.3, shape)
                burst_left -= 1
                if burst_left <= 0:
                    in_burst = False
        # a trickle of background invocations so the function is not always cold
        rates += base_per_minute * 0.05
    else:
        # steady base load: slow sinusoidal modulation + AR(1) noise
        phase = rng.uniform(0, 2 * np.pi)
        modulation = 1.0 + 0.25 * np.sin(2 * np.pi * minutes / max(duration_minutes, 1) + phase)
        noise = np.zeros(duration_minutes)
        sigma = config.variability
        for m in range(1, duration_minutes):
            noise[m] = 0.7 * noise[m - 1] + rng.normal(0, sigma)
        rates = base_per_minute * modulation * np.clip(1.0 + noise, 0.2, 3.0)
    return np.clip(rates, 0.0, None)


def _assert_matches_scalar(config, duration, seed):
    """Same bytes and the same final generator state as the reference."""
    reference_rng = np.random.default_rng(seed)
    reference = _scalar_rate_series(config, duration, reference_rng)
    rng = np.random.default_rng(seed)
    rates = azure_rate_series(config, duration, rng)
    assert rates.tobytes() == reference.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return reference


ORACLE_CONFIGS = {
    "steady": AzureTraceConfig(mean_rate=5.0, variability=0.4),
    "steady-no-variability": AzureTraceConfig(mean_rate=5.0, variability=0.0),
    "steady-zero-rate": AzureTraceConfig(mean_rate=0.0),
    "sporadic": AzureTraceConfig(mean_rate=2.0, sporadic=True),
    "sporadic-zero-rate": AzureTraceConfig(mean_rate=0.0, sporadic=True),
    "sporadic-never": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                       burst_probability=0.0),
    "sporadic-always": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                        burst_probability=1.0),
    # geometric(p) searches for p >= 1/3 (mean below 3) and inverts below
    "sporadic-short-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                              burst_probability=0.3,
                                              burst_duration_minutes=1.5),
    "sporadic-one-minute-bursts": AzureTraceConfig(
        mean_rate=2.0, sporadic=True, burst_probability=0.5,
        burst_duration_minutes=1.0),
    "sporadic-long-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                             burst_probability=0.05,
                                             burst_duration_minutes=12.0),
}


@pytest.mark.parametrize("label", sorted(ORACLE_CONFIGS))
@pytest.mark.parametrize("duration", [1, 2, 3, 59, 720])
@pytest.mark.parametrize("seed", [0, 7919])
def test_rate_series_matches_scalar_reference(label, duration, seed):
    """The batched draws reproduce the per-minute loop bit for bit."""
    _assert_matches_scalar(ORACLE_CONFIGS[label], duration, seed)


def test_rate_series_burst_running_past_the_end():
    """A burst cut off by the trace end still matches the reference."""
    config = AzureTraceConfig(mean_rate=2.0, sporadic=True,
                              burst_probability=1.0,
                              burst_duration_minutes=1000.0)
    for seed in range(20):
        rates = _assert_matches_scalar(config, 5, seed)
        # every minute is a burst minute: well above the 5 % trickle
        assert rates.min() > 2.0 * 60.0 * 0.05


def test_rate_series_matches_reference_on_the_population():
    """The first 200 functions of the fig9-at-scale population, 720 minutes."""
    params = next(iter(build("fig9-at-scale", functions=200).expand())).params
    population = dict(params["population"])
    sporadic = 0
    for index in range(200):
        fn = population_function(index, population)
        sporadic += fn.config.sporadic
        reference_rng = trace_rng(params["trace_seed"], index)
        reference = _scalar_rate_series(fn.config, 720, reference_rng)
        rng = trace_rng(params["trace_seed"], index)
        assert azure_rate_series(fn.config, 720, rng).tobytes() == reference.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert 0 < sporadic < 200


def test_rate_series_rejects_bad_duration():
    with pytest.raises(ValueError, match="duration_minutes"):
        azure_rate_series(CHUNK_CONFIGS["steady"], 0, np.random.default_rng(1))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    lams=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=40),
    chunk=st.integers(min_value=1, max_value=45),
)
def test_poisson_batch_split_invariance(lams, chunk):
    """``Generator.poisson`` consumes the bit stream element-sequentially.

    This is the NumPy behaviour the whole chunked path rests on: drawing
    consecutive sub-arrays on one generator yields exactly the values —
    and exactly the final RNG state — of one whole-array call, for any
    split, including zero rates and empty sub-arrays.
    """
    lam = np.asarray(lams, dtype=float)
    whole_rng = np.random.default_rng(123)
    whole = whole_rng.poisson(lam)
    split_rng = np.random.default_rng(123)
    parts = [split_rng.poisson(lam[i:i + chunk])
             for i in range(0, len(lams), chunk)]
    chunked = np.concatenate(parts) if parts else np.empty(0, dtype=whole.dtype)
    assert np.array_equal(whole, chunked)
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state


# ----------------------------------------------------------------------
# 2. sharded replay ≡ whole-process replay
# ----------------------------------------------------------------------
def test_workers_one_equals_four_bytes():
    """The standard runner guarantee holds for trace_replay shards."""
    sweep = _small_sweep(shards=4)
    serial = SweepRunner(sweep, workers=1).run()
    parallel = SweepRunner(sweep, workers=4).run()
    assert canonical_json(serial) == canonical_json(parallel)
    assert canonical_json(merge_trace_shards(serial)) == \
        canonical_json(merge_trace_shards(parallel))


def test_run_twice_is_byte_stable():
    """Two independent builds+runs produce identical merged bytes."""
    first = merge_trace_shards(SweepRunner(_small_sweep(shards=3), workers=1).run())
    second = merge_trace_shards(SweepRunner(_small_sweep(shards=3), workers=1).run())
    assert canonical_json(first) == canonical_json(second)


#: sha256 of the merged SMALL replay (4 shards) — with the default sketch
#: (every shard exact) and with an overflowing one (Algorithm R sampling).
GOLDEN_MERGED_SHA256 = {
    64: "078449d398a42e115239ff68262c76f4759af3784e820f5d8f1efb009e67244b",
    16: "8f5d16d756db0ce5d8b2a134ddf7f773d57eee2b828f918840fbf5715313b4ce",
}


@pytest.mark.parametrize("sketch_size", sorted(GOLDEN_MERGED_SHA256))
def test_merged_replay_matches_golden_digest(sketch_size):
    """The merged envelope's bytes are pinned, not only self-consistent."""
    sweep = _small_sweep(shards=4, sketch_size=sketch_size)
    merged = merge_trace_shards(SweepRunner(sweep, workers=1).run())
    digest = hashlib.sha256(canonical_json(merged).encode()).hexdigest()
    assert digest == GOLDEN_MERGED_SHA256[sketch_size]


def test_shard_decomposition_invariance_with_exhaustive_sketch():
    """shards=1 and shards=4 merge to the same totals, rates, percentiles.

    With a sketch large enough to retain every observation the merge is
    exact, so *different* decompositions of the same population must
    agree on every derived number — the strongest form of "sharding
    never changes results".
    """
    merged = {}
    for shards in (1, 4):
        sweep = _small_sweep(shards=shards, sketch_size=10_000)
        merged[shards] = merge_trace_shards(SweepRunner(sweep, workers=1).run())
    for group in ("totals", "rates", "percentiles", "minutes"):
        assert canonical_json(merged[1][group]) == canonical_json(merged[4][group])
    assert merged[4]["percentiles"]["per_minute_invocations"]["exact"] is True
    assert merged[4]["shard_count"] == 4


def test_sampled_sketch_counters_still_invariant():
    """Even when sketches overflow, the integer counters never drift."""
    merged = {}
    for shards in (1, 4):
        sweep = _small_sweep(shards=shards, sketch_size=16)
        merged[shards] = merge_trace_shards(SweepRunner(sweep, workers=1).run())
    assert merged[1]["totals"] == merged[4]["totals"]
    assert merged[1]["percentiles"]["per_minute_invocations"]["exact"] is False


def test_per_function_results_independent_of_shard():
    """A single function replays identically whatever shard runs it."""
    sweep = _small_sweep(shards=1)
    base = next(iter(sweep.expand()))
    from repro.scenarios.sweep import apply_overrides

    one = apply_overrides(base, {"params.function_range": [5, 6],
                                 "name": "solo"})
    wide = apply_overrides(base, {"params.function_range": [0, 24],
                                  "name": "wide"})
    solo = run_trace_replay(one).data["replay"]
    whole = run_trace_replay(wide).data["replay"]
    # the solo shard's invocations are bounded by (and consistent with)
    # the whole population's — and re-running it is byte-stable
    assert solo["invocations"] <= whole["invocations"]
    assert canonical_json(run_trace_replay(one).data) == \
        canonical_json(run_trace_replay(one).data)


def test_population_function_is_pure():
    """Functions derive from (seed, index) only — byte-stable, index-local."""
    population = {"seed": 2021, "sporadic_fraction": 0.4,
                  "rate_log10_mean": -2.0, "rate_log10_sigma": 0.8,
                  "functions": 100}
    a = population_function(17, population)
    b = population_function(17, population)
    assert a == b
    assert a.name == "fn-000017"
    assert a.config.mean_rate > 0
    assert a.slo_deadline > a.service_time > 0
    counts_a = synthesize_azure_trace(a.config, 5, trace_rng(2019, 17))
    counts_b = synthesize_azure_trace(b.config, 5, trace_rng(2019, 17))
    assert counts_a.tobytes() == counts_b.tobytes()


def test_shard_ranges_tile_exactly():
    for functions, shards in ((10, 3), (24, 4), (7, 7), (1, 1), (100, 1)):
        ranges = shard_ranges(functions, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == functions
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        shard_ranges(10, 11)
    with pytest.raises(ValueError):
        shard_ranges(10, 0)
    with pytest.raises(ValueError):
        shard_ranges(0, 1)


# ----------------------------------------------------------------------
# 3. reservoir-merge determinism
# ----------------------------------------------------------------------
def _reservoir_state(values, max_samples=4096):
    sketch = ReservoirQuantiles(max_samples=max_samples)
    for value in values:
        sketch.add(float(value))
    return sketch.state()


def _full_state(reservoir):
    """Sample, count and RNG state: everything a fold can change."""
    return (list(reservoir._sorted), reservoir.count, reservoir._rng.getstate())


def test_sketch_add_many_matches_add_on_distinct_values():
    """The shared batched fold ≡ per-element ``add`` for both reservoirs.

    Distinct values make every replacement visible (a wrong victim
    index changes the sample), across batch sizes from one element to
    the whole stream.
    """
    from repro.core.estimation.service_time import StreamingQuantile

    values = [float(v) for v in np.random.default_rng(4).permutation(2000)]
    for reservoir in (ReservoirQuantiles, StreamingQuantile):
        reference = reservoir(max_samples=64, seed=5)
        for value in values:
            reference.add(value)
        for batch in (1, 7, 64, 500, 2000):
            batched = reservoir(max_samples=64, seed=5)
            for start in range(0, len(values), batch):
                batched.add_many(values[start:start + batch])
            assert _full_state(batched) == _full_state(reference), (reservoir, batch)


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_sketch_add_many_rejects_bad_values_after_folding_the_prefix(bad):
    sketch = ReservoirQuantiles(max_samples=10)
    with pytest.raises(ValueError, match="non-negative"):
        sketch.add_many([1.0, 2.0, bad, 3.0])
    assert sketch.count == 2
    assert sketch.state()["samples"] == [1.0, 2.0]


def test_reservoir_state_snapshot():
    state = _reservoir_state([3.0, 1.0, 2.0], max_samples=10)
    assert state == {"count": 3, "max_samples": 10, "samples": [1.0, 2.0, 3.0]}
    overflowed = _reservoir_state(range(100), max_samples=10)
    assert overflowed["count"] == 100
    assert len(overflowed["samples"]) == 10
    assert overflowed["samples"] == sorted(overflowed["samples"])


def test_merge_is_order_insensitive():
    """Permuting shard states can never change a merged byte."""
    rng = random.Random(5)
    states = [_reservoir_state([rng.uniform(0, 100) for _ in range(40)],
                               max_samples=16)  # sampled regime
              for _ in range(6)]
    reference = merge_reservoir_states(states)
    for _ in range(10):
        rng.shuffle(states)
        assert canonical_json(merge_reservoir_states(states)) == \
            canonical_json(reference)


def test_merge_exact_equals_any_decomposition():
    """With full retention, the merge is a pure function of the pooled data."""
    rng = random.Random(9)
    values = [rng.uniform(0, 50) for _ in range(200)]
    pooled = merge_reservoir_states([_reservoir_state(values)])
    for k in (2, 5, 8):
        cuts = sorted(rng.sample(range(1, len(values)), k - 1))
        groups = [values[a:b] for a, b in
                  zip([0] + cuts, cuts + [len(values)])]
        split = merge_reservoir_states([_reservoir_state(g) for g in groups])
        assert canonical_json(split) == canonical_json(pooled)
    assert pooled["exact"] is True
    assert pooled["count"] == 200


def test_merge_flags_sampled_states_and_validates_quantiles():
    sampled = merge_reservoir_states([_reservoir_state(range(100),
                                                       max_samples=10)])
    assert sampled["exact"] is False
    empty = merge_reservoir_states([])
    assert empty == {"count": 0, "exact": True,
                     "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
    with pytest.raises(ValueError, match="quantiles"):
        merge_reservoir_states([_reservoir_state([1.0])], quantiles=(1.5,))


@pytest.mark.parametrize("corrupt, problem", [
    (dict(count=-1, samples=[]), "negative count"),
    (dict(count=2, samples=[1.0, 2.0, 3.0]), "below its 3 samples"),
    (dict(count=50, max_samples=10, samples=[float(v) for v in range(11)]),
     "exceed max_samples"),
    (dict(count=5, samples=[]), "no samples"),
    (dict(count=3, samples=[1.0, float("nan"), 2.0]), "non-finite"),
    (dict(count=3, samples=[1.0, float("inf"), 2.0]), "non-finite"),
])
def test_merge_rejects_corrupt_states(corrupt, problem):
    """A state no reservoir could produce is named, never merged."""
    good = _reservoir_state([1.0, 2.0], max_samples=10)
    bad = dict(good, **corrupt)
    with pytest.raises(ValueError, match=rf"reservoir state 1 is invalid: .*{problem}"):
        merge_reservoir_states([good, bad])


def test_merge_trace_shards_permutation_regression():
    """Shuffling the sweep's results list never changes merged bytes."""
    envelope = SweepRunner(_small_sweep(shards=4), workers=1).run()
    reference = canonical_json(merge_trace_shards(envelope))
    shuffled = dict(envelope)
    results = list(envelope["results"])
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(results)
        shuffled["results"] = list(results)
        assert canonical_json(merge_trace_shards(shuffled)) == reference


def test_merge_rejects_bad_envelopes():
    envelope = SweepRunner(_small_sweep(shards=2), workers=1).run()
    assert merge_trace_shards(envelope)["schema"] == TRACE_MERGE_SCHEMA

    with pytest.raises(ValueError, match="envelope"):
        merge_trace_shards({"schema": "something-else"})
    degraded = dict(envelope, incomplete=True)
    with pytest.raises(ValueError, match="incomplete"):
        merge_trace_shards(degraded)
    with pytest.raises(ValueError, match="no shard results"):
        merge_trace_shards(dict(envelope, results=[]))
    # a non-replay result in the list
    alien = dict(envelope, results=[{"scenario": {"name": "x"}}])
    with pytest.raises(ValueError, match="not a trace_replay result"):
        merge_trace_shards(alien)
    # a gap in the coverage
    gappy = dict(envelope, results=[envelope["results"][1]])
    with pytest.raises(ValueError, match="tile"):
        merge_trace_shards(gappy)
    # duplicated shard → overlap
    doubled = dict(envelope, results=list(envelope["results"])
                   + [envelope["results"][0]])
    with pytest.raises(ValueError, match="tile"):
        merge_trace_shards(doubled)
    # a shard sketch that claims fewer observations than it retains
    results = json.loads(json.dumps(envelope["results"]))
    results[1]["replay"]["sketch"]["count"] = 0
    with pytest.raises(ValueError, match="reservoir state 1 is invalid"):
        merge_trace_shards(dict(envelope, results=results))


# ----------------------------------------------------------------------
# 4. edge cases fail eagerly (trace configs, stats, replay params)
# ----------------------------------------------------------------------
def test_azure_config_validation():
    with pytest.raises(ValueError, match="mean_rate"):
        AzureTraceConfig(mean_rate=-1.0)
    with pytest.raises(ValueError, match="burst_probability"):
        AzureTraceConfig(mean_rate=1.0, burst_probability=1.5)
    with pytest.raises(ValueError, match="burst_duration"):
        AzureTraceConfig(mean_rate=1.0, burst_duration_minutes=0.0)
    with pytest.raises(ValueError, match="burst_multiplier"):
        AzureTraceConfig(mean_rate=1.0, burst_multiplier=0.0)
    with pytest.raises(ValueError, match="variability"):
        AzureTraceConfig(mean_rate=1.0, variability=-0.1)


def test_trace_statistics_edge_cases():
    assert trace_statistics({}) == {}

    single = synthesize_azure_traces(
        {"only": AzureTraceConfig(mean_rate=5.0)}, duration_minutes=10, seed=1)
    stats = trace_statistics(single)
    assert set(stats) == {"only"}
    assert stats["only"]["total"] == float(sum(single["only"].counts))

    zero = synthesize_azure_traces(
        {"idle": AzureTraceConfig(mean_rate=0.0)}, duration_minutes=10, seed=1)
    idle = trace_statistics(zero)["idle"]
    assert idle["total"] == 0.0
    assert idle["zero_minutes"] == 10.0
    assert idle["peak_to_mean"] == float("inf")


def test_trace_replay_spec_validates_eagerly():
    good = {
        "population": {"functions": 10, "seed": 1, "sporadic_fraction": 0.4,
                       "rate_log10_mean": -2.0, "rate_log10_sigma": 0.8},
        "trace_seed": 2019, "duration_minutes": 5, "chunk_minutes": 3,
        "sketch_size": 16, "function_range": [0, 10],
    }
    ScenarioSpec(name="ok", kind="trace_replay", params=good)

    def bad(**changes):
        params = json.loads(json.dumps(good))
        params.update(changes)
        return params

    with pytest.raises(ValueError, match="missing keys"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params={k: v for k, v in good.items() if k != "trace_seed"})
    with pytest.raises(ValueError, match="population missing key"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(population={"functions": 10}))
    with pytest.raises(ValueError, match="sporadic_fraction"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], sporadic_fraction=1.5)))
    with pytest.raises(ValueError, match="rate_log10_sigma"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], rate_log10_sigma=-1.0)))
    with pytest.raises(ValueError, match="functions"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], functions=0)))
    with pytest.raises(ValueError, match="duration_minutes"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(duration_minutes=0))
    with pytest.raises(ValueError, match="chunk_minutes"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(chunk_minutes=0))
    with pytest.raises(ValueError, match="sketch_size"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(sketch_size=5))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(function_range=[4]))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(function_range=[6, 6]))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(function_range=[0, 11]))
    with pytest.raises(ValueError, match="workloads"):
        from repro.scenarios.spec import ScheduleSpec, WorkloadSpec
        ScenarioSpec(name="x", kind="trace_replay", params=good, workloads=(
            WorkloadSpec("squeezenet", ScheduleSpec.static(1.0)),))


def test_trace_replay_spec_round_trips():
    """from_dict(to_dict()) reproduces the shard spec exactly."""
    spec = next(iter(_small_sweep(shards=3).expand()))
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())


# ----------------------------------------------------------------------
# The experiment wrapper and its text rendering
# ----------------------------------------------------------------------
def test_fig9_at_scale_experiment_end_to_end():
    from repro.experiments import run_fig9_at_scale
    from repro.experiments.fig9_at_scale import format_fig9_at_scale

    result = run_fig9_at_scale(functions=24, duration_minutes=6, shards=4,
                               workers=2, chunk_minutes=4, sketch_size=1000)
    assert result.functions == 24
    assert result.shard_count == 4
    assert result.duration_minutes == 6
    assert result.invocations == result.merged["totals"]["invocations"]
    assert 0.0 <= result.overload_fraction <= 1.0
    assert 0.0 <= result.zero_fraction <= 1.0
    text = format_fig9_at_scale(result)
    assert "Azure-scale streaming replay" in text
    assert "24 functions" in text and "4 shards" in text


# ----------------------------------------------------------------------
# CLI: the replay verb end to end
# ----------------------------------------------------------------------
def test_cli_replay_byte_identical_across_workers(tmp_path):
    from repro.cli import main

    args = ["replay", "--functions", "24", "--minutes", "6", "--shards", "4",
            "--chunk-minutes", "4", "--sketch-size", "64"]
    out1 = tmp_path / "one.json"
    out4 = tmp_path / "four.json"
    assert main(args + ["-j", "1", "-o", str(out1)]) == 0
    assert main(args + ["-j", "4", "-o", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    merged = json.loads(out1.read_text())
    assert merged["schema"] == TRACE_MERGE_SCHEMA
    assert merged["totals"]["functions"] == 24
    assert merged["shard_count"] == 4


def test_cli_replay_usage_errors(tmp_path):
    from repro.cli import main

    assert main(["replay", "--resume"]) == 2
    assert main(["replay", "--functions", "4", "--shards", "9",
                 "--minutes", "2"]) == 2
