"""Trace-driven replay vs. the oracle interpreter, bit for bit.

Three layers of evidence that replay is exact:

* a **differential suite** records each benchmark's trace once and
  replays it under every committed hierarchy shape, asserting the full
  ``SimResult`` (cycles, instructions, exit code, console, per-level
  stats) equals the oracle's run (:func:`repro.sim.simulate_oracle`),
  and that per-pc miss attribution does too;
* a **randomized property test** for the single-pass Mattson kernel:
  synthetic traces with adversarial reuse/write patterns must yield the
  same hit counts and cycles from ``replay_sweep`` as from per-size
  replays (and per-size execution is pinned by the differential layer);
* **cache tests**: content-addressed invalidation, the shared disk
  layer, and the reuse counters that prove a workflow size sweep is
  served by one recorded trace and one single-pass replay.
"""

import importlib
import random
import weakref
from array import array

import pytest

from repro.benchmarks import BENCHMARKS
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.memory.regions import MAIN_BASE
from repro.minic import compile_source
from repro.sim import SimError, Simulator, simulate_oracle
from repro.sim import trace as trace_mod
from repro.sim.replay import (replay, replay_misses, replay_sweep,
                              sweep_geometry)
from repro.sim.trace import (
    READ_TAGS,
    WRITE_TAGS,
    Trace,
    clear_trace_caches,
    record_trace,
    set_trace_cache_dir,
    trace_for,
)
from repro.workflow import Workflow

from .helpers import SHAPES, SPM_SIZE, oracle, suite_image
from .helpers import assert_same_result as _assert_same

_TRACES = {}


def _trace(bench, spm: bool):
    key = (bench, spm)
    if key not in _TRACES:
        _TRACES[key] = record_trace(suite_image(bench, spm),
                                    SPM_SIZE if spm else 0)
    return _TRACES[key]


# -- differential: every benchmark × every committed shape -------------------

@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_replay_matches_engine(bench, shape):
    config = SHAPES[shape]()
    replayed = replay(_trace(bench, bool(config.spm_size)), config)
    _assert_same(replayed, oracle(bench, shape), (bench, shape))


def test_sweep_matches_engine_and_per_size_replay():
    sizes = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
    for unified in (True, False):
        configs = [SystemConfig.cached(
            CacheConfig(size=size, unified=unified)) for size in sizes]
        trace = _trace("crc", spm=False)
        swept = replay_sweep(trace, configs)
        for config, from_sweep in zip(configs, swept):
            _assert_same(from_sweep, replay(trace, config),
                         (config.name, unified))
            _assert_same(from_sweep,
                         simulate_oracle(suite_image("crc", False),
                                         config),
                         (config.name, unified))


def test_replay_rejects_mismatched_spm_split():
    trace = _trace("crc", spm=False)
    with pytest.raises(ValueError):
        replay(trace, SystemConfig.scratchpad(SPM_SIZE))


def test_replay_respects_step_budget():
    from repro.sim import SimError
    trace = _trace("crc", spm=False)
    with pytest.raises(SimError):
        replay(trace, SystemConfig.uncached(),
               max_steps=trace.instructions - 1)


def test_replay_plans_are_keyed_by_value_and_keep_no_config(monkeypatch):
    # Workflow points build a fresh SystemConfig each time; the plan
    # memo must share one plan between equal configs and hold none of
    # them alive.
    # (``repro.sim.replay`` the attribute is the function, so fetch the
    # module itself.)
    replay_mod = importlib.import_module("repro.sim.replay")
    monkeypatch.setattr(replay_mod, "_PLANS", {})
    trace = _random_trace(random.Random(5), accesses=500)
    results = set()
    for _ in range(50):
        config = SystemConfig.cached(CacheConfig(size=256, assoc=2))
        results.add(replay(trace, config).cycles)
    assert len(replay_mod._PLANS) == 1
    assert len(results) == 1
    ref = weakref.ref(config)
    del config
    assert ref() is None


# -- randomized property: single pass == per-size replay ---------------------

def _random_trace(rng, accesses=4000, blocks=96):
    """A synthetic main-memory stream with heavy set conflicts."""
    line = 16
    ops = array("Q")
    op_counts = [0] * 8
    addrs = [MAIN_BASE + rng.randrange(blocks) * line +
             rng.randrange(line // 4) * 4 for _ in range(accesses)]
    for addr in addrs:
        roll = rng.random()
        if roll < 0.6:
            tag = 0
        elif roll < 0.85:
            tag = READ_TAGS[rng.choice((1, 2, 4))]
        else:
            tag = WRITE_TAGS[rng.choice((1, 2, 4))]
        if tag in (1, 4):
            addr += rng.randrange(4)  # byte accesses need no alignment
        elif tag in (2, 5):
            addr += rng.choice((0, 2))
        ops.append((addr << 3) | tag)
        op_counts[tag] += 1
    return Trace(ops=ops, op_counts=tuple(op_counts),
                 spm_counts=(0,) * 8, base_cycles=rng.randrange(1000),
                 instructions=accesses, exit_code=0, console=(),
                 spm_size=0)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("unified", (True, False))
def test_sweep_property_random_traces(seed, unified):
    rng = random.Random(0xC0FFEE + seed)
    trace = _random_trace(rng)
    sizes = (64, 128, 256, 512, 1024)
    configs = [SystemConfig.cached(CacheConfig(size=size, unified=unified))
               for size in sizes]
    for from_sweep, config in zip(replay_sweep(trace, configs), configs):
        _assert_same(from_sweep, replay(trace, config),
                     (seed, unified, config.name))


def test_sweep_geometry_gate():
    assert sweep_geometry(SystemConfig.cached(CacheConfig(size=256))) \
        == (16, True, 0)
    assert sweep_geometry(
        SystemConfig.cached(CacheConfig(size=256, unified=False))) \
        == (16, False, 0)
    # Not sweepable: associativity, non-LRU, deeper pipelines, split I/D.
    assert sweep_geometry(
        SystemConfig.cached(CacheConfig(size=256, assoc=2))) is None
    assert sweep_geometry(SystemConfig.cached(
        CacheConfig(size=256, replacement="fifo"))) is None
    assert sweep_geometry(SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=1024))) is None
    assert sweep_geometry(SystemConfig.split_l1(
        CacheConfig(size=256, unified=False),
        CacheConfig(size=256))) is None
    assert sweep_geometry(SystemConfig.uncached()) is None
    with pytest.raises(ValueError):
        replay_sweep(_trace("crc", False),
                     [SystemConfig.cached(CacheConfig(size=256)),
                      SystemConfig.cached(CacheConfig(size=512, assoc=2))])


# -- the content-addressed trace cache ---------------------------------------

@pytest.fixture
def fresh_trace_cache():
    clear_trace_caches()
    saved = dict(trace_mod.COUNTERS)
    yield trace_mod.COUNTERS
    clear_trace_caches()
    set_trace_cache_dir(None)
    trace_mod.COUNTERS.update(saved)


def test_trace_cache_hits_and_invalidation(fresh_trace_cache):
    counters = fresh_trace_cache
    counters.update(trace_hits=0, trace_misses=0, trace_records=0)
    image = suite_image("crc", spm=False)
    first = trace_for(image, 0)
    assert counters["trace_misses"] == 1
    assert trace_for(image, 0) is first
    assert counters["trace_hits"] == 1
    assert counters["trace_records"] == 1
    # A different placement of the same program is a different image
    # content key: the cache must re-record, not serve a stale stream.
    other = trace_for(suite_image("crc", spm=True), SPM_SIZE)
    assert counters["trace_records"] == 2
    assert other.spm_size == SPM_SIZE
    assert sum(other.spm_counts) > 0


def test_trace_disk_layer_roundtrip(tmp_path, fresh_trace_cache):
    counters = fresh_trace_cache
    set_trace_cache_dir(tmp_path)
    image = suite_image("adpcm", spm=False)
    counters.update(trace_hits=0, trace_misses=0, trace_disk_hits=0,
                    trace_records=0)
    first = trace_for(image, 0)
    assert counters["trace_records"] == 1
    # A fresh process is modelled by clearing the in-memory layer: the
    # trace must come back from disk, identical, without re-recording.
    clear_trace_caches()
    reloaded = trace_for(image, 0)
    assert counters["trace_disk_hits"] == 1
    assert counters["trace_records"] == 1
    assert reloaded.ops == first.ops
    assert reloaded.base_cycles == first.base_cycles
    assert reloaded.console == first.console
    # Corrupt entries are quarantined (counted, moved aside — PR 8's
    # store envelope makes "silently ignored" impossible) and the
    # trace is re-recorded.
    clear_trace_caches()
    entries = list(tmp_path.rglob("*.trace.pkl"))
    assert entries, "store wrote no sharded entries"
    for entry in entries:
        entry.write_bytes(b"not a pickle")
    again = trace_for(image, 0)
    assert counters["trace_records"] == 2
    assert again.ops == first.ops
    store_counts = trace_mod.trace_counters()
    assert store_counts["trace_store_corrupt"] >= 1
    assert list((tmp_path / "corrupt").iterdir())


# -- workflow integration: sweeps are served by one trace + one pass ---------

_SWEEP_SOURCE = """
int table[96];
int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 96; i++) { table[i] = i * 3; }
    for (i = 0; i < 96; i++) { acc += table[i] & 15; }
    return acc & 255;
}
"""


def test_workflow_cache_sweep_reuses_one_trace(fresh_trace_cache):
    counters = fresh_trace_cache
    counters.update(trace_hits=0, trace_misses=0, trace_records=0,
                    sweep_passes=0, sweep_points=0, replay_runs=0)
    workflow = Workflow(_SWEEP_SOURCE)
    sizes = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
    points = workflow.cache_sweep(sizes=sizes)
    assert [p.config.cache.size for p in points] == list(sizes)
    # One recorded trace, one single-pass replay, eight points served.
    assert counters["trace_records"] == 1
    assert counters["sweep_passes"] == 1
    assert counters["sweep_points"] == len(sizes)
    assert counters["replay_runs"] == 0
    # The persistence variant re-analyses WCET but reuses every sim.
    persisted = workflow.cache_sweep(sizes=sizes, persistence=True)
    assert counters["trace_records"] == 1
    assert counters["sweep_passes"] == 1
    for plain, persist in zip(points, persisted):
        assert persist.sim is plain.sim
    # Every replayed sim matches the oracle's run of the point.
    for point in points:
        _assert_same(point.sim,
                     simulate_oracle(point.image, point.config),
                     point.config.name)


def test_workflow_mixed_geometry_sweep(fresh_trace_cache):
    counters = fresh_trace_cache
    counters.update(trace_records=0, sweep_passes=0, grid_passes=0,
                    grid_points=0, replay_runs=0)
    workflow = Workflow(_SWEEP_SOURCE)
    specs = [
        (CacheConfig(size=64), False),
        (CacheConfig(size=256, assoc=2), False),   # joins the grid pass
        (CacheConfig(size=128), False),
        (CacheConfig(size=64, unified=False), False),  # separate group
        (CacheConfig(size=256), False),
        (CacheConfig(size=128, unified=False), False),
    ]
    points = workflow.cache_points(specs)
    assert [p.config.cache for p in points] == [cache for cache, _ in specs]
    assert counters["trace_records"] == 1
    assert counters["grid_passes"] == 1    # unified trio + the 2-way point
    assert counters["grid_points"] == 4
    assert counters["sweep_passes"] == 1   # all-DM icache pair
    assert counters["replay_runs"] == 0
    for point in points:
        _assert_same(point.sim,
                     simulate_oracle(point.image, point.config),
                     point.config.name)


def test_uncached_point_is_memoized():
    workflow = Workflow(_SWEEP_SOURCE)
    assert workflow.uncached_point() is workflow.uncached_point()


# -- replay-served per-pc miss counters ---------------------------------------

MISS_BENCHES = ("crc", "matmult", "fir")


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("bench", MISS_BENCHES)
def test_replay_misses_matches_recording_engine(bench, shape):
    """replay_misses == the oracle's record_misses counters, per pc.

    The trace carries the owning pc of every fetch (continuation entries
    are tagged TAG_FETCH_CONT), so the per-instruction miss attribution
    the WCET-vs-observed tooling consumes must be reproducible from the
    recorded stream without re-executing."""
    spm = shape in ("spm", "hybrid")
    config = SHAPES[shape]()
    executed = oracle(bench, shape)
    fetch, main = replay_misses(_trace(bench, spm), config)
    context = f"{bench}/{shape}"
    assert fetch == dict(executed.fetch_misses), context
    assert main == dict(executed.fetch_main_misses), context


def test_replay_misses_attributes_bl_continuations():
    """A missing second halfword of BL counts once, at the call's pc."""
    image = suite_image("crc", False)
    trace = _trace("crc", False)
    bl_pcs = {addr for addr, instr in Simulator(
        image, SystemConfig.uncached()).code.items() if instr.size == 4}
    assert bl_pcs, "benchmark must contain 32-bit call instructions"
    cont = [v >> 3 for v in trace.ops if v & 7 == 7]
    assert cont and all(pc - 2 in bl_pcs for pc in cont)
    fetch, _ = replay_misses(trace, SHAPES["l1"]())
    assert set(fetch) <= {addr for addr, instr in Simulator(
        image, SystemConfig.uncached()).code.items()}


def test_replay_misses_checks_budget_and_spm():
    trace = _trace("crc", True)
    with pytest.raises(SimError):
        replay_misses(trace, SHAPES["spm"](), max_steps=1)
    with pytest.raises(ValueError):
        replay_misses(trace, SystemConfig.uncached())


# -- write-recency regression: shared-stack sweeps vs write traffic ----------

_WRITE_HEAVY_SOURCE = """
int big[256];
int mirror[256];
int main(void) {
    int i;
    int j;
    int acc = 0;
    for (j = 0; j < 6; j++) {
        for (i = 0; i < 256; i++) {
            big[i & 255] = i + j;
        }
        for (i = 0; i < 128; i++) {
            mirror[(i * 2) & 255] = big[(255 - i) & 255];
        }
        acc = acc + big[j & 255] + mirror[(j * 3) & 255];
    }
    return acc & 255;
}
"""


def test_write_heavy_sweep_matches_per_size_replay(fresh_trace_cache):
    """Write-through/no-allocate traffic must not corrupt the shared
    Mattson recency stack of a single-pass size sweep.

    Writes never allocate in the modelled caches, so in the shared
    last-allocation-per-set recency structure a write must refresh the
    stats of *resident* blocks only — recording it as an allocation
    would make larger sweep sizes disagree with their per-size replays
    on any write-dominated stream.  This pins the subtlety with a
    program whose data traffic is mostly stores.
    """
    image = link(compile_source(_WRITE_HEAVY_SOURCE).program)
    trace = record_trace(image, 0)
    _fetches, _reads, writes = trace.counts_by_kind()
    # The premise: a heavy store stream hammering many distinct sets
    # (stack-resident scalars keep the read count high regardless).
    assert writes > 2000
    sizes = (64, 128, 256, 512, 1024)
    for unified in (True, False):
        configs = [SystemConfig.cached(CacheConfig(size=size,
                                                   unified=unified))
                   for size in sizes]
        swept = replay_sweep(trace, configs)
        for config, result in zip(configs, swept):
            _assert_same(result, replay(trace, config), config.name)
            _assert_same(result, simulate_oracle(image, config), config.name)


def test_write_heavy_generated_program_sweep(fresh_trace_cache):
    """Same differential on a store-heavy generated workload, via the
    public Workflow sweep (one recorded trace, one sweep pass)."""
    from repro.gen import generate
    for seed in range(40):
        program = generate(seed, "small")
        image = link(compile_source(program.source).program)
        trace = record_trace(image, 0)
        _fetches, reads, writes = trace.counts_by_kind()
        if writes * 3 > reads:      # a store-rich seed
            break
    else:
        pytest.skip("no store-rich seed in the probe range")
    sizes = (64, 128, 256)
    configs = [SystemConfig.cached(CacheConfig(size=size))
               for size in sizes]
    for config, result in zip(configs, replay_sweep(trace, configs)):
        _assert_same(result, simulate_oracle(image, config), config.name)
        assert result.exit_code == program.expected_exit
