"""Pins for the vectorised replay kernels and the trace RLE form.

Three layers:

* **kernel differential** — every committed hierarchy shape priced by
  :func:`replay` (the numpy kernels wherever the pipeline is
  direct-mapped LRU) must agree on the full result with the scalar
  walk over the hierarchy's touch closures (``_walk_replay``, which
  ``tests/test_trace_replay.py`` pins against the oracle interpreter
  through the shapes it serves);
* **geometry-grid property** — one :func:`replay_grid` pass over a
  (size × associativity) grid must equal per-point replays and the
  scalar walk on adversarial synthetic streams (hypothesis-driven,
  write-heavy included) and equal the oracle on generated
  (``gen:<seed>``) programs;
* **run-length encoding** — compress/expand round trips (strided,
  constant and unencodable streams), the pickle fast path in both its
  ``"runs"`` and ``"flat"`` branches, and :meth:`Trace.compact`.
"""

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.memory.regions import MAIN_BASE
from repro.minic import compile_source
from repro.sim import simulate_oracle
from repro.sim import kernels
from repro.sim.replay import _plan_for, _walk_replay, replay, replay_grid
from repro.sim.trace import (READ_TAGS, WRITE_TAGS, Trace, record_trace)

SPM_SIZE = 512

SHAPES = {
    "uncached": lambda: SystemConfig.uncached(),
    "spm": lambda: SystemConfig.scratchpad(SPM_SIZE),
    "l1": lambda: SystemConfig.cached(CacheConfig(size=512)),
    "l1-2way": lambda: SystemConfig.cached(CacheConfig(size=512, assoc=2)),
    "l1-fifo": lambda: SystemConfig.cached(
        CacheConfig(size=512, assoc=2, replacement="fifo")),
    "l1-random": lambda: SystemConfig.cached(
        CacheConfig(size=512, assoc=4, replacement="random")),
    "icache": lambda: SystemConfig.cached(
        CacheConfig(size=512, unified=False)),
    "hybrid": lambda: SystemConfig.hybrid(SPM_SIZE, CacheConfig(size=256)),
    "l1+l2": lambda: SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=1024)),
    "split-i/d": lambda: SystemConfig.split_l1(
        CacheConfig(size=256, unified=False), CacheConfig(size=256)),
}

_IMAGES = {}
_TRACES = {}


def _image(spm: bool):
    if spm not in _IMAGES:
        program = compile_source(get("crc").source()).program
        if not spm:
            _IMAGES[spm] = link(program)
        else:
            chosen, used = [], 0
            for name, _kind, size in sorted(program.memory_objects(),
                                            key=lambda o: (o[2], o[0])):
                aligned = (size + 3) & ~3
                if used + aligned <= SPM_SIZE:
                    chosen.append(name)
                    used += aligned
            _IMAGES[spm] = link(program, spm_size=SPM_SIZE,
                                spm_objects=chosen)
    return _IMAGES[spm]


def _trace(spm: bool):
    if spm not in _TRACES:
        _TRACES[spm] = record_trace(_image(spm), SPM_SIZE if spm else 0)
    return _TRACES[spm]


def _stats_tuple(stats):
    if stats is None:
        return None
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


def _assert_same(got, want, context):
    assert got.cycles == want.cycles, context
    assert got.instructions == want.instructions, context
    assert _stats_tuple(got.cache_stats) == \
        _stats_tuple(want.cache_stats), context
    assert set(got.level_stats) == set(want.level_stats), context
    for level in want.level_stats:
        assert _stats_tuple(got.level_stats[level]) == \
            _stats_tuple(want.level_stats[level]), (context, level)


def _walk(trace, config):
    """The scalar reference: every access walked through the hierarchy."""
    return _walk_replay(trace, config, _plan_for(config))


# -- kernel differential over every committed shape --------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_numpy_matches_scalar_every_shape(shape):
    spm = shape in ("spm", "hybrid")
    trace = _trace(spm)
    config = SHAPES[shape]()
    _assert_same(replay(trace, config), _walk(trace, config), shape)


# -- geometry grid: one pass == per-point == engine --------------------------

def _synthetic_trace(rng, accesses=2500, blocks=80, write_frac=0.15):
    """A conflict-heavy main-memory stream with a tunable write share."""
    line = 16
    ops = array("Q")
    op_counts = [0] * 8
    for _ in range(accesses):
        addr = MAIN_BASE + rng.randrange(blocks) * line + \
            rng.randrange(line // 4) * 4
        roll = rng.random()
        if roll < 0.55:
            tag = 0
        elif roll < 1.0 - write_frac:
            tag = READ_TAGS[rng.choice((1, 2, 4))]
        else:
            tag = WRITE_TAGS[rng.choice((1, 2, 4))]
        if tag in (1, 4):
            addr += rng.randrange(4)
        elif tag in (2, 5):
            addr += rng.choice((0, 2))
        ops.append((addr << 3) | tag)
        op_counts[tag] += 1
    return Trace(ops=ops, op_counts=tuple(op_counts),
                 spm_counts=(0,) * 8, base_cycles=rng.randrange(1000),
                 instructions=accesses, exit_code=0, console=(),
                 spm_size=0)


def _grid_configs(unified, sizes=(128, 512), assocs=(1, 2, 4, 8)):
    return [SystemConfig.cached(CacheConfig(size=size, assoc=assoc,
                                            unified=unified))
            for size in sizes for assoc in assocs if size >= 16 * assoc]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 20),
       write_frac=st.sampled_from((0.15, 0.45)))
def test_grid_property_matches_per_point(seed, write_frac):
    trace = _synthetic_trace(random.Random(seed), write_frac=write_frac)
    for unified in (True, False):
        configs = _grid_configs(unified)
        for config, priced in zip(configs, replay_grid(trace, configs)):
            context = (seed, config.name)
            _assert_same(priced, replay(trace, config), context)
            _assert_same(priced, _walk(trace, config), context)


@pytest.mark.parametrize("seed", (101, 4242))
def test_grid_matches_engine_on_generated_programs(seed):
    from repro.gen.progen import generate
    generated = generate(seed, "small")
    image = link(compile_source(generated.source).program)
    trace = record_trace(image, 0)
    for unified in (True, False):
        configs = _grid_configs(unified, sizes=(256, 1024))
        for config, priced in zip(configs, replay_grid(trace, configs)):
            executed = simulate_oracle(image, config)
            _assert_same(priced, executed, (seed, config.name))
            assert priced.exit_code == executed.exit_code
            assert priced.console == executed.console


def test_sweep_counts_non_chain_and_shuffled_orders():
    trace = _synthetic_trace(random.Random(7))
    values = kernels.ops_view(trace.ops)
    for unified in (True, False):
        kind = "unified" if unified else "fetch"
        for nsets_list in ((4, 6, 8, 12),      # no divisibility chain
                           (32, 4, 8, 8, 64)):  # shuffled + duplicates
            expect = [kernels.prep_counts(
                kernels.stream_prep(values, 16, kind), nsets)[0]
                for nsets in nsets_list]
            got = kernels.dm_sweep_counts(values, 16, unified, nsets_list)
            assert got == expect, (unified, nsets_list)


# -- run-length encoding ------------------------------------------------------

def _raw_trace(ops):
    counts = [0] * 8
    for value in ops:
        counts[value & 7] += 1
    return Trace(ops=array("Q", ops), op_counts=tuple(counts),
                 spm_counts=(0,) * 8, base_cycles=0, instructions=1,
                 exit_code=0, console=(), spm_size=0)


def test_rle_round_trip_strided_and_constant():
    # A strided fetch run (addr += 2 -> packed += 16), a constant run
    # (repeated reads of one word) and a lone op.
    ops = [((0x8000 + 2 * i) << 3) for i in range(10)]
    ops += [((0x9000 << 3) | 2)] * 5
    ops += [((0x7000 << 3) | 5)]
    trace = _raw_trace(ops)
    runs = trace.runs()
    assert runs is not None
    assert len(runs[2]) < len(ops)  # actually compressed
    assert list(kernels.expand_runs(*runs)) == ops
    flat = [value
            for first, count, stride in trace.iter_runs()
            for value in (range(first, first + 16 * count, 16) if stride
                          else [first] * count)]
    assert flat == ops


def test_rle_refuses_foreign_overflow():
    # A backwards delta beyond int32 keeps the trace flat (the on-disk
    # and pickle forms fall back rather than mis-encode).
    ops = [((1 << 60) << 3), (0x1000 << 3), ((1 << 60) << 3) | 2]
    trace = _raw_trace(ops)
    assert trace.runs() is None
    assert [count for _f, count, _s in trace.iter_runs()] == [1, 1, 1]
    assert trace.compact() is trace  # keeps its ops
    assert list(trace.ops) == ops


def test_pickle_runs_and_flat_branches():
    compressible = _raw_trace(
        [((0x8000 + 2 * i) << 3) for i in range(20)])
    foreign = _raw_trace([((1 << 60) << 3), (0x1000 << 3)])
    for trace in (compressible, foreign):
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone.ops) == list(trace.ops)
        assert clone.op_counts == trace.op_counts
        assert clone.base_cycles == trace.base_cycles
        assert clone.spm_size == trace.spm_size
    # The compressible pickle must be the RLE form: smaller than flat.
    assert len(pickle.dumps(compressible)) < \
        len(pickle.dumps(foreign)) + 18 * 8


def test_compact_drops_flat_ops_and_reexpands():
    ops = [((0x8000 + 2 * i) << 3) for i in range(32)]
    trace = _raw_trace(ops)
    assert trace.compact() is trace
    assert trace._ops is None
    assert list(trace.ops) == ops  # re-expanded on demand
    clone = pickle.loads(pickle.dumps(trace))
    assert list(clone.ops) == ops


def test_recorded_trace_rle_round_trips():
    trace = _trace(False)
    raw = len(trace.ops) * 8
    payload = pickle.dumps(trace)
    assert len(payload) < raw  # the RLE satellite: strictly smaller
    clone = pickle.loads(payload)
    assert array("Q", clone.ops) == array("Q", trace.ops)
    config = SystemConfig.cached(CacheConfig(size=512))
    _assert_same(replay(clone, config), replay(trace, config), "rle clone")


def test_tag_counts_match_scalar_loop():
    """The bincount that sizes a recorded trace's per-tag totals equals
    the plain loop it replaces, on native and synthetic streams."""
    for ops in (_trace(False).ops,
                _synthetic_trace(random.Random(3)).ops):
        loop = [0] * 8
        for value in ops:
            loop[value & 7] += 1
        assert kernels.tag_counts(ops) == tuple(loop)
