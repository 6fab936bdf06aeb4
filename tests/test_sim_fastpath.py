"""Differential tests: the executor vs. the oracle interpreter.

:meth:`Simulator.run` executes once on the compiled step-closure engine
(:mod:`repro.sim.engine`), recording the access trace, and prices the
trace with :func:`~repro.sim.replay.replay`.  The oracle
(:meth:`Simulator.run_oracle`) is an independent instruction dispatch
over the :class:`~repro.memory.hierarchy.MemoryHierarchy` access path.
These tests run **every registered benchmark** through **every
hierarchy shape** (uncached, scratchpad, L1 under LRU/FIFO/random
replacement, set-associative and instruction-only L1, hybrid SPM+L1,
L1+L2, split I/D) and assert the observable results are identical:
cycles, instruction counts, exit codes, console output, and per-level
hit/miss statistics.  They also hold the trace-derived profiles the
energy knapsack consumes to the oracle's per-address counters.
"""

import pytest

from repro.benchmarks import BENCHMARKS
from repro.isa.opcodes import Cond
from repro.memory import CacheConfig, SystemConfig
from repro.sim import Simulator, build_profile, record_trace, trace_counts
from repro.sim.simulator import _COND_DISPATCH

from .helpers import SHAPES, assert_same_result, oracle, suite_image


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_engines_agree(bench, shape):
    config = SHAPES[shape]()
    image = suite_image(bench, spm=bool(config.spm_size))
    executed = Simulator(image, config).run()
    assert_same_result(executed, oracle(bench, shape), (bench, shape))


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_trace_profile_matches_oracle(bench):
    """Per-pc fetch and per-address data counts off the baseline trace
    equal the oracle's profile run, and so do the folded profiles."""
    image = suite_image(bench, spm=False)
    reference = oracle(bench, "uncached")
    fetch_counts, data_counts = trace_counts(record_trace(image, 0))
    assert fetch_counts == dict(reference.fetch_counts)
    assert data_counts == dict(reference.data_counts)
    ours = build_profile(image, fetch_counts, data_counts)
    theirs = build_profile(image, reference.fetch_counts,
                           reference.data_counts)
    assert ours.objects == theirs.objects


def test_trace_profile_needs_an_unsplit_trace():
    trace = record_trace(suite_image("crc", spm=True), 512)
    assert any(trace.spm_counts)
    with pytest.raises(ValueError, match="SPM"):
        trace_counts(trace)


def test_fast_engine_reports_no_recording_fields():
    image = suite_image("crc", spm=False)
    result = Simulator(image, SystemConfig.cached(CacheConfig(size=512))
                       ).run()
    assert result.fetch_counts == {}
    assert result.fetch_misses == {}


def test_flags_visible_after_fast_run():
    # The engine keeps flags in its own encoding; the simulator must
    # translate them back to the documented 0/1 attributes.
    image = suite_image("crc", spm=False)
    sim = Simulator(image, SystemConfig.uncached())
    sim.run()
    assert all(flag in (0, 1) for flag in (sim.n, sim.z, sim.c, sim.v))


class TestCondDispatch:
    """The Cond -> predicate table must match the ARM if-chain."""

    @staticmethod
    def _reference(cond, n, z, c, v):
        if cond == Cond.EQ:
            return z == 1
        if cond == Cond.NE:
            return z == 0
        if cond == Cond.HS:
            return c == 1
        if cond == Cond.LO:
            return c == 0
        if cond == Cond.MI:
            return n == 1
        if cond == Cond.PL:
            return n == 0
        if cond == Cond.VS:
            return v == 1
        if cond == Cond.VC:
            return v == 0
        if cond == Cond.HI:
            return c == 1 and z == 0
        if cond == Cond.LS:
            return c == 0 or z == 1
        if cond == Cond.GE:
            return n == v
        if cond == Cond.LT:
            return n != v
        if cond == Cond.GT:
            return z == 0 and n == v
        if cond == Cond.LE:
            return z == 1 or n != v
        return True

    def test_all_conditions_all_flag_states(self):
        for cond in Cond:
            for bits in range(16):
                n, z, c, v = (bits >> 3) & 1, (bits >> 2) & 1, \
                    (bits >> 1) & 1, bits & 1
                assert _COND_DISPATCH[cond](n, z, c, v) == \
                    self._reference(cond, n, z, c, v), (cond, n, z, c, v)
