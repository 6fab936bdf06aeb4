"""Relocatable traces: one baseline recording prices every placement.

:func:`repro.sim.trace.relocate` derives the trace of an SPM or hybrid
placement from the program's baseline (all-in-main-memory) recording.
These tests hold it to the two independent references: recording the
placed image on the engine (:func:`record_trace`, bit for bit) and the
oracle interpreter run of the placed image (:func:`simulate_oracle`).
The guard that makes relocation sound must refuse a program that
indexes one global into its neighbour, and the fallback recording must
still price it right.
"""

import pytest

from repro.experiments.common import workflow_for
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate_oracle
from repro.sim import trace as trace_mod
from repro.sim.replay import replay, replay_misses
from repro.sim.simulator import Simulator
from repro.sim.trace import (
    RelocationError,
    clear_trace_caches,
    placed_trace,
    record_trace,
    relocate,
    trace_for,
)
from repro.workflow import PAPER_SIZES, Workflow

from .helpers import (
    SHAPES,
    SPM_SIZE,
    assert_same_result,
    greedy_spm_objects,
    oracle,
    suite_image,
    suite_program,
)

BENCHES = ("g721", "adpcm", "multisort")


def _assert_same_trace(derived, recorded, context):
    assert derived.op_counts == recorded.op_counts, context
    assert derived.spm_counts == recorded.spm_counts, context
    assert derived.base_cycles == recorded.base_cycles, context
    assert derived.instructions == recorded.instructions, context
    assert derived.exit_code == recorded.exit_code, context
    assert tuple(derived.console) == tuple(recorded.console), context
    assert derived.spm_size == recorded.spm_size, context
    assert derived.ops == recorded.ops, context


# -- (a) every paper SPM point: relocated == recorded == oracle --------------

@pytest.mark.parametrize("method", ("energy", "wcet"))
@pytest.mark.parametrize("bench", BENCHES)
def test_spm_points_relocate_exactly(bench, method):
    workflow = workflow_for(bench)
    baseline = workflow.baseline_image()
    recording = trace_for(baseline, 0, max_steps=workflow.max_steps)
    oracles = {}
    for size in PAPER_SIZES:
        context = (bench, method, size)
        point = workflow.spm_point(size, method)
        derived = relocate(recording, baseline, point.image, size)
        _assert_same_trace(derived, record_trace(point.image, size),
                           context)
        key = point.image.content_key()
        if key not in oracles:  # sizes sharing a placement share a run
            oracles[key] = simulate_oracle(point.image, point.config)
        assert_same_result(point.sim, oracles[key], context)


@pytest.mark.parametrize("bench", BENCHES)
def test_greedy_placements_relocate_exactly(bench):
    """The same bit-for-bit differential on LP-free placements at
    every paper size."""
    program = suite_program(bench)
    baseline = suite_image(bench, spm=False)
    recording = trace_for(baseline, 0)
    for size in PAPER_SIZES:
        image = link(program, spm_size=size,
                     spm_objects=greedy_spm_objects(program, size))
        _assert_same_trace(relocate(recording, baseline, image, size),
                           record_trace(image, size), (bench, size))


# -- (b) hybrid placements: SPM with a cache behind it -----------------------

@pytest.mark.parametrize("bench", BENCHES)
def test_hybrid_relocation_matches_oracle(bench):
    """DM hybrid against the shared oracle run, per-pc misses too."""
    baseline = suite_image(bench, spm=False)
    derived = placed_trace(baseline, suite_image(bench, spm=True),
                           SPM_SIZE)
    for shape in ("spm", "hybrid"):
        config = SHAPES[shape]()
        reference = oracle(bench, shape)
        assert_same_result(replay(derived, config), reference,
                           (bench, shape))
        fetch, main = replay_misses(derived, config)
        assert fetch == dict(reference.fetch_misses), (bench, shape)
        assert main == dict(reference.fetch_main_misses), (bench, shape)


def test_two_way_hybrid_relocation_matches_oracle():
    config = SystemConfig.hybrid(SPM_SIZE, CacheConfig(size=256, assoc=2))
    image = suite_image("adpcm", spm=True)
    derived = placed_trace(suite_image("adpcm", spm=False), image,
                           SPM_SIZE)
    reference = simulate_oracle(image, config, record_misses=True)
    assert_same_result(replay(derived, config), reference, "2-way")
    fetch, main = replay_misses(derived, config)
    assert fetch == dict(reference.fetch_misses)
    assert main == dict(reference.fetch_main_misses)


@pytest.mark.parametrize("assoc", (1, 2))
def test_hybrid_points_match_oracle(assoc):
    workflow = workflow_for("adpcm")
    cache = CacheConfig(size=256, assoc=assoc)
    for size in (128, 512):
        point = workflow.hybrid_point(size, cache)
        assert_same_result(point.sim,
                           simulate_oracle(point.image, point.config),
                           (size, assoc))


# -- (c) the guard refuses an out-of-bounds neighbour access -----------------

#: ``low[4]`` and ``low[5]`` land in ``high``, the next global: the
#: baseline run writes ``high`` through an instruction whose note names
#: only ``low``, so no placement-independent trace exists.
_OVERRUN_SOURCE = """
int low[4];
int high[4] = {7, 7, 7, 7};
int main(void) {
    int i;
    int sum;
    for (i = 0; i < 6; i++) {
        low[i] = i + 1;
    }
    sum = 0;
    for (i = 0; i < 4; i++) {
        sum = sum + high[i];
    }
    __print_int(sum);
    return sum & 255;
}
"""


@pytest.fixture
def fresh_counters():
    clear_trace_caches()
    saved = dict(trace_mod.COUNTERS)
    yield trace_mod.COUNTERS
    clear_trace_caches()
    trace_mod.COUNTERS.update(saved)


def test_out_of_bounds_index_refuses_relocation(fresh_counters):
    program = compile_source(_OVERRUN_SOURCE).program
    baseline = link(program)
    image = link(program, spm_size=64, spm_objects=["high"])
    recording = trace_for(baseline, 0)
    assert recording.console == ("25",)  # high[0..1] were overwritten
    with pytest.raises(RelocationError):
        relocate(recording, baseline, image, 64)
    config = SystemConfig.scratchpad(64)
    refused = fresh_counters["relocations_refused"]
    trace = placed_trace(baseline, image, 64)
    assert fresh_counters["relocations_refused"] == refused + 1
    assert_same_result(replay(trace, config),
                       simulate_oracle(image, config), "overrun")


def test_out_of_bounds_point_still_equals_oracle(fresh_counters):
    refused = fresh_counters["relocations_refused"]
    point = Workflow(_OVERRUN_SOURCE).spm_point(64)
    assert fresh_counters["relocations_refused"] == refused + 1
    assert_same_result(point.sim,
                       simulate_oracle(point.image, point.config),
                       "overrun point")


def test_relocation_needs_the_same_program():
    baseline = suite_image("crc", spm=False)
    with pytest.raises(ValueError):
        relocate(trace_for(baseline, 0), baseline,
                 suite_image("adpcm", spm=True), SPM_SIZE)
    placed = suite_image("crc", spm=True)
    with pytest.raises(ValueError):  # a placed recording has no split
        relocate(trace_for(placed, SPM_SIZE), placed, baseline)


# -- (d) one recording serves the whole SPM sweep ----------------------------

_SWEEP_SOURCE = """
int table[64];
int total;
int main(void) {
    int i;
    int j;
    for (j = 0; j < 8; j++) {
        for (i = 0; i < 64; i++) {
            table[i] = table[i] + i * j;
        }
    }
    total = 0;
    for (i = 0; i < 64; i++) {
        total = total + table[i];
    }
    __print_int(total);
    return total & 127;
}
"""


def test_spm_sweep_executes_only_the_baseline_once(fresh_counters,
                                                    monkeypatch):
    executed = []
    run = Simulator.run

    def spy(simulator, *args, **kwargs):
        executed.append((simulator.image, args, kwargs))
        return run(simulator, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", spy)
    records = fresh_counters["trace_records"]
    refused = fresh_counters["relocations_refused"]
    workflow = Workflow(_SWEEP_SOURCE)
    workflow.profile()
    points = workflow.spm_sweep()
    # The one execution is the unpriced baseline recording; no placed
    # image ever runs.
    assert [(image is workflow.baseline_image(), kwargs)
            for image, _args, kwargs in executed] == [(True,
                                                      {"price": False})]
    assert fresh_counters["trace_records"] == records + 1
    assert fresh_counters["relocations_refused"] == refused
    assert len(points) == len(PAPER_SIZES)
    assert points[-1].image.spm_bytes_used() > 0
    assert points[-1].sim.cycles < points[0].sim.cycles
