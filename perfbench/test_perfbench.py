"""Tests of the benchmark's own arithmetic, gates and contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import common
import gates
import hostspeed
import metrics
import serving
import tracing


def _span(index, parent, name, start, end):
    return [index, parent, name, start, end]


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, -1, "allocate_wcet_driven", 0, 1000),
        _span(1, 0, "analyze_wcet", 100, 700),
        _span(2, 1, "solve_function_ipet", 200, 500),
        _span(3, 2, "Model.solve", 250, 450),
        _span(4, 0, "link", 800, 900),
    ]
    seconds, calls = tracing.self_times(spans)
    assert seconds["allocate_wcet_driven"] == pytest.approx(300e-9)
    assert seconds["analyze_wcet"] == pytest.approx(300e-9)
    assert seconds["solve_function_ipet"] == pytest.approx(100e-9)
    assert seconds["Model.solve"] == pytest.approx(200e-9)
    assert seconds["link"] == pytest.approx(100e-9)
    top_level = sum(end - start for _, parent, _, start, end in spans
                    if parent < 0)
    assert sum(seconds.values()) == pytest.approx(top_level / 1e9)
    assert calls["analyze_wcet"] == 1


def test_self_time_counts_recursion_once_per_layer():
    # B&B calls the LP solver, and a span may nest in its own name.
    spans = [
        _span(0, -1, "Model.solve", 0, 100),
        _span(1, 0, "solve_ilp", 5, 95),
        _span(2, 1, "solve_lp_model", 10, 30),
        _span(3, 1, "solve_lp_model", 40, 60),
        _span(4, -1, "analyze_wcet", 200, 300),
        _span(5, 4, "analyze_wcet", 220, 260),
    ]
    layers, seconds, calls = tracing.layer_self_times(spans)
    assert layers["ilp"] == pytest.approx(100e-9)
    assert seconds["solve_ilp"] == pytest.approx(50e-9)
    assert calls["solve_lp_model"] == 2
    assert layers["wcet.driver"] == pytest.approx(100e-9)
    assert layers["store"] == 0.0


def test_tracer_wraps_where_callers_bind_and_restores():
    common.import_repro()
    import repro.spm.wcet_driven as wcet_driven
    import repro.workflow as workflow
    from repro.sim.simulator import Simulator
    original_analyze = workflow.analyze_wcet
    original_run = Simulator.run
    source = ("int data[8];\nint main() {\n  int i; int s = 0;\n"
              "  for (i = 0; i < 8; i++) { data[i] = i; s += data[i]; }\n"
              "  return s;\n}\n")
    tracer = tracing.Tracer()
    with tracer:
        assert workflow.analyze_wcet is not original_analyze
        assert wcet_driven.analyze_wcet is workflow.analyze_wcet
        flow = workflow.Workflow(source)
        point = flow.spm_point(64, method="wcet")
    assert workflow.analyze_wcet is original_analyze
    assert wcet_driven.analyze_wcet is original_analyze
    assert Simulator.run is original_run
    assert point.wcet.wcet >= point.sim.cycles
    names = {span[0]: span[2] for span in tracer.spans}
    nested = [span for span in tracer.spans if span[2] == "analyze_wcet"
              and span[1] >= 0 and names[span[1]] == "allocate_wcet_driven"]
    assert nested, "the allocator's WCET analyses nest under it"
    assert tracer.instructions == point.sim.instructions
    assert all(span[4] >= span[3] for span in tracer.spans)
    count = len(tracer.spans)
    workflow.Workflow(source).baseline_image()
    assert len(tracer.spans) == count  # uninstalled: nothing recorded


# -- percentiles and the open loop --------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(19)), 0.5)
    assert common.percentile(list(range(1, 21)), 0.5) == 10
    assert common.samples_needed(0.5) == 20
    assert common.samples_needed(0.9) == 100
    assert common.samples_needed(0.99) == 1000
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(999)), 0.99)
    assert common.percentile(list(range(1000)), 0.99) == 989


def test_open_loop_times_from_due_and_counts_lateness():
    now = [0.0]
    service = {0: 0.35}  # the first request stalls for 350 ms

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    calls = []

    def send(index):
        calls.append(index)
        now[0] += service.get(index, 0.01)
        return index

    records = []
    serving.open_loop(send, 10.0, lambda: len(calls) >= 6, records,
                      clock=clock, sleep=sleep)
    dues = [due for due, _, _, _ in records]
    assert dues == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    latency = [done - due for due, _, done, _ in records]
    late = [at - due for due, at, _, _ in records]
    # Requests queued behind the stall are charged from their due time.
    assert latency[0] == pytest.approx(0.35)
    assert latency[1] == pytest.approx(0.26)
    assert late[1] == pytest.approx(0.25)
    assert late[3] == pytest.approx(0.07)
    assert late[4] == pytest.approx(0.0)
    assert latency[5] == pytest.approx(0.01)


# -- host-speed scaling -------------------------------------------------------

def _slowing_host(factor_at):
    """A fake clock and burst probe for a host whose slowdown factor at
    time t is ``factor_at(t)``: work and bursts both stretch by it."""
    now = [0.0]

    def clock():
        return now[0]

    def work(seconds):
        now[0] += seconds * factor_at(now[0])

    def probe():
        spent = hostspeed.REFERENCE_S * factor_at(now[0])
        now[0] += spent
        return spent

    return clock, work, probe


def test_meter_undoes_a_host_slowdown_and_skips_burst_time():
    clock, work, probe = _slowing_host(lambda t: 1.0 if t < 0.5 else 3.0)
    meter = hostspeed.Meter(every=0.25, clock=clock, probe=probe)
    for _ in range(8):  # eight 0.25 s units: two at full speed, six slow
        work(0.25)
        meter.tick()
    meter.close()
    assert meter.raw_s == pytest.approx(0.5 + 6 * 0.75)
    # Only the stretch spanning the change mixes speeds; the rest is
    # exact, and bursts never count as work.
    assert meter.scaled_s == pytest.approx(2.0, rel=0.15)
    assert len(meter.bursts) == 10  # first, one per tick, close


def test_meter_ticks_only_every_interval():
    clock, work, probe = _slowing_host(lambda t: 1.0)
    meter = hostspeed.Meter(every=0.25, clock=clock, probe=probe)
    for _ in range(10):
        work(0.1)
        meter.tick()
    meter.close()
    assert len(meter.bursts) == 5  # first, after 0.3, 0.6, 0.9 s, close
    assert meter.scaled_s == pytest.approx(1.0)


def test_scaled_samples_use_the_bursts_on_either_side():
    bursts = iter([0.01, 0.03, 0.02])
    values = iter([0.4, 0.5])
    raw, out = hostspeed.scaled_samples(lambda: next(values), 2,
                                        probe=lambda: next(bursts))
    assert raw == [0.4, 0.5]
    assert out == pytest.approx([0.4 * hostspeed.REFERENCE_S / 0.02,
                                 0.5 * hostspeed.REFERENCE_S / 0.025])


# -- correctness gates --------------------------------------------------------

def test_regen_gate_rejects_a_changed_artefact():
    expected = {"fig3": "aa", "fig4": "bb"}
    good = {"fig3": {"sha256": "aa"}, "fig4": {"sha256": "bb"}}
    assert gates.regen_failures(good, expected) == []
    corrupt = {"fig3": {"sha256": "aa"}, "fig4": {"sha256": "cc"}}
    assert len(gates.regen_failures(corrupt, expected)) == 1
    assert len(gates.regen_failures({"fig3": {"sha256": "aa"}},
                                    expected)) == 1


def _record(**changes):
    record = {"program": "p", "shape": "l1-256-a1", "persistence": False,
              "cycles": 100, "wcet": 150, "exit_code": 42,
              "console": ["7", "OK"]}
    record.update(changes)
    return record


def test_dse_gates_reject_corrupted_points():
    want = (42, ("7", "OK"))
    bench = {"l1-256-a1": 150}
    assert gates.dse_failures([_record()], want, bench) == []
    for corrupt in (_record(wcet=99), _record(exit_code=1),
                    _record(console=["8", "OK"]), _record(wcet=151)):
        assert len(gates.dse_failures([corrupt], want, bench)) == 1
    missing = gates.dse_failures([_record(shape="uncached")], None, bench)
    assert missing == ["p l1-256-a1: shape was not evaluated"]


def test_serve_gate_rejects_wrong_or_misclassified_answers():
    direct = {"k": {"wcet_cycles": 10}}

    def answer(want="computed", **response):
        envelope = {"ok": True, "served": "computed",
                    "result": {"wcet_cycles": 10}}
        envelope.update(response)
        return {"key": "k", "want": want, "response": envelope}

    assert gates.serve_failures([answer()], direct) == []
    for corrupt in (answer(result={"wcet_cycles": 11}),
                    answer(want="memo"),
                    answer(ok=False, error={"kind": "failed"})):
        assert len(gates.serve_failures([corrupt], direct)) == 1


# -- the contract -------------------------------------------------------------

def test_catalogue_matches_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cache-dse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
