"""The metric catalogue and the per-layer metrics of a traced run.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` checks
that the two agree.
"""

from __future__ import annotations

from common import ratio
from tracing import LAYERS, layer_self_times

#: (name, unit, better) of every end-to-end metric; each workload
#: reports all of them with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("bounds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

_SELF = tuple(f"{layer}.self_s" for layer in LAYERS if layer != "store")

#: (name, unit, better) of every per-layer metric (traced runs).
PER_LAYER = tuple((name, "s", "lower") for name in _SELF) + (
    ("sim.execute.calls", "count", "lower"),
    ("sim.execute.instructions", "count", "lower"),
    ("sim.trace.records", "count", "lower"),
    ("sim.trace.disk_hits", "count", "higher"),
    ("sim.replay.points", "count", "higher"),
    ("sim.replay.scalar_passes", "count", "lower"),
    ("wcet.frontend.hit_ratio", "ratio", "higher"),
    ("wcet.cacheanalysis.reuse_hit_ratio", "ratio", "higher"),
    ("wcet.ipet.memo_hit_ratio", "ratio", "higher"),
    ("ilp.solves", "count", "lower"),
    ("ilp.lp_per_solve", "ratio", "lower"),
    ("spm.calls", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.store_s", "s", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("serve.computed", "count", "higher"),
    ("serve.memo_hits", "count", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.hit_p50_ms", "ms", "lower"),
    ("serve.hit_p99_ms", "ms", "lower"),
    ("serve.cold_p50_ms", "ms", "lower"),
    ("serve.cold_p90_ms", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def layer_metrics(span_sets, counters, instructions, traced_wall_s):
    """Per-layer metrics from spans and the program's counters.

    *span_sets* holds one span list per traced process (span indices
    are per process); *counters* is the merged ``trace_counters()`` +
    ``analysis_counters()`` of those processes; *traced_wall_s* is the
    traced work's wall time, the base of ``trace.coverage``.  The
    ``serve.*``, ``loadgen.*`` and ``trace.overhead_ratio`` entries
    start at 0 and are filled in by the caller that measured them.
    """
    layers = dict.fromkeys(LAYERS, 0.0)
    seconds, calls = {}, {}
    for spans in span_sets:
        per_layer, per_name, per_calls = layer_self_times(spans)
        for layer, value in per_layer.items():
            layers[layer] += value
        for name, value in per_name.items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in per_calls.items():
            calls[name] = calls.get(name, 0) + value
    count = counters.get
    solves = calls.get("Model.solve", 0)
    store_hits = count("trace_store_hits", 0) + count("reuse_store_hits", 0)
    store_misses = (count("trace_store_misses", 0)
                    + count("reuse_store_misses", 0))
    values = {f"{layer}.self_s": layers[layer] for layer in LAYERS
              if layer != "store"}
    values.update({
        "sim.execute.calls": calls.get("Simulator.run", 0),
        "sim.execute.instructions": instructions,
        "sim.trace.records": count("trace_records", 0),
        "sim.trace.disk_hits": count("trace_disk_hits", 0),
        "sim.replay.points": (count("replay_runs", 0)
                              + count("sweep_points", 0)
                              + count("grid_points", 0)),
        "sim.replay.scalar_passes": (count("replay_scalar", 0)
                                     + count("sweep_scalar", 0)
                                     + count("grid_scalar", 0)),
        "wcet.frontend.hit_ratio": ratio(
            count("frontend_hits", 0),
            count("frontend_hits", 0) + count("frontend_misses", 0)),
        "wcet.cacheanalysis.reuse_hit_ratio": ratio(
            count("reuse_hits", 0),
            count("reuse_hits", 0) + count("reuse_misses", 0)),
        "wcet.ipet.memo_hit_ratio": ratio(
            count("ipet_hits", 0),
            count("ipet_hits", 0) + count("ipet_misses", 0)),
        "ilp.solves": solves,
        "ilp.lp_per_solve": ratio(calls.get("solve_lp_model", 0), solves),
        "spm.calls": (calls.get("allocate_energy_optimal", 0)
                      + calls.get("allocate_wcet_driven", 0)),
        "store.load_s": seconds.get("ArtifactStore.load", 0.0),
        "store.store_s": seconds.get("ArtifactStore.store", 0.0),
        "store.bytes_written": 0,
        "store.hit_ratio": ratio(store_hits, store_hits + store_misses),
        "serve.computed": 0,
        "serve.memo_hits": 0,
        "serve.coalesced": 0,
        "serve.rejected": 0,
        "serve.overhead_ms": 0.0,
        "serve.hit_p50_ms": 0.0,
        "serve.hit_p99_ms": 0.0,
        "serve.cold_p50_ms": 0.0,
        "serve.cold_p90_ms": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "trace.overhead_ratio": 0.0,
        "trace.coverage": ratio(sum(layers.values()), traced_wall_s),
    })
    return values
