"""paper-regen child: one cold ``repro-experiments`` regeneration.

Runs in a fresh interpreter, serial, with no disk caches, exactly like
``repro-experiments`` with no arguments.  Prints :data:`common.READY`
once the experiment modules are imported, then one JSON line: work
time, raw and scaled to the reference host (:mod:`hostspeed`), each
experiment's text digest and time, the WCET bounds computed, peak RSS
and the program's counters; with ``--spans PATH`` the regeneration
runs under the tracer instead, with no reference bursts, and the spans
go to PATH.

    python perfbench/regen.py [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

common.import_repro()

from repro.experiments import runner  # noqa: E402
from repro.sim.trace import trace_counters  # noqa: E402
from repro.wcet.analyzer import analysis_counters  # noqa: E402

import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    common.announce_ready()
    if args.setup_only:
        return 0
    tracer = tracing.Tracer().install() if args.spans else None
    meter = None if tracer else hostspeed.Meter()
    experiments = {}
    start = time.perf_counter()
    with meter.ticking() if meter else contextlib.nullcontext():
        for name, run in runner.EXPERIMENTS.items():
            began = time.perf_counter()
            text = run(fast=False)["text"]
            experiments[name] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "seconds": time.perf_counter() - began,
            }
    wall = meter.raw_s if meter else time.perf_counter() - start
    counters = dict(trace_counters())
    counters.update(analysis_counters())
    result = {
        "wall_s": wall,
        "scaled_s": meter.scaled_s if meter else None,
        "meter": meter.summary() if meter else None,
        "experiments": experiments,
        "bounds": counters["frontend_hits"] + counters["frontend_misses"],
        "peak_rss_mb": common.peak_rss_mb(),
        "counters": counters,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
        result["instructions"] = tracer.instructions
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
