"""cache-dse child: a cold cache design-space sweep in a fresh process.

Programs: the seven suite benchmarks over the whole design space, then
``--programs`` generated ``medium`` programs drawn from ``--seed``,
each over a slice of it (one associativity and persistence setting
across all sizes, one split I/D shape, one L1+L2 shape, and the
uncached baseline), the shapes taken in turn from seeded starting
points.  Slices keep each generated program cheap, so a run averages
over many programs and the result does not hinge on a few large ones.
Every point goes through the public ``Workflow`` entry points and is
checked by :mod:`gates`.  The sweep's work time is reported raw and
scaled to the reference host (:mod:`hostspeed`); a traced sweep
(``--spans``) runs no reference bursts.

    python perfbench/dse.py --seed N --programs K [--spans PATH]
    python perfbench/dse.py --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

common.import_repro()

from repro.benchmarks import BENCHMARKS, get  # noqa: E402
from repro.memory.cache import CacheConfig  # noqa: E402
from repro.sim.trace import trace_counters  # noqa: E402
from repro.wcet.analyzer import analysis_counters  # noqa: E402
from repro.workflow import PAPER_SIZES, Workflow  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402

ASSOCS = (1, 2, 4)
PERSISTENCE = (False, True)
#: (icache, dcache) sizes; (256, 256) is the BENCH_wcet split shape.
SPLITS = ((256, 256), (1024, 1024), (4096, 4096))
#: (L1, L2) sizes; (256, 1024) is the BENCH_wcet L1+L2 shape.
MULTILEVELS = ((256, 1024), (512, 4096), (1024, 8192))


def full_space():
    """Every (assoc, persistence) group and every split/L1+L2 shape."""
    return ([(assoc, persistence) for persistence in PERSISTENCE
             for assoc in ASSOCS], list(SPLITS), list(MULTILEVELS))


#: Generated programs must finish within this many instructions.  A
#: program's sweep costs about its trace length, and one in ten
#: ``medium`` programs runs 50k-200k instructions, costing up to ten
#: times the median: a cap at 200k left the run's rate hinging on how
#: many of those the seed drew.
MAX_INSTRUCTIONS = 50_000


def seeded_slices(rng, count):
    """Slices for *count* generated programs: the (assoc, persistence)
    groups, split shapes and L1+L2 shapes taken in turn from seeded
    starting points.  Shapes differ in cost (assoc 4 about twice assoc
    1), so every run sweeps the same mix of them; the seed picks the
    programs and which program meets which shape."""
    groups, splits, multilevels = full_space()
    starts = [rng.randrange(len(options))
              for options in (groups, splits, multilevels)]
    return [tuple([options[(start + index) % len(options)]]
                  for options, start in zip((groups, splits, multilevels),
                                            starts))
            for index in range(count)]


def build_inputs(seed: int, programs: int):
    """(name, source, expected (exit, console) or None, space) list:
    the suite first, then the seeded generated programs."""
    inputs = [(name, get(name).source(), None, full_space())
              for name in BENCHMARKS]
    rng = random.Random(seed)
    stream = common.generated_programs(rng,
                                       max_instructions=MAX_INSTRUCTIONS)
    for space in seeded_slices(rng, programs):
        program = next(stream)
        inputs.append((program.name, program.source,
                       (program.expected_exit,
                        tuple(program.expected_console)),
                       space))
    return inputs


def _record(program, label, persistence, point):
    return {
        "program": program, "shape": label,
        "persistence": persistence,
        "cycles": point.sim.cycles, "wcet": point.wcet.wcet,
        "exit_code": point.sim.exit_code,
        "console": list(point.sim.console),
    }


def sweep(name, source, space):
    """Evaluate one program over *space*; returns point records."""
    groups, splits, multilevels = space
    workflow = Workflow(source)
    records = [_record(name, "uncached", False, workflow.uncached_point())]
    specs = [(CacheConfig(size=size, assoc=assoc), persistence)
             for assoc, persistence in groups for size in PAPER_SIZES]
    for (cache, persistence), point in zip(
            specs, workflow.cache_points(specs)):
        records.append(_record(
            name, f"l1-{cache.size}-a{cache.assoc}", persistence, point))
    for isize, dsize in splits:
        point = workflow.split_point(
            CacheConfig(size=isize, unified=False), CacheConfig(size=dsize))
        records.append(_record(name, f"split-{isize}-{dsize}", False,
                               point))
    for l1, l2 in multilevels:
        point = workflow.multilevel_point(CacheConfig(size=l1),
                                          CacheConfig(size=l2))
        records.append(_record(name, f"l1+l2-{l1}-{l2}", False, point))
    return records


def counters() -> dict:
    merged = dict(trace_counters())
    merged.update(analysis_counters())
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--programs", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    common.announce_ready()
    if args.setup_only:
        return 0
    expected = gates.load_expected()
    inputs = build_inputs(args.seed, args.programs)
    before = counters()
    tracer = tracing.Tracer().install() if args.spans else None
    meter = None if tracer else hostspeed.Meter()
    records, failures = [], []
    suite_rss = None
    start = time.perf_counter()
    with meter.ticking() if meter else contextlib.nullcontext():
        for index, (name, source, program_expected, space) in enumerate(
                inputs):
            if index == len(BENCHMARKS):
                suite_rss = common.peak_rss_mb()
            points = sweep(name, source, space)
            failures.extend(gates.dse_failures(
                points, program_expected, expected["bench_wcet"].get(name)))
            records.extend(points)
    wall = meter.raw_s if meter else time.perf_counter() - start
    after = counters()
    digest = hashlib.sha256(json.dumps(
        records, sort_keys=True).encode()).hexdigest()
    result = {
        "wall_s": wall,
        "scaled_s": meter.scaled_s if meter else None,
        "meter": meter.summary() if meter else None,
        "bounds": len(records),
        "programs": len(inputs),
        "failures": failures,
        "digest": digest,
        # The generated programs differ per seed and so does the memory
        # they leave behind; the suite part is the same in every run.
        "suite_peak_rss_mb": suite_rss or common.peak_rss_mb(),
        "peak_rss_mb": common.peak_rss_mb(),
        # Checking the generated programs' size recorded traces.
        "counters": {key: value - before.get(key, 0)
                     for key, value in after.items()},
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
        result["instructions"] = tracer.instructions
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
