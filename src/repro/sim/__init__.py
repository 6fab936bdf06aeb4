"""Instruction-set simulation (the ARMulator role in the paper's Figure 1).

One executor and one pricer:

* **execute** — the compiled flat-array engine (:mod:`repro.sim.engine`)
  records each program's config-independent access trace
  (:mod:`repro.sim.trace`): recorded once per program; placements are
  relocated (:func:`relocate` derives the trace of any SPM or hybrid
  placement from the baseline recording);
* **replay** — the replay kernels (:mod:`repro.sim.replay`) price that
  trace under any number of configurations, including whole size
  sweeps in a single pass.  :func:`simulate` is one recording plus one
  replay; profiles (:func:`trace_counts`) and per-pc misses
  (:func:`replay_misses`) come from the trace too.

The recording interpreter (:func:`simulate_oracle`) is the tests'
independent oracle for all of it.
"""

from .simulator import (
    MemoryFault,
    SimError,
    SimResult,
    Simulator,
    simulate,
    simulate_oracle,
)
from .profile import ObjectProfile, ProgramProfile, build_profile, trace_counts
from .replay import (
    grid_geometry,
    replay,
    replay_grid,
    replay_misses,
    replay_sweep,
    sweep_geometry,
)
from .trace import (
    RelocationError,
    Trace,
    clear_trace_caches,
    placed_trace,
    record_trace,
    relocate,
    trace_counters,
    trace_for,
)
from .ingest import TraceFormatError, dump_trace, load_trace, parse_trace

__all__ = [
    "MemoryFault", "SimError", "SimResult", "Simulator", "simulate",
    "simulate_oracle",
    "ObjectProfile", "ProgramProfile", "build_profile", "trace_counts",
    "grid_geometry", "replay", "replay_grid", "replay_misses",
    "replay_sweep", "sweep_geometry",
    "RelocationError", "Trace", "clear_trace_caches", "placed_trace",
    "record_trace", "relocate", "trace_counters", "trace_for",
    "TraceFormatError", "dump_trace", "load_trace", "parse_trace",
]
