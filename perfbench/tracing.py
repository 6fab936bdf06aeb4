"""Per-layer spans, recorded from outside the program.

The tracer wraps the public entry points of each layer of ``repro``
where their callers bind them: every module attribute (and class
attribute, for methods) that *is* the original function is replaced
by a timing wrapper, and :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` changes.

A span is ``[index, parent, name, start_ns, end_ns]``; ``parent`` is
the index of the enclosing span on the same thread, or -1.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.  A layer's self
time is the sum over its spans of the duration minus the time covered
by the span's children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

#: (layer, "module:qualname") for every wrapped entry point.  The
#: span name is the qualname; :data:`LAYER_OF` maps it to its layer.
TARGETS = (
    ("minic", "repro.minic.frontend:compile_source"),
    ("link", "repro.link.linker:link"),
    # Engine and recording interpreter both run under Simulator.run;
    # trace recording drives the engine directly and is sim.trace.
    ("sim.execute", "repro.sim.simulator:Simulator.run"),
    ("sim.trace", "repro.sim.trace:trace_for"),
    ("sim.trace", "repro.sim.trace:record_trace"),
    ("sim.replay", "repro.sim.replay:replay"),
    ("sim.replay", "repro.sim.replay:replay_sweep"),
    ("sim.replay", "repro.sim.replay:replay_grid"),
    ("sim.replay", "repro.sim.replay:replay_misses"),
    ("wcet.driver", "repro.wcet.analyzer:analyze_wcet"),
    ("wcet.frontend", "repro.wcet.cfg:build_all_cfgs"),
    ("wcet.frontend", "repro.wcet.stackdepth:stack_region"),
    ("wcet.frontend", "repro.wcet.accesses:resolve_all"),
    ("wcet.cacheanalysis", "repro.wcet.cacheanalysis:analyze_hierarchy"),
    ("wcet.ipet", "repro.wcet.ipet:solve_function_ipet"),
    ("ilp", "repro.ilp.model:Model.solve"),
    ("ilp", "repro.ilp.branch_bound:solve_ilp"),
    ("ilp", "repro.ilp.simplex:solve_lp_model"),
    ("spm", "repro.spm.allocator:allocate_energy_optimal"),
    ("spm", "repro.spm.wcet_driven:allocate_wcet_driven"),
    ("store", "repro.store:ArtifactStore.load"),
    ("store", "repro.store:ArtifactStore.store"),
)

LAYER_OF = {target.split(":")[1]: layer for layer, target in TARGETS}

LAYERS = tuple(dict.fromkeys(layer for layer, _ in TARGETS))


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, qualname


def _rebind(swaps):
    """In every loaded ``repro`` module, replace each global that is a
    key object of *swaps* (``id -> (old, new)``) by its new object."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            entry = swaps.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, key, entry[1])


class Tracer:
    """Records nested spans around the :data:`TARGETS` entry points."""

    def __init__(self):
        self.spans = []
        self.instructions = 0  # summed over Simulator.run results
        self._local = threading.local()
        self._patches = []  # (original, wrapper) per target
        self._lock = threading.Lock()

    def _wrap(self, name, original):
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter_ns
        count_instructions = name == "Simulator.run"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = getattr(local, "top", -1)
            with lock:
                index = len(spans)
                record = [index, parent, name, clock(), 0]
                spans.append(record)
            local.top = index
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = clock()
                local.top = parent
            if count_instructions:
                self.instructions += result.instructions
            return result

        return wrapper

    def install(self):
        """Wrap every target wherever a ``repro`` module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        swaps = {}
        for _, target in TARGETS:
            owner, attr, name = _resolve(target)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._patches.append((original, wrapper))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                swaps[id(original)] = (original, wrapper)
        _rebind(swaps)
        return self

    def uninstall(self):
        """Put every original back, also where a module imported while
        the tracer was installed bound a wrapper."""
        swaps = {}
        for original, wrapper in self._patches:
            swaps[id(wrapper)] = (wrapper, original)
        for _, target in TARGETS:
            owner, attr, _name = _resolve(target)
            if isinstance(owner, type):
                entry = swaps.get(id(vars(owner).get(attr)))
                if entry is not None:
                    setattr(owner, attr, entry[1])
        _rebind(swaps)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path, start=0, mode="w"):
        """Write spans ``[start:]`` as JSON lines; returns the new end."""
        with self._lock:
            chunk = self.spans[start:]
        with open(path, mode) as handle:
            for span in chunk:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
        return start + len(chunk)


def load_spans(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans):
    """Per-name self time in seconds and call count.

    *spans* are ``[index, parent, name, start_ns, end_ns]`` records
    whose parents all appear among them.  A span's self time is its
    duration minus its children's durations; children of one parent
    run on the parent's thread, one after another, so their durations
    never overlap.  Recursion (a span nested in a span of the same
    name) therefore counts each nanosecond once.
    """
    durations = {span[0]: span[4] - span[3] for span in spans}
    child_time = Counter()
    for index, parent, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    seconds = Counter()
    calls = Counter()
    for index, _parent, name, _start, _end in spans:
        seconds[name] += (durations[index] - child_time[index]) / 1e9
        calls[name] += 1
    return seconds, calls


def layer_self_times(spans):
    """Self seconds per layer of :data:`LAYERS` (0 for layers with no
    span), plus the per-name call counts."""
    seconds, calls = self_times(spans)
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, value in seconds.items():
        layers[LAYER_OF[name]] += value
    return layers, seconds, calls
