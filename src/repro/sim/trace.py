"""Recorded dynamic access traces: execute once, replay per config.

The paper's ARMulator setup has a property this module turns into a
performance lever: the modelled core has no timing-dependent behaviour,
so the dynamic instruction/access stream of an executable is *identical*
under every memory configuration — SPM, cache shapes, deeper pipelines —
that is compatible with the image's placement.  Memory timing decides
how many cycles each access costs, never which access happens next.

A :class:`Trace` is therefore recorded **once per program; placements
are relocated**.  The flat-array execution engine
(:mod:`repro.sim.engine`, the simulator's one executor) records the
program's baseline (all-in-main-memory) image once, and
:mod:`repro.sim.replay` prices it under any number of
:class:`~repro.memory.hierarchy.SystemConfig` shapes at tag-array speed.
Placement is fixed at link time and moving an object changes what an
access costs, never which accesses happen, so the trace of any SPM or
hybrid placement of the same program is derived from the baseline
recording by :func:`relocate` — a per-object address shift plus an
SPM/main split — instead of executing the placed image.
:meth:`~repro.sim.simulator.Simulator.run` is exactly one recording plus
one replay (:func:`record_trace` is the same run, left unpriced); this
module adds the content-addressed cache that lets many
configurations share one recording, and the relocation that lets many
placements share it too.

Contents, packed for tight replay loops:

* ``ops`` — the interleaved fetch/read/write stream of every access that
  reaches the cache pipeline, one ``array('Q')`` word per access:
  ``addr << 3 | tag`` with the tag encoding kind and width (fetches are
  always 2 bytes wide, so one tag suffices for them).  The second
  halfword of a 32-bit instruction (BL) carries its own tag
  (:data:`TAG_FETCH_CONT`), so every fetch entry names the pc of the
  instruction it belongs to — ``addr`` for plain fetches, ``addr - 2``
  for continuations — and replay kernels can attribute misses per
  instruction exactly like the oracle interpreter does
  (:func:`~repro.sim.replay.replay_misses`), and per-pc profiles count
  the plain fetch entries (:func:`~repro.sim.profile.trace_counts`);
* ``op_counts`` / ``spm_counts`` — per-tag totals of the main-memory
  stream and of the SPM-resident accesses.  SPM hits bypass every cache
  level and cost a fixed per-width amount, so they never need to be
  walked — aggregate counts price them in O(1) (and keep hybrid traces
  small);
* ``base_cycles`` — the config-independent cycle component: branch
  refills plus the MUL/SWI execute extras;
* ``instructions``, ``exit_code``, ``console`` — the architectural
  results every replay re-reports.

Traces are content-addressed via :meth:`~repro.link.image.Image.
content_key` through :data:`TRACES`, a :class:`~repro.store.Memo` like
the analysis reuse memo: a bounded in-process LRU plus the optional
shared on-disk layer :func:`repro.experiments.common.attach_stores`
gives it.  ``repro-cc trace --profile`` dumps the counters.
"""

from __future__ import annotations

from array import array
from functools import partial

from ..memory.hierarchy import SystemConfig
from ..store import LRUCache, Memo
from . import kernels
# The engine records straight into this layout; the access-kind tags
# (low 3 bits of every packed word) are defined next to it.
from .engine import READ_TAGS, TAG_FETCH, TAG_FETCH_CONT, WRITE_TAGS
from .simulator import Simulator

#: tag -> access width in bytes (fetches are 16-bit).
TAG_WIDTH = (2, 1, 2, 4, 1, 2, 4, 2)

#: Bump when the trace layout or recording semantics change: stale
#: on-disk entries then miss instead of corrupting replays.
#: trace-2: continuation fetches carry TAG_FETCH_CONT and the per-tag
#: count tuples grew to 8 entries.
#: trace-3: traces pickle in run-length-encoded form (same-line runs
#: and stride-2 fetch/data runs collapse to one record each).
_TRACE_VERSION = "trace-3"

COUNTERS = {
    "trace_records": 0,
    "replay_runs": 0,
    "miss_replays": 0,
    "sweep_passes": 0,
    "sweep_points": 0,
    "grid_passes": 0,
    "grid_points": 0,
    # Which path served each replay (numpy kernels or the scalar walk)
    # and each sweep/grid pass (`repro-cc trace --profile`).  A grid
    # pass with both direct-mapped and LRU points counts in both.
    "replay_scalar": 0,
    "replay_numpy": 0,
    "sweep_numpy": 0,
    "grid_numpy": 0,
    "grid_scalar": 0,
    # Evictions from the per-trace kernel memos (bounded memory).
    "memo_evictions": 0,
    # Placed images whose trace :func:`relocate` could not prove
    # placement-invariant, so they were recorded on their own.
    "relocations_refused": 0,
}

#: In-process trace table bound: traces are the largest objects the
#: process holds on to.
TRACE_CAPACITY = 64

#: Per-trace replay-kernel memo bound (entries are stream reductions
#: comparable in size to the trace itself).
STREAM_MEMO_CAPACITY = 16

#: The content-addressed trace memo (``trace_*`` counters).
TRACES = Memo("trace", TRACE_CAPACITY)


def _count_memo_eviction():
    COUNTERS["memo_evictions"] += 1


def _new_memo():
    return LRUCache(STREAM_MEMO_CAPACITY, on_evict=_count_memo_eviction)


class Trace:
    """One image's dynamic access stream plus its fixed cycle base.

    The stream has two interchangeable storage forms: the flat packed
    ``ops`` array the replay kernels walk, and a line-granular
    run-length encoding (:meth:`runs`) where consecutive accesses with
    the same tag and either an identical address or a +2-byte stride
    (straight-line fetch runs, halfword array sweeps) collapse into one
    ``(first_value, count, stride)`` record.  A run is stored in 8
    bytes — an ``int32`` delta from the previous run's first value plus
    a ``uint32`` ``count << 1 | stride`` word — so the encoding never
    exceeds the flat stream and shrinks it whenever any run is longer
    than one.  The encoding is lossless; :meth:`compact` drops the flat
    form (the ``ops`` property re-expands lazily, in numpy), and
    pickling stores the compact form — that is what shrinks the
    on-disk trace cache and worker-to-worker transfers.  Foreign
    ingested streams whose deltas overflow 32 bits stay flat
    (:meth:`runs` returns None).

    A trace derived by :func:`relocate` has neither form at first: its
    counts are exact from the start, and ``_build`` makes the flat
    stream on first use — only a cache replay ever asks for it.

    ``_memo`` caches config-independent stream reductions computed by
    the vectorised replay kernels (:mod:`repro.sim.kernels`): block-id
    vectors, kind masks, same-block-shortcut survivors.  It is private
    to the kernels, never pickled, and rebuilt on demand; so is
    ``_placement``, the per-access object index :func:`relocate` keeps
    on a baseline recording.
    """

    __slots__ = ("_ops", "_runs", "_build", "_memo", "_placement",
                 "op_counts", "spm_counts", "base_cycles", "instructions",
                 "exit_code", "console", "spm_size")

    def __init__(self, ops, op_counts, spm_counts, base_cycles,
                 instructions, exit_code, console, spm_size):
        self._ops = ops
        self._runs = None
        self._build = None
        self._memo = _new_memo()
        self._placement = None
        self.op_counts = op_counts
        self.spm_counts = spm_counts
        self.base_cycles = base_cycles
        self.instructions = instructions
        self.exit_code = exit_code
        self.console = console
        self.spm_size = spm_size

    @property
    def ops(self):
        """The flat packed stream, re-expanded from runs if compacted."""
        ops = self._ops
        if ops is None:
            if self._build is not None:
                ops = self._ops = self._build()
                self._build = None
            else:
                ops = self._ops = kernels.expand_runs(*self._runs)
        return ops

    def runs(self):
        """``(base, heads, packed)`` run arrays; encoded on first use.

        ``base`` is the first run's absolute packed value; ``heads[i]``
        is run *i*'s ``int32`` delta from run *i-1*'s first value
        (``heads[0]`` is 0); ``packed[i]`` is ``count << 1 | (1 if the
        address strides by 2 per repeat)``.  Returns None when the
        stream does not encode (a foreign trace whose deltas overflow
        32 bits) — the flat form is kept then.
        """
        if self._runs is None:
            self._runs = _compress_ops(self.ops) or _NO_RUNS
        return None if self._runs is _NO_RUNS else self._runs

    def iter_runs(self):
        """Yield ``(first_value, count, stride_flag)`` per run.

        Unencodable streams fall back to one singleton run per op.
        """
        runs = self.runs()
        if runs is None:
            for value in self.ops:
                yield value, 1, 0
            return
        base, heads, packed = runs
        value = base
        for head, record in zip(heads, packed):
            value += head
            yield value, record >> 1, record & 1

    def compact(self) -> "Trace":
        """Keep only the run-length form; ``ops`` re-expands lazily."""
        if self.runs() is not None:
            self._ops = None
        return self

    def __getstate__(self):
        rest = (self.op_counts, self.spm_counts, self.base_cycles,
                self.instructions, self.exit_code, self.console,
                self.spm_size)
        runs = self.runs()
        if runs is None:
            return ("flat", self._ops) + rest
        return ("runs",) + runs + rest

    def __setstate__(self, state):
        if state[0] == "runs":
            self._ops = None
            self._runs = state[1:4]
            rest = state[4:]
        else:
            self._ops = state[1]
            self._runs = _NO_RUNS
            rest = state[2:]
        (self.op_counts, self.spm_counts, self.base_cycles,
         self.instructions, self.exit_code, self.console,
         self.spm_size) = rest
        self._build = None
        self._memo = _new_memo()
        self._placement = None

    @property
    def accesses(self) -> int:
        """Total dynamic accesses, SPM-resident ones included."""
        return sum(self.op_counts) + sum(self.spm_counts)

    def counts_by_kind(self):
        """``(fetches, reads, writes)`` over the whole stream."""
        totals = [a + b for a, b in zip(self.op_counts, self.spm_counts)]
        return (totals[0] + totals[7], sum(totals[1:4]), sum(totals[4:7]))


#: Address stride of a packed run record, in ``addr << 3`` units: a
#: +2-byte stride (consecutive halfword fetches, halfword array walks)
#: is +16 on the packed value, tag bits untouched.
_RUN_STRIDE = 16

#: Sentinel stored in ``Trace._runs`` when the stream does not encode.
_NO_RUNS = object()

_HEAD_MIN = -(1 << 31)
_HEAD_MAX = (1 << 31) - 1


def _compress_ops(ops):
    """Greedy lossless RLE into ``(base, heads, packed)`` delta arrays.

    8 bytes per run: the ``int32`` delta of the run's first value from
    the previous run's first value, and ``count << 1 | stride`` as
    ``uint32``.  Returns None when a delta or count overflows 32 bits
    (only possible for ingested foreign streams) — callers keep the
    flat form then.
    """
    heads = array("i")
    packed = array("I")
    if heads.itemsize != 4 or packed.itemsize != 4:  # pragma: no cover
        return None
    n = len(ops)
    if not n:
        return 0, heads, packed
    base = ops[0]
    prev = base
    i = 0
    while i < n:
        first = ops[i]
        k = i + 1
        step = 0
        if k < n:
            delta = ops[k] - first
            if delta == 0 or delta == _RUN_STRIDE:
                step = delta
                expect = first + 2 * step
                k += 1
                while k < n and ops[k] == expect:
                    expect += step
                    k += 1
        head = first - prev
        if not (_HEAD_MIN <= head <= _HEAD_MAX and k - i <= _HEAD_MAX):
            return None
        heads.append(head)
        packed.append(((k - i) << 1) | (1 if step else 0))
        prev = first
        i = k
    return base, heads, packed


def record_trace(image, spm_size: int = None,
                 max_steps: int = 50_000_000) -> Trace:
    """Execute *image* once on the engine and record its access stream.

    *spm_size* is the scratchpad capacity the image was linked against
    (``None`` derives it from the image's own placement); it fixes the
    SPM/main address split, which every compatible replay config shares
    by construction — cache shapes behind that split are free to vary.
    """
    if spm_size is None:
        spm_size = _image_spm_size(image)
    config = (SystemConfig.scratchpad(spm_size) if spm_size
              else SystemConfig.uncached())
    trace = Simulator(image, config).run(max_steps, price=False)
    COUNTERS["trace_records"] += 1
    return trace


def _image_spm_size(image) -> int:
    """Smallest SPM capacity covering the image's scratchpad objects."""
    return max((obj.end for obj in image.objects
                if obj.region == "scratchpad"), default=0)


# -- relocation: one recording serves every placement ----------------------

class RelocationError(ValueError):
    """The recording cannot be proven to carry over to a new placement."""


class _Placement:
    """Where each access of a baseline recording lands, by object.

    Objects of the recorded image are indexed in base order; bucket
    ``n`` (one past the last object) is the stack — every address at or
    above the highest object end, which no placement moves — and bucket
    ``n + 1`` collects addresses outside every object.  ``buckets``
    holds one bucket id per access, ``counts[b]`` the per-tag totals of
    bucket *b*, and ``refusal`` says why the guard rejected the
    recording (None when it holds).
    """

    __slots__ = ("key", "objects", "buckets", "counts", "refusal")

    def __init__(self, key, objects, buckets, counts, refusal):
        self.key = key
        self.objects = objects
        self.buckets = buckets
        self.counts = counts
        self.refusal = refusal


def _placement_layout(image):
    """``(objects, bases, ends, is_code, stack_floor, note_keys,
    noted_pcs)`` of *image* for the object index and its guard.

    ``note_keys`` holds ``pc * (n + 2) + bucket`` for every object an
    instruction's :class:`~repro.link.objects.AccessNote` names;
    ``noted_pcs`` the pcs whose note names any object at all.
    """
    objects = sorted(image.objects, key=lambda obj: obj.base)
    bases = [obj.base for obj in objects]
    ends = [obj.end for obj in objects]
    is_code = [obj.kind == "code" for obj in objects]
    stack_floor = max(ends, default=0)
    width = len(objects) + 2
    bucket_of = {obj.name: index for index, obj in enumerate(objects)}
    note_keys = set()
    noted_pcs = set()
    for pc, note in image.access_notes.items():
        if note.targets:
            noted_pcs.add(pc)
        for name, _lo, _hi in note.targets:
            if name in bucket_of:
                note_keys.add(pc * width + bucket_of[name])
    return (objects, bases, ends, is_code, stack_floor, note_keys,
            noted_pcs)


def _placement_of(trace: Trace, image) -> _Placement:
    """The object index of baseline *trace* recorded from *image*,
    computed once and kept on the trace."""
    key = image.content_key()
    placement = trace._placement
    if placement is not None and placement.key == key:
        return placement
    layout = _placement_layout(image)
    ops = trace.ops
    buckets, counts, bad = kernels.object_index(kernels.ops_view(ops),
                                                *layout[1:])
    refusal = None
    if bad >= 0:
        refusal = (f"access #{bad} (to {ops[bad] >> 3:#x}) is not "
                   "provably placement-invariant")
    placement = trace._placement = _Placement(key, layout[0], buckets,
                                              counts, refusal)
    return placement


def relocate(trace: Trace, recorded_image, image,
             spm_size: int = None) -> Trace:
    """The trace of *image*, derived from *trace* of *recorded_image*.

    *trace* is a baseline recording (no SPM split) of *recorded_image*;
    *image* links the same program with any other placement.  Every
    access keeps its place in the stream: accesses to an object that
    moved to the scratchpad become SPM-resident per-tag counts, the
    rest shift by their object's base delta, and the stack never
    moves.  The derived trace's counts come from per-object count
    arithmetic; its packed stream is built only if a replay asks for
    it.  *spm_size* is the split of the configs it will be replayed
    under (default: the smallest covering *image*'s SPM objects).

    Raises :class:`RelocationError` unless every access of the
    recording provably lands at the same offset of the same object
    under any placement: fetches inside code objects, stack accesses
    at or above the highest object end from instructions that name no
    object, literal-pool reads inside the executing function, and
    data accesses inside an object the instruction's
    :class:`~repro.link.objects.AccessNote` names.  The owning pc of a
    data access is the nearest preceding fetch.  Mini-C has no pointer
    values, so only an out-of-bounds index can trip the guard.
    """
    if trace.spm_size or any(trace.spm_counts):
        raise ValueError("relocation starts from a recording with no "
                         "SPM split")
    placement = _placement_of(trace, recorded_image)
    if placement.refusal is not None:
        raise RelocationError(placement.refusal)
    if spm_size is None:
        spm_size = _image_spm_size(image)
    elif spm_size < _image_spm_size(image):
        raise ValueError(f"image places {_image_spm_size(image)} bytes "
                         f"in a {spm_size}-byte scratchpad")
    if len(image.objects) != len(placement.objects):
        raise ValueError("the images place different object sets; "
                         "relocation needs the same program")
    shifts = []
    keep = []
    op_counts = [0] * 8
    spm_counts = [0] * 8
    for obj, counts in zip(placement.objects, placement.counts):
        try:
            placed = image.object_named(obj.name)
        except KeyError:
            raise ValueError(f"{obj.name!r} is not in the placed image; "
                             "relocation needs the same program") from None
        if (placed.kind, placed.size) != (obj.kind, obj.size):
            raise ValueError(f"{obj.name!r} differs between the images; "
                             "relocation needs the same program")
        to_spm = placed.region == "scratchpad"
        shifts.append(0 if to_spm else (placed.base - obj.base) << 3)
        keep.append(not to_spm)
        totals = spm_counts if to_spm else op_counts
        for tag, count in enumerate(counts):
            totals[tag] += count
    for tag, count in enumerate(placement.counts[len(shifts)]):  # stack
        op_counts[tag] += count
    shifts += [0, 0]
    keep += [True, False]
    derived = Trace(None, tuple(op_counts), tuple(spm_counts),
                    trace.base_cycles, trace.instructions,
                    trace.exit_code, trace.console, spm_size)
    derived._build = partial(_relocated_ops, trace, placement.buckets,
                             shifts, keep)
    return derived


def _relocated_ops(trace, buckets, shifts, keep):
    """The packed stream of a relocated trace (see :func:`relocate`)."""
    return kernels.relocate_ops(kernels.ops_view(trace.ops), buckets,
                                shifts, keep)


def placed_trace(baseline, image, spm_size: int = None,
                 max_steps: int = 50_000_000) -> Trace:
    """The trace of *image*, a placement of the program *baseline*
    links with everything in main memory.

    Relocates the baseline recording (:func:`trace_for`, recorded once
    and shared by every placement); only when :func:`relocate` refuses
    is *image* recorded on its own, counted in
    ``COUNTERS["relocations_refused"]``.  Relocated traces are derived
    data and never reach the on-disk store.
    """
    recording = trace_for(baseline, 0, max_steps)
    try:
        return relocate(recording, baseline, image, spm_size)
    except RelocationError:
        COUNTERS["relocations_refused"] += 1
    if spm_size is None:
        spm_size = _image_spm_size(image)
    return trace_for(image, spm_size, max_steps)


# -- the content-addressed trace cache --------------------------------------

def clear_trace_caches():
    """Drop every in-memory trace (the disk layer is untouched)."""
    TRACES.clear()


def trace_counters() -> dict:
    """The in-process counters plus the trace memo's, one flat dict."""
    merged = dict(COUNTERS)
    merged.update(TRACES.counters())
    return merged


def trace_for(image, spm_size: int = None,
              max_steps: int = 50_000_000) -> Trace:
    """The recorded trace for *image*, recording on first use.

    Keyed by the image content hash (plus the SPM split), so relinking
    the same program — or any placement change at all — invalidates
    automatically.  A trace recorded under a larger step budget is valid
    under a smaller one only if the run fit; :func:`~repro.sim.replay.
    replay` re-checks ``instructions <= max_steps`` and raises the same
    runaway error the engine would.
    """
    if spm_size is None:
        spm_size = _image_spm_size(image)
    key = (_TRACE_VERSION, image.content_key(), spm_size)
    trace = TRACES.get(key)
    if trace is None:
        trace = record_trace(image, spm_size, max_steps)
        TRACES.put(key, trace)
    return trace
