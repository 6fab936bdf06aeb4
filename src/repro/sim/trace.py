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
content_key` through an in-process table plus an optional shared on-disk
layer (:func:`set_trace_cache_dir`), mirroring the PR-4 analysis reuse
cache; ``repro-cc trace --profile`` dumps the counters.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial

from ..memory.hierarchy import SystemConfig
from ..store import STORE_COUNTER_KEYS, ArtifactStore, LRUCache, env_capacity
# The engine records straight into this layout; the access-kind tags
# (low 3 bits of every packed word) are defined next to it.
from .engine import READ_TAGS, TAG_FETCH, TAG_FETCH_CONT, WRITE_TAGS
from .simulator import Simulator

#: Tags priced as instruction fetches (16-bit wide).
FETCH_TAGS = (TAG_FETCH, TAG_FETCH_CONT)

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
    "trace_hits": 0,
    "trace_misses": 0,
    "trace_disk_hits": 0,
    "trace_records": 0,
    "replay_runs": 0,
    "miss_replays": 0,
    "sweep_passes": 0,
    "sweep_points": 0,
    "grid_passes": 0,
    "grid_points": 0,
    # Which backend served each replay/sweep/grid pass
    # (:mod:`repro.sim.kernels` selection; `repro-cc trace --profile`).
    "replay_scalar": 0,
    "replay_numpy": 0,
    "sweep_scalar": 0,
    "sweep_numpy": 0,
    "grid_scalar": 0,
    "grid_numpy": 0,
    # Bounded-memory in-process layers (PR 8): evictions from the
    # trace LRU and from the per-trace kernel memos.
    "trace_evictions": 0,
    "memo_evictions": 0,
    # Placed images whose trace :func:`relocate` could not prove
    # placement-invariant, so they were recorded on their own.
    "relocations_refused": 0,
}


def _count_trace_eviction():
    COUNTERS["trace_evictions"] += 1


def _count_memo_eviction():
    COUNTERS["memo_evictions"] += 1


#: In-process trace table: bounded LRU (traces are the largest objects
#: the process holds on to; REPRO_TRACE_CACHE_CAP / 0 = unbounded).
_TRACE_CACHE = LRUCache(env_capacity("REPRO_TRACE_CACHE_CAP", 64),
                        on_evict=_count_trace_eviction)

#: Shared on-disk layer (:class:`repro.store.ArtifactStore`), or None.
_TRACE_STORE = None

#: Per-trace replay-kernel memo bound (entries are stream reductions
#: comparable in size to the trace itself; REPRO_STREAM_MEMO_CAP).
_MEMO_CAP = env_capacity("REPRO_STREAM_MEMO_CAP", 16)


def _new_memo():
    return LRUCache(_MEMO_CAP, on_evict=_count_memo_eviction)


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
    form (the ``ops`` property re-expands lazily, numpy-accelerated
    when available), and pickling stores the compact form — that is
    what shrinks the on-disk trace cache and worker-to-worker
    transfers.  Foreign ingested streams whose deltas overflow 32 bits
    stay flat (:meth:`runs` returns None).

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
                ops = self._ops = _expand_runs(*self._runs)
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


def _expand_runs(base, heads, packed):
    """Decode :func:`_compress_ops` output back into a flat stream."""
    from . import kernels
    if kernels.have_numpy():
        return kernels.expand_runs(base, heads, packed)
    ops = array("Q")
    extend = ops.extend
    append = ops.append
    first = base
    for head, record in zip(heads, packed):
        first += head
        count = record >> 1
        if record & 1:
            extend(range(first, first + count * _RUN_STRIDE,
                         _RUN_STRIDE))
        elif count == 1:
            append(first)
        else:
            extend([first] * count)
    return ops


def tag_counts(ops) -> tuple:
    """Per-tag totals (8 entries) of a packed access stream."""
    from . import kernels
    if kernels.have_numpy():
        return kernels.tag_counts(ops)
    counts = [0] * 8
    for value in ops:
        counts[value & 7] += 1
    return tuple(counts)


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


def _object_index(ops, layout):
    """Scalar :func:`repro.sim.kernels.object_index`: ``(buckets,
    counts, bad)`` with *bad* the first access the guard rejects, or
    -1."""
    _objects, bases, ends, is_code, stack_floor, note_keys, noted_pcs = \
        layout
    n = len(bases)
    width = n + 2
    buckets = array("H" if width <= 0xFFFF else "l")
    counts = [[0] * 8 for _ in range(width)]
    bad = -1
    pc = pc_bucket = None
    for position, value in enumerate(ops):
        tag = value & 7
        addr = value >> 3
        slot = bisect_right(bases, addr) - 1
        if slot >= 0 and addr < ends[slot]:
            bucket = slot
        elif addr >= stack_floor:
            bucket = n
        else:
            bucket = n + 1
        buckets.append(bucket)
        counts[bucket][tag] += 1
        if tag == TAG_FETCH:
            pc, pc_bucket = addr, bucket
        if bad >= 0:
            continue
        if tag in FETCH_TAGS:
            ok = bucket < n and is_code[bucket]
        elif pc is None:
            ok = False
        elif bucket == n:
            ok = pc not in noted_pcs
        elif bucket > n:
            ok = False
        elif is_code[bucket]:  # a literal-pool read (tags 1-3)
            ok = tag <= 3 and bucket == pc_bucket
        else:
            ok = pc * width + bucket in note_keys
        if not ok:
            bad = position
    return buckets, [tuple(row) for row in counts], bad


def _placement_of(trace: Trace, image) -> _Placement:
    """The object index of baseline *trace* recorded from *image*,
    computed once and kept on the trace."""
    key = image.content_key()
    placement = trace._placement
    if placement is not None and placement.key == key:
        return placement
    from . import kernels
    layout = _placement_layout(image)
    ops = trace.ops
    if kernels.have_numpy():
        buckets, counts, bad = kernels.object_index(
            kernels.ops_view(ops), *layout[1:])
    else:
        buckets, counts, bad = _object_index(ops, layout)
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
    from . import kernels
    if kernels.have_numpy():
        return kernels.relocate_ops(kernels.ops_view(trace.ops), buckets,
                                    shifts, keep)
    ops = array("Q")
    append = ops.append
    for value, bucket in zip(trace.ops, buckets):
        if keep[bucket]:
            append(value + shifts[bucket])
    return ops


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

def set_trace_cache_dir(path, max_bytes=None):
    """Enable (or with None disable) the shared on-disk trace layer.

    The layer is a checksummed, corruption-quarantining
    :class:`repro.store.ArtifactStore`; *max_bytes* optionally caps it
    with mtime-LRU garbage collection.
    """
    global _TRACE_STORE
    _TRACE_STORE = (None if path is None else
                    ArtifactStore(path, suffix=".trace.pkl",
                                  max_bytes=max_bytes))


def set_trace_store(store):
    """Install a prebuilt store object as the on-disk trace layer.

    The cluster tier passes a
    :class:`repro.store.ShardedArtifactStore` here; anything with the
    ``load`` / ``store`` / ``counters`` surface works.  ``None``
    disables the layer, same as ``set_trace_cache_dir(None)``.
    """
    global _TRACE_STORE
    _TRACE_STORE = store


def trace_cache_dir():
    return None if _TRACE_STORE is None else _TRACE_STORE.root


def trace_store():
    """The on-disk :class:`~repro.store.ArtifactStore`, or None."""
    return _TRACE_STORE


def set_trace_cache_capacity(capacity):
    """Bound (or with None unbound) the in-process trace table."""
    _TRACE_CACHE.set_capacity(capacity)


def set_stream_memo_capacity(capacity):
    """Per-trace kernel-memo bound for traces created afterwards."""
    global _MEMO_CAP
    _MEMO_CAP = capacity


def clear_trace_caches():
    """Drop every in-memory trace (the disk layer is untouched)."""
    _TRACE_CACHE.clear()


def trace_counters() -> dict:
    """The in-process counters plus the disk store's, one flat dict."""
    merged = dict(COUNTERS)
    store_counts = (_TRACE_STORE.counters if _TRACE_STORE is not None
                    else dict.fromkeys(STORE_COUNTER_KEYS, 0))
    for key in STORE_COUNTER_KEYS:
        merged[f"trace_store_{key}"] = store_counts[key]
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
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        COUNTERS["trace_hits"] += 1
        return trace
    if _TRACE_STORE is not None:
        # The store verifies the envelope checksum before unpickling;
        # corrupt entries are quarantined and counted, never served.
        trace = _TRACE_STORE.load(key)
        if trace is not None:
            _TRACE_CACHE[key] = trace
            COUNTERS["trace_hits"] += 1
            COUNTERS["trace_disk_hits"] += 1
            return trace
    COUNTERS["trace_misses"] += 1
    trace = record_trace(image, spm_size, max_steps)
    _TRACE_CACHE[key] = trace
    if _TRACE_STORE is not None:
        _TRACE_STORE.store(key, trace)
    return trace
