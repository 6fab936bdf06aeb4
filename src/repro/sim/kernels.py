"""Vectorised (numpy) replay kernels behind a runtime-selected backend.

The scalar kernels in :mod:`repro.sim.replay` walk the packed
``addr << 3 | tag`` stream one access at a time.  For direct-mapped LRU
pipelines — the paper's shapes, and the hot rows of
``BENCH_simulator.json`` — the same counters can be computed from whole-
trace vector operations instead:

* the stream is viewed in bulk as a ``uint64`` array (zero-copy over the
  trace's ``array('Q')`` buffer) and split once into tag / address /
  block-id vectors;
* residency in a direct-mapped cache follows from the *Mattson carry*:
  an access hits iff the most recent **allocating** access to its set
  named the same block.  That previous-allocating-access relation is a
  stable sort by set index plus a forward-fill of allocating positions —
  no sequential tag array at all (:func:`_dm_hits`); set indices are
  narrowed to ``uint16`` so the stable sort takes numpy's 2-pass radix
  path;
* multi-level pipelines chain the same kernel with per-level pending
  masks: fetches/reads that hit stop descending, writes (write-through,
  no allocate) probe every data-path level unconditionally;
* the same-block shortcut the scalar sweep kernel uses becomes a
  vectorised prefilter: runs of consecutive same-block accesses are
  guaranteed hits at every geometry and drop out before the per-set
  grouping, which is what makes size sweeps cheap;
* everything about a probe stream that does not depend on the set
  count — kind masks, block ids, the shortcut survivors —
  is reduced once per ``(trace, line size, stream)`` and memoised on
  the trace (:func:`stream_prep`), so replaying the same trace under
  many configurations (the workflow sweeps, the benches) pays only the
  per-set grouping per point.

Backend selection is automatic (numpy when importable) with two
overrides, checked in order: :func:`set_kernel` (the CLI's ``--kernel``)
and the ``REPRO_REPLAY_KERNEL`` environment variable (``scalar`` |
``numpy`` | ``auto``).  Without numpy the scalar kernels serve
everything, bit-identically — the differential tests in
``tests/test_kernels.py`` pin the two backends against each other over
every committed hierarchy shape.
"""

from __future__ import annotations

import os
from array import array

try:  # optional dependency: everything falls back to the scalar kernels
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-less CI job
    _np = None

#: Valid kernel names for the override knobs.
KERNEL_CHOICES = ("auto", "scalar", "numpy")

#: Runtime override installed by :func:`set_kernel` (None = not set).
_OVERRIDE = None


def have_numpy() -> bool:
    """True when the numpy backend can serve at all."""
    return _np is not None


def set_kernel(name):
    """Install (or with ``None``/``"auto"`` clear) the kernel override.

    Takes precedence over ``REPRO_REPLAY_KERNEL``.  Requesting ``numpy``
    without numpy installed is an error — silent fallback is reserved
    for ``auto``.
    """
    global _OVERRIDE
    if name is None or name == "auto":
        _OVERRIDE = None
        return
    if name not in ("scalar", "numpy"):
        raise ValueError(
            f"unknown replay kernel {name!r}; expected one of "
            f"{KERNEL_CHOICES}")
    if name == "numpy" and _np is None:
        raise RuntimeError(
            "replay kernel 'numpy' requested but numpy is not installed")
    _OVERRIDE = name


def active_kernel() -> str:
    """The backend replay dispatches to right now: scalar or numpy."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    env = os.environ.get("REPRO_REPLAY_KERNEL", "auto")
    if env == "scalar":
        return "scalar"
    if env == "numpy":
        if _np is None:
            raise RuntimeError(
                "REPRO_REPLAY_KERNEL=numpy but numpy is not installed "
                "(use 'auto' for graceful fallback)")
        return "numpy"
    if env not in ("", "auto"):
        raise RuntimeError(
            f"bad REPRO_REPLAY_KERNEL value {env!r}; expected one of "
            f"{KERNEL_CHOICES}")
    return "numpy" if _np is not None else "scalar"


# -- bulk views of the packed stream -----------------------------------------

def ops_view(ops):
    """Zero-copy ``uint64`` view of a trace's packed ``array('Q')``."""
    return _np.frombuffer(ops, dtype=_np.uint64)


def tag_counts(ops):
    """Per-tag totals (8 entries) of a packed ``array('Q')`` stream."""
    tags = (ops_view(ops) & _np.uint64(7)).astype(_np.intp)
    return tuple(int(n) for n in _np.bincount(tags, minlength=8))


def split_stream(values):
    """``(tags, addrs)`` as int64 vectors from packed uint64 values."""
    tags = (values & _np.uint64(7)).astype(_np.int64)
    addrs = (values >> _np.uint64(3)).astype(_np.int64)
    return tags, addrs


# -- the direct-mapped carry kernel ------------------------------------------

def _dm_hits(blocks, sets, alloc):
    """Hit mask of a direct-mapped probe stream, in stream order.

    An access hits iff the most recent *allocating* access to the same
    set named the same block (writes probe with ``alloc`` False: they
    neither allocate nor, at associativity 1, move anything; ``alloc``
    None means every access allocates).  Computed by stably sorting on
    the set index and forward-filling the last allocating position; a
    carried position from before the set's first access (i.e. from
    another set) is ruled out by the set-equality check against the
    carried position itself.
    """
    n = blocks.size
    if n == 0:
        return _np.zeros(0, dtype=bool)
    order = _np.argsort(sets, kind="stable")
    b = blocks[order]
    s = sets[order]
    hit_sorted = _np.empty(n, dtype=bool)
    hit_sorted[0] = False
    if alloc is None:
        # Every access allocates: the predecessor within the group is
        # simply the previous sorted element.
        _np.equal(s[1:], s[:-1], out=hit_sorted[1:])
        hit_sorted[1:] &= b[1:] == b[:-1]
    else:
        idx = _np.arange(n, dtype=_np.int32)
        fill = _np.maximum.accumulate(_np.where(alloc[order], idx, -1))
        raw = fill[:-1]
        prev = _np.maximum(raw, 0)
        hit_sorted[1:] = (raw >= 0) & (s[prev] == s[1:]) & (b[prev] == b[1:])
    hits = _np.empty(n, dtype=bool)
    hits[order] = hit_sorted
    return hits


def _set_index(rb, nsets):
    """Set indices of the rest blocks, narrowed for the radix sort."""
    if nsets & (nsets - 1) == 0:
        sets = rb & (nsets - 1)
    else:
        sets = rb % nsets
    if nsets <= 1 << 16:
        return sets.astype(_np.uint16)
    return sets


def _split(values, memo):
    """``(addrs, is_fetch, is_read, is_write)``, memoised per trace."""
    got = memo.get("split") if memo is not None else None
    if got is None:
        tags = (values & _np.uint64(7)).astype(_np.int64)
        addrs = (values >> _np.uint64(3)).astype(_np.int64)
        got = (addrs,
               (tags == 0) | (tags == 7),
               (tags >= 1) & (tags <= 3),
               (tags >= 4) & (tags < 7))
        if memo is not None:
            memo["split"] = got
    return got


def stream_prep(values, line, kind, memo=None):
    """Set-count-independent reduction of one probe stream, memoised.

    *kind* picks which accesses probe the cache: ``"unified"``
    (everything), ``"fetch"`` (instruction side only — every probe
    allocates) or ``"data"`` (reads + writes).  The returned dict
    carries the stream's block ids, allocation mask, the same-block
    shortcut (guaranteed hits at any geometry) with per-kind hit
    counters, and the shortcut survivors (``rest``) that still need the
    per-set grouping — everything replays over the same trace can
    share, whatever the set count.
    """
    key = ("prep", line, kind)
    got = memo.get(key) if memo is not None else None
    if got is not None:
        return got
    addrs, is_fetch, is_read, is_write = _split(values, memo)
    shift = line.bit_length() - 1
    if kind == "unified":
        sel = None
        blocks = addrs >> shift
        alloc = ~is_write
        kind_masks = (is_fetch, is_read, is_write)
    elif kind == "fetch":
        sel = _np.flatnonzero(is_fetch)
        blocks = addrs[sel] >> shift
        alloc = None
        kind_masks = (True, None, None)
    else:  # "data"
        sel = _np.flatnonzero(is_read | is_write)
        blocks = addrs[sel] >> shift
        w = is_write[sel]
        alloc = ~w
        kind_masks = (None, ~w, w)
    n = blocks.size
    if n == 0:
        short = _np.zeros(0, dtype=bool)
    elif alloc is None:
        short = _np.empty(n, dtype=bool)
        short[0] = False
        _np.equal(blocks[1:], blocks[:-1], out=short[1:])
    else:
        idx = _np.arange(n, dtype=_np.int64)
        fill = _np.maximum.accumulate(_np.where(alloc, idx, -1))
        prev = _np.empty(n, dtype=_np.int64)
        prev[0] = -1
        prev[1:] = fill[:-1]
        short = (prev >= 0) & (blocks[_np.maximum(prev, 0)] == blocks)
    rest = _np.flatnonzero(~short)
    rb = blocks[rest]
    if rb.size and int(rb.max()) < (1 << 31):
        rb = rb.astype(_np.int32)  # cheaper gathers in the radix walk
    totals = []
    short_hits = []
    rest_masks = []
    for mask in kind_masks:
        if mask is None:
            totals.append(0)
            short_hits.append(0)
            rest_masks.append(None)
        elif mask is True:  # the whole stream is this kind
            totals.append(n)
            short_hits.append(int(_np.count_nonzero(short)))
            rest_masks.append(True)
        else:
            totals.append(int(_np.count_nonzero(mask)))
            short_hits.append(int(_np.count_nonzero(short & mask)))
            rest_masks.append(mask[rest])
    prep = {
        "sel": sel,
        "alloc": alloc,
        "short": short,
        "rest": rest,
        "rb": rb,
        "ra": None if alloc is None else alloc[rest],
        "totals": tuple(totals),
        "short_hits": tuple(short_hits),
        "rest_masks": tuple(rest_masks),
    }
    if memo is not None:
        memo[key] = prep
    return prep


def prep_counts(prep, nsets, need_hits=False):
    """``(counts, hits)`` of one DM geometry from a prepared stream.

    Only the per-set grouping of the shortcut survivors runs here; the
    6-entry fast-counter list merges the shortcut's per-kind hits with
    the grouped ones.  *hits* (the full per-probe mask, for pending
    updates in level chains) is built only when *need_hits* is set.
    """
    rb = prep["rb"]
    hits_rest = _dm_hits(rb, _set_index(rb, nsets), prep["ra"])
    counts = [0, 0, 0, 0, 0, 0]
    for pos, base in enumerate((0, 2, 4)):
        total = prep["totals"][pos]
        if not total:
            continue
        mask = prep["rest_masks"][pos]
        kind_hits = prep["short_hits"][pos] + int(_np.count_nonzero(
            hits_rest if mask is True else hits_rest & mask))
        counts[base] = kind_hits
        counts[base + 1] = total - kind_hits
    if not need_hits:
        return counts, None
    hits = prep["short"].copy()
    hits[prep["rest"]] = hits_rest
    return counts, hits


def dm_probe_counts(blocks, nsets, alloc, kind_masks):
    """Counters + hit mask of one DM cache over an ad-hoc probe stream.

    The un-memoised path for chain levels whose probe stream depends on
    shallower hits.  *kind_masks* is ``(fetch_mask, read_mask,
    write_mask)`` over the stream (None = that kind never probes).
    The same-block shortcut is applied first; only the survivors pay
    the per-set grouping sort of :func:`_dm_hits`.  Returns
    ``(counts, hits)``.
    """
    n = blocks.size
    counts = [0, 0, 0, 0, 0, 0]
    if n == 0:
        return counts, _np.zeros(0, dtype=bool)
    idx = _np.arange(n, dtype=_np.int64)
    fill = _np.maximum.accumulate(_np.where(alloc, idx, -1))
    prev = _np.empty(n, dtype=_np.int64)
    prev[0] = -1
    prev[1:] = fill[:-1]
    short = (prev >= 0) & (blocks[_np.maximum(prev, 0)] == blocks)
    hits = short.copy()
    rest = _np.flatnonzero(~short)
    if rest.size:
        rb = blocks[rest]
        hits[rest] = _dm_hits(rb, _set_index(rb, nsets), alloc[rest])
    for base, mask in zip((0, 2, 4), kind_masks):
        if mask is None:
            continue
        total = int(_np.count_nonzero(mask))
        if not total:
            continue
        kind_hits = int(_np.count_nonzero(hits & mask))
        counts[base] = kind_hits
        counts[base + 1] = total - kind_hits
    return counts, hits


def dm_chain_counts(values, caches, memo=None):
    """Per-cache fast counters of a direct-mapped level pipeline.

    *caches* is a sequence of ``(line_size, num_sets, on_fetch,
    on_data)`` in physical (outermost-first) order.  Fetches and reads
    descend only while they miss; writes probe every data-path cache
    regardless (write-through keeps deeper tags informed).  The first
    cache on each path sees a config-independent probe stream and is
    served from the memoised :func:`stream_prep`; deeper levels build
    their streams from the pending masks.  Returns one 6-entry counter
    list per cache, bit-identical to the scalar touch closures.
    """
    addrs, is_fetch, is_read, is_write = _split(values, memo)
    last = len(caches) - 1
    fetch_virgin = read_virgin = True
    fetch_pending = read_pending = None
    out = []
    for pos, (line, nsets, on_fetch, on_data) in enumerate(caches):
        need_hits = pos != last
        virgin = (not on_fetch or fetch_virgin) \
            and (not on_data or read_virgin)
        if virgin:
            kind = ("unified" if on_fetch and on_data
                    else "fetch" if on_fetch else "data")
            prep = stream_prep(values, line, kind, memo)
            counts, hits = prep_counts(prep, nsets, need_hits=need_hits)
            out.append(counts)
            if need_hits:
                sel = prep["sel"]
                if fetch_pending is None:
                    fetch_pending = is_fetch.copy()
                if read_pending is None:
                    read_pending = is_read.copy()
                if sel is None:
                    if on_fetch:
                        fetch_pending &= ~hits
                    if on_data:
                        read_pending &= ~hits
                else:
                    if on_fetch:
                        fetch_pending[sel] = ~hits
                    if on_data:
                        read_pending[sel] &= ~hits
        else:
            if fetch_pending is None:
                fetch_pending = is_fetch.copy()
            if read_pending is None:
                read_pending = is_read.copy()
            probe = None
            if on_fetch:
                probe = fetch_pending.copy()
            if on_data:
                dprobe = read_pending | is_write
                probe = dprobe if probe is None else (probe | dprobe)
            idxs = _np.flatnonzero(probe)
            if not idxs.size:
                out.append([0, 0, 0, 0, 0, 0])
                continue
            blocks = addrs[idxs] >> (line.bit_length() - 1)
            alloc = ~is_write[idxs]
            kind_masks = (
                fetch_pending[idxs] if on_fetch else None,
                read_pending[idxs] if on_data else None,
                is_write[idxs] if on_data else None,
            )
            counts, hits = dm_probe_counts(blocks, nsets, alloc,
                                           kind_masks)
            out.append(counts)
            if need_hits:
                if on_fetch:
                    fetch_pending[idxs[hits & kind_masks[0]]] = False
                if on_data:
                    read_pending[idxs[hits & kind_masks[1]]] = False
        if on_fetch:
            fetch_virgin = False
        if on_data:
            read_virgin = False
    return out


def dm_sweep_counts(values, line, unified, nsets_list, memo=None):
    """One 6-entry counter list per set count, in one pass.

    The multi-size generalisation: the stream is reduced once (and
    memoised across calls) by :func:`stream_prep`; only the shortcut
    survivors pay a per-``nsets`` grouping.  Matches the scalar
    ``_sweep_walk`` tables bit for bit, writes included (they probe
    without allocating, exactly the write-recency contract the
    regression tests pin down).

    When the requested set counts form a divisibility chain (the usual
    power-of-two sweep), direct-mapped inclusion — a hit at ``k`` sets
    stays a hit at any multiple of ``k``, because the same-set window
    between an access and its previous same-block allocation only
    shrinks as sets split — lets each level's hits be deleted from the
    stream before the next level runs: their counts are carried
    forward and every successive grouping sorts a smaller array.
    Deleting a hit is sound because the access it matched (same block,
    same set at every finer geometry) remains the most recent
    allocation for anything that would have matched the deleted one.
    """
    prep = stream_prep(values, line, "unified" if unified else "fetch",
                       memo)
    uniq = sorted(set(nsets_list))
    chain = all(b % a == 0 for a, b in zip(uniq, uniq[1:]))
    if not chain or len(uniq) < 2:
        return [prep_counts(prep, nsets)[0] for nsets in nsets_list]
    totals = prep["totals"]
    short_hits = prep["short_hits"]
    b = prep["rb"]
    a = prep["ra"]
    masks = list(prep["rest_masks"])
    carry = [0, 0, 0]
    by_nsets = {}
    for nsets in uniq:
        hits = _dm_hits(b, _set_index(b, nsets), a)
        nhits = int(_np.count_nonzero(hits))
        counts = [0, 0, 0, 0, 0, 0]
        for ki, base in enumerate((0, 2, 4)):
            if not totals[ki]:
                continue
            m = masks[ki]
            kh = carry[ki] + (nhits if m is True
                              else int(_np.count_nonzero(hits & m)))
            counts[base] = short_hits[ki] + kh
            counts[base + 1] = totals[ki] - counts[base]
        by_nsets[nsets] = counts
        if nsets != uniq[-1] and nhits:
            keep = ~hits
            for ki in range(3):
                m = masks[ki]
                if m is True:
                    carry[ki] += nhits
                elif m is not None:
                    carry[ki] += int(_np.count_nonzero(hits & m))
                    masks[ki] = m[keep]
            b = b[keep]
            if a is not None:
                a = a[keep]
    return [list(by_nsets[nsets]) for nsets in nsets_list]


# -- run-length expansion -----------------------------------------------------

def expand_runs(base, heads, packed):
    """Decode the trace RLE form back into a flat ``array('Q')``.

    *heads* holds each run's ``int32`` delta from the previous run's
    first packed op (*base* anchors the first), *packed* holds
    ``count << 1 | (stride != 0)`` as ``uint32`` with a non-zero stride
    meaning the address advances 2 bytes per repeat (16 in packed
    units).
    """
    h = _np.frombuffer(heads, dtype=_np.int32).astype(_np.int64)
    p = _np.frombuffer(packed, dtype=_np.uint32).astype(_np.int64)
    firsts = (_np.cumsum(h) + base).astype(_np.uint64)
    counts = p >> 1
    strides = _np.where((p & 1).astype(bool), 16, 0).astype(_np.uint64)
    total = int(counts.sum())
    starts = _np.cumsum(counts) - counts
    offsets = (_np.arange(total, dtype=_np.int64)
               - _np.repeat(starts, counts)).astype(_np.uint64)
    ops = _np.repeat(firsts, counts) \
        + _np.repeat(strides, counts) * offsets
    return array("Q", ops.tobytes())


# -- relocation ----------------------------------------------------------------

def object_index(values, bases, ends, is_code, stack_floor, note_keys,
                 noted_pcs):
    """``(buckets, counts, bad)``: where each access of a baseline
    stream lands, and the first one relocation cannot place (-1 if
    none).

    Bucket ``i < n`` is the *i*-th of the base-sorted objects
    (*bases*/*ends*/*is_code*), ``n`` the stack (at or above
    *stack_floor*), ``n + 1`` outside every object.  *counts* holds
    per-bucket, per-tag totals.  The guard (see
    :func:`repro.sim.trace.relocate`) needs each data access's owning
    pc, the forward-filled address of the latest plain fetch; a data
    access inside an object passes when ``pc * (n + 2) + bucket`` is
    in *note_keys*, a stack access when its pc is not in *noted_pcs*.
    """
    n = len(bases)
    width = n + 2
    tags = (values & _np.uint64(7)).astype(_np.int8)
    addrs = (values >> _np.uint64(3)).astype(_np.int64)
    slot = _np.searchsorted(_np.asarray(bases, dtype=_np.int64), addrs,
                            side="right") - 1
    ends_of = _np.asarray(list(ends) + [0], dtype=_np.int64)[slot]
    buckets = _np.where(
        (slot >= 0) & (addrs < ends_of), slot,
        _np.where(addrs >= stack_floor, n, n + 1)).astype(
            _np.uint16 if width <= 0xFFFF else _np.int64)
    del slot, ends_of
    counts = _np.bincount(buckets.astype(_np.intp) * 8 + tags,
                          minlength=width * 8).reshape(width, 8)
    counts = [tuple(int(c) for c in row) for row in counts]
    fetch = (tags == 0) | (tags == 7)
    code = _np.asarray(list(is_code) + [False, False], dtype=bool)[buckets]
    ok = _np.where(fetch, code, False)
    owner = _np.where(tags == 0, _np.arange(len(tags)), -1)
    _np.maximum.accumulate(owner, out=owner)
    data = ~fetch & (owner >= 0)
    index = _np.flatnonzero(data)
    owner = owner[index]
    pcs = addrs[owner]
    where = buckets[index].astype(_np.int64)
    is_read = tags[index] <= 3
    stack = where == n
    ok_data = _np.zeros(len(index), dtype=bool)
    if noted_pcs:
        ok_data[stack] = ~_np.isin(
            pcs[stack], _np.fromiter(noted_pcs, dtype=_np.int64))
    else:
        ok_data[stack] = True
    literal = code[index]
    ok_data[literal] = is_read[literal] & (
        buckets[owner[literal]] == where[literal])
    named = ~stack & ~literal & (where < n)
    if note_keys:
        ok_data[named] = _np.isin(
            pcs[named] * width + where[named],
            _np.fromiter(note_keys, dtype=_np.int64))
    ok[index] = ok_data
    bad = _np.flatnonzero(~ok)
    return buckets, counts, int(bad[0]) if len(bad) else -1


def relocate_ops(values, buckets, shifts, keep):
    """Shift each access by its bucket's packed base delta and drop
    the buckets *keep* excludes (SPM-resident objects)."""
    shifted = values.view(_np.int64) + _np.asarray(
        shifts, dtype=_np.int64)[buckets]
    return array("Q", shifted[_np.asarray(keep, dtype=bool)[buckets]]
                 .tobytes())
