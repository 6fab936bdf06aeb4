"""Trace replay kernels: the simulator's one pricer.

Given a :class:`~repro.sim.trace.Trace` (the image's dynamic access
stream, recorded once by the execution engine) and a compatible
:class:`~repro.memory.hierarchy.SystemConfig`, :func:`replay` produces
the :class:`~repro.sim.simulator.SimResult` of running the program on
that config — cycles, instruction count, console, exit code, and
per-level hit/miss statistics, bit-identical to the oracle interpreter
(:meth:`~repro.sim.simulator.Simulator.run_oracle`) — without touching
registers, RAM or step closures.  Replay only walks tag arrays, and
only for the accesses that can actually change state:

* SPM-resident accesses and data writes have config-fixed costs
  (write-through stores pay main memory regardless of hit/miss), so
  they are priced from the trace's aggregate per-tag counts in O(1) —
  writes are walked only when a data-path cache needs their LRU
  refresh/statistics;
* on fetch-only pipelines (instruction caches) the data stream is
  skipped entirely;
* pipelines with no caches at all reduce to pure arithmetic over a
  memoized per-config pricing plan — no tag arrays, no hierarchy.

Direct-mapped LRU pipelines (the paper's shapes) are priced by the
numpy kernels of :mod:`repro.sim.kernels`; every other pipeline (FIFO,
random, associative LRU) by one scalar walk over the hierarchy's touch
closures (:func:`_walk_replay`).  That walk is also the reference the
kernel tests compare against on every committed shape.

:func:`replay_sweep` goes further for the paper's bread-and-butter
sweep: same-geometry direct-mapped LRU caches of different sizes
(``cache_sweep``, figs. 3-6, the cache-config ablation).  For LRU the
set contents of a cache are exactly the most recently used blocks
mapping to each set — Mattson et al.'s stack property, which for the
direct-mapped case degenerates to "resident iff most recent allocation
in the set".  The stream is therefore reduced once and every size is
read off it (:func:`repro.sim.kernels.dm_sweep_counts`); writes never
allocate, so the shared recency state stays exact across all sizes.

:func:`replay_grid` generalises the sweep to full per-set Mattson stack
distances: one pass prices an entire (size × associativity) LRU grid at
fixed line size.  Three exactness regimes share the pass:

* associativity-1 points reuse the sweep kernel (write probes are
  statistics-only there, so sharing is exact);
* when no write ever reaches the cache (instruction-cache grids, or
  write-free traces), all deeper points share per-set LRU stacks
  trimmed to the deepest associativity: a hit at associativity A is a
  stack distance < A, read off a depth histogram;
* unified grids over traces *with* writes get exact per-point LRU
  lists walked together in the same pass — the write-recency subtlety
  the sweep regression tests pin down (a write hit refreshes LRU order
  conditionally on residency, which is associativity-dependent and
  provably cannot share one stack).
"""

from __future__ import annotations

from ..memory.cache import CacheStats, ReplacementPolicy
from ..memory.hierarchy import MemoryHierarchy, SystemConfig
from ..memory.levels import level_labels, path_geometry, serve_costs
from ..memory.regions import RegionKind
from ..sim.simulator import SimResult, SimError
from . import kernels
from .trace import COUNTERS, TAG_WIDTH, Trace


def _check_budget(trace: Trace, max_steps: int):
    if trace.instructions > max_steps:
        # The engine would have given up mid-run; replays agree.
        raise SimError(f"exceeded {max_steps} steps (runaway program?)")


def _check_spm(trace: Trace, config: SystemConfig):
    if config.spm_size != trace.spm_size:
        raise ValueError(
            f"trace was recorded with a {trace.spm_size}-byte SPM split; "
            f"config {config.name!r} has {config.spm_size} bytes — "
            "re-record against the matching image")


# -- per-config pricing plans -------------------------------------------------

class _ReplayPlan:
    """Immutable pricing tables of one ``(levels, timing)`` point.

    Everything a replay needs that is *not* per-access state: physical
    cache descriptors in level order, serve-cost tables per path depth,
    and per-tag SPM/main cycle costs.  Memoized process-wide
    (:func:`_plan_for`), so repeated replays of the same config — the
    planner's singles, the sweep/grid pricing step, uncached baselines
    — skip hierarchy construction entirely.
    """

    __slots__ = ("names", "caches", "fetch_order", "data_order",
                 "fcosts", "dcosts", "spm_tag_cycles", "main_tag_cycles",
                 "dm_chain", "kernel_caches")

    def __init__(self, config: SystemConfig):
        timing = config.timing
        names = []
        caches = []  # (CacheConfig, on_fetch, on_data)
        fetch_order = []
        data_order = []
        for level in config.cache_level_specs:
            labels = iter(level_labels(level))
            if level.shared:
                fetch_order.append(len(caches))
                data_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.icache, True, True))
                continue
            if level.icache is not None:
                fetch_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.icache, True, False))
            if level.dcache is not None:
                data_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.dcache, False, True))
        self.names = tuple(names)
        self.caches = tuple(caches)
        self.fetch_order = tuple(fetch_order)
        self.data_order = tuple(data_order)
        self.fcosts = tuple(serve_costs(
            path_geometry(config.fetch_path(), "i"), timing))
        self.dcosts = tuple(serve_costs(
            path_geometry(config.data_path(), "d"), timing))
        self.spm_tag_cycles = tuple(
            timing.cycles(RegionKind.SPM, TAG_WIDTH[tag])
            for tag in range(8))
        self.main_tag_cycles = tuple(
            timing.cycles(RegionKind.MAIN, TAG_WIDTH[tag])
            for tag in range(8))
        self.dm_chain = all(spec.assoc == 1 for spec, _f, _d in caches)
        self.kernel_caches = tuple(
            (spec.line_size, spec.num_sets, on_fetch, on_data)
            for spec, on_fetch, on_data in caches)


_PLANS = {}


def _plan_for(config: SystemConfig) -> _ReplayPlan:
    # Keyed by value only, never by config identity: workflow points
    # build fresh configs, and an identity table would keep every one
    # of them alive.  Levels tuples are frozen dataclasses and hash
    # fine.
    key = (config.levels, config.timing.key)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _ReplayPlan(config)
    return plan


def _fixed_cycles(trace: Trace, plan: _ReplayPlan,
                  fetches_fixed: bool, reads_fixed: bool) -> int:
    """Cycles of every access whose cost the config pins up front.

    Always: SPM-resident accesses and the write-through store costs.
    Additionally the whole fetch (data-read) stream when no cache sits
    on that path, where each access pays plain main-memory cost.
    Memoised on the trace per (plan, path-fixedness) — plans are
    interned for the process lifetime, so their ids are stable keys.
    """
    memo = trace._memo
    memo_key = ("fixed", id(plan), fetches_fixed, reads_fixed)
    cached = memo.get(memo_key)
    if cached is not None:
        return cached
    spm_out = plan.spm_tag_cycles
    main_out = plan.main_tag_cycles
    total = 0
    for tag, count in enumerate(trace.spm_counts):
        if count:
            total += count * spm_out[tag]
    counts = trace.op_counts
    for tag in (4, 5, 6):  # writes: main cost at any depth
        if counts[tag]:
            total += counts[tag] * main_out[tag]
    if fetches_fixed and (counts[0] or counts[7]):
        total += (counts[0] + counts[7]) * main_out[0]
    if reads_fixed:
        for tag in (1, 2, 3):
            if counts[tag]:
                total += counts[tag] * main_out[tag]
    memo[memo_key] = total
    return total


def _result(trace: Trace, hierarchy: MemoryHierarchy,
            cycles: int) -> SimResult:
    hierarchy.flush_fast_stats()
    return SimResult(
        cycles=cycles,
        instructions=trace.instructions,
        exit_code=trace.exit_code,
        console=list(trace.console),
        cache_stats=hierarchy.cache_stats,
        level_stats=hierarchy.level_stats,
    )


def _plan_result(trace: Trace, plan: _ReplayPlan, cycles: int,
                 counts_per_cache) -> SimResult:
    """Build a SimResult from counters alone (no tag arrays needed)."""
    level_stats = {}
    first = None
    for name, counts in zip(plan.names, counts_per_cache):
        stats = CacheStats(*counts)
        level_stats[name] = stats
        if first is None:
            first = stats
    return SimResult(
        cycles=cycles,
        instructions=trace.instructions,
        exit_code=trace.exit_code,
        console=list(trace.console),
        cache_stats=first,
        level_stats=level_stats,
    )


def _priced_counts(trace: Trace, plan: _ReplayPlan, counts_per_cache,
                   fetches_fixed: bool = False,
                   reads_fixed: bool = False) -> int:
    """Total cycles from per-cache counters and the plan's cost tables."""
    cycles = trace.base_cycles + _fixed_cycles(
        trace, plan, fetches_fixed=fetches_fixed, reads_fixed=reads_fixed)
    op_counts = trace.op_counts
    if plan.fetch_order and not fetches_fixed:
        total = op_counts[0] + op_counts[7]
        served = 0
        for depth, index in enumerate(plan.fetch_order):
            hits = counts_per_cache[index][0]
            cycles += hits * plan.fcosts[depth]
            served += hits
        cycles += (total - served) * plan.fcosts[len(plan.fetch_order)]
    if plan.data_order and not reads_fixed:
        total = op_counts[1] + op_counts[2] + op_counts[3]
        served = 0
        for depth, index in enumerate(plan.data_order):
            hits = counts_per_cache[index][2]
            cycles += hits * plan.dcosts[depth]
            served += hits
        cycles += (total - served) * plan.dcosts[len(plan.data_order)]
    return cycles


def replay(trace: Trace, config: SystemConfig,
           max_steps: int = 50_000_000) -> SimResult:
    """Re-price *trace* under *config*; bit-identical to execution."""
    _check_budget(trace, max_steps)
    _check_spm(trace, config)
    plan = _plan_for(config)
    COUNTERS["replay_runs"] += 1
    if not plan.caches:
        # No tag state anywhere: pure arithmetic over the plan tables.
        COUNTERS["replay_scalar"] += 1
        cycles = trace.base_cycles + _fixed_cycles(
            trace, plan, fetches_fixed=True, reads_fixed=True)
        return _plan_result(trace, plan, cycles, ())
    if plan.dm_chain:
        COUNTERS["replay_numpy"] += 1
        counts = kernels.dm_chain_counts(
            kernels.ops_view(trace.ops), plan.kernel_caches,
            memo=trace._memo)
        cycles = _priced_counts(trace, plan, counts,
                                fetches_fixed=not plan.fetch_order,
                                reads_fixed=not plan.data_order)
        return _plan_result(trace, plan, cycles, counts)
    COUNTERS["replay_scalar"] += 1
    return _walk_replay(trace, config, plan)


def _walk_replay(trace: Trace, config: SystemConfig,
                 plan: _ReplayPlan) -> SimResult:
    """Price *trace* by walking every access through the hierarchy.

    Serves every pipeline the numpy kernels do not, and is their
    reference in the tests.
    """
    hierarchy = MemoryHierarchy(config)
    cycles = trace.base_cycles + _fixed_cycles(
        trace, plan, fetches_fixed=not plan.fetch_order,
        reads_fixed=not plan.data_order)
    cycles += _walk_generic(trace, hierarchy)
    return _result(trace, hierarchy, cycles)


def _walk_generic(trace: Trace, hierarchy: MemoryHierarchy) -> int:
    """Any level pipeline: per-level touch closures, outermost-in."""
    fts = tuple(
        (hierarchy._make_touch(c, 0), c.config.line_size,
         c.config.num_sets) for c in hierarchy._fetch_chain)
    dts = tuple(
        (hierarchy._make_touch(c, 2), c.config.line_size,
         c.config.num_sets) for c in hierarchy._data_chain)
    wts = tuple(
        (hierarchy._make_write_touch(c), c.config.line_size,
         c.config.num_sets) for c in hierarchy._data_chain)
    fcosts = [out.cycles for out in hierarchy._fetch_out]
    dcosts = [out.cycles for out in hierarchy._data_out]
    cycles = 0
    for value in trace.ops:
        tag = value & 7
        addr = value >> 3
        if tag == 0 or tag == 7:
            if not fts:
                continue  # priced by _fixed_cycles
            depth = 0
            for touch, line, nsets in fts:
                block = addr // line
                if touch(block, block % nsets):
                    break
                depth += 1
            cycles += fcosts[depth]
        elif tag < 4:
            if not dts:
                continue
            depth = 0
            for touch, line, nsets in dts:
                block = addr // line
                if touch(block, block % nsets):
                    break
                depth += 1
            cycles += dcosts[depth]
        else:
            for touch, line, nsets in wts:
                block = addr // line
                touch(block, block % nsets)
    return cycles


def replay_misses(trace: Trace, config: SystemConfig,
                  max_steps: int = 50_000_000):
    """Per-pc fetch-miss counters served from the trace, no re-execution.

    Returns ``(fetch_misses, fetch_main_misses)`` — instruction address
    -> miss count dicts matching the oracle's attribution exactly
    (``simulate_oracle(..., record_misses=True)``): both halfword
    fetches of a 32-bit instruction attribute to the instruction's pc
    (continuation entries carry :data:`~repro.sim.trace.TAG_FETCH_CONT`
    and name ``pc + 2``), and one execution of an instruction counts at
    most once per counter however many of its halfwords missed.

    The walk touches the full fetch *and* data pipelines: on unified
    levels, data traffic moves the very tags fetch misses depend on.
    """
    _check_budget(trace, max_steps)
    _check_spm(trace, config)
    hierarchy = MemoryHierarchy(config)
    fts = tuple(
        (hierarchy._make_touch(c, 0), c.config.line_size,
         c.config.num_sets) for c in hierarchy._fetch_chain)
    dts = tuple(
        (hierarchy._make_touch(c, 2), c.config.line_size,
         c.config.num_sets) for c in hierarchy._data_chain)
    wts = tuple(
        (hierarchy._make_write_touch(c), c.config.line_size,
         c.config.num_sets) for c in hierarchy._data_chain)
    main_depth = len(fts)
    fetch_misses = {}
    fetch_main_misses = {}
    counted = counted_main = True  # until the first tag-0 fetch
    pc = None
    for value in trace.ops:
        tag = value & 7
        addr = value >> 3
        if tag == 0 or tag == 7:
            if tag == 0:
                pc = addr
                counted = counted_main = False
            if not fts:
                continue  # no fetch caches: misses cannot happen
            depth = 0
            for touch, line, nsets in fts:
                block = addr // line
                if touch(block, block % nsets):
                    break
                depth += 1
            if depth:
                if not counted:
                    counted = True
                    fetch_misses[pc] = fetch_misses.get(pc, 0) + 1
                if depth == main_depth and not counted_main:
                    counted_main = True
                    fetch_main_misses[pc] = \
                        fetch_main_misses.get(pc, 0) + 1
        elif tag < 4:
            for touch, line, nsets in dts:
                block = addr // line
                if touch(block, block % nsets):
                    break
        else:
            for touch, line, nsets in wts:
                block = addr // line
                touch(block, block % nsets)
    COUNTERS["miss_replays"] += 1
    return fetch_misses, fetch_main_misses


# -- single-pass size sweeps -------------------------------------------------

def grid_geometry(config: SystemConfig):
    """The shared-geometry key of *config* for grid evaluation.

    Grid-able configs have exactly one cache level that serves fetches
    (unified or instruction-only), LRU replacement at any
    associativity, optionally behind a scratchpad.  Configs with equal
    keys (and equal SPM splits) may be evaluated together by
    :func:`replay_grid` in one pass.  Returns None when the config
    needs a plain per-config replay.
    """
    caches = config.cache_level_specs
    if len(caches) != 1:
        return None
    level = caches[0]
    if level.icache is None:
        return None
    if level.dcache is not None and not level.shared:
        return None
    if level.icache.replacement != ReplacementPolicy.LRU:
        return None
    # Per-config costs (hit_cycles, timing) are priced after the walk,
    # so only what shapes the shared walk itself keys the group.
    return (level.icache.line_size, level.shared, config.spm_size)


def sweep_geometry(config: SystemConfig):
    """The shared-geometry key of *config*, or None if not sweepable.

    Sweepable configs are the direct-mapped subset of
    :func:`grid_geometry` (where direct-mapped content is just "last
    allocated block per set" — the degenerate Mattson stack).  Configs
    with equal keys (and equal SPM splits) may be evaluated together by
    :func:`replay_sweep` in one pass.
    """
    key = grid_geometry(config)
    if key is None:
        return None
    if config.cache_level_specs[0].icache.assoc != 1:
        return None
    return key


def replay_sweep(trace: Trace, configs,
                 max_steps: int = 50_000_000):
    """Evaluate every same-geometry config in **one** pass over *trace*.

    All *configs* must share one :func:`sweep_geometry` key; returns one
    :class:`~repro.sim.simulator.SimResult` per config, in order, each
    bit-identical to :func:`replay` (asserted by the differential and
    property tests).
    """
    configs = list(configs)
    if not configs:
        return []
    _check_budget(trace, max_steps)
    keys = {sweep_geometry(config) for config in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError("replay_sweep needs same-geometry direct-mapped "
                         f"LRU configs, got keys {keys}")
    for config in configs:
        _check_spm(trace, config)
    line, unified, _spm = next(iter(keys))

    if len(configs) == 1:
        # Degenerate sweep: the specialized single-config paths are
        # cheaper than the multi-table kernels.
        results = [replay(trace, configs[0], max_steps)]
        COUNTERS["replay_runs"] -= 1
    else:
        plans = [_plan_for(config) for config in configs]
        nsets_list = [plan.caches[0][0].num_sets for plan in plans]
        COUNTERS["sweep_numpy"] += 1
        counts_list = kernels.dm_sweep_counts(
            kernels.ops_view(trace.ops), line, unified, nsets_list,
            memo=trace._memo)
        results = [
            _plan_result(trace, plan,
                         _sweep_cycles(trace, plan, counts, unified),
                         (counts,))
            for plan, counts in zip(plans, counts_list)]
    COUNTERS["sweep_passes"] += 1
    COUNTERS["sweep_points"] += len(configs)
    return results


def _sweep_cycles(trace: Trace, plan: _ReplayPlan, counts,
                  unified: bool) -> int:
    """Price one single-cache config from its sweep/grid counters."""
    cycles = trace.base_cycles + _fixed_cycles(
        trace, plan, fetches_fixed=False, reads_fixed=not unified)
    cycles += counts[0] * plan.fcosts[0] + counts[1] * plan.fcosts[1]
    if unified:
        cycles += counts[2] * plan.dcosts[0] + counts[3] * plan.dcosts[1]
    return cycles


# -- single-pass geometry grids ----------------------------------------------

def replay_grid(trace: Trace, configs,
                max_steps: int = 50_000_000):
    """Evaluate a (size × associativity) LRU grid in one trace pass.

    All *configs* must share one :func:`grid_geometry` key (same line
    size, same unified/instruction side, same SPM split — sizes and
    associativities free).  Returns one SimResult per config, in order,
    bit-identical to :func:`replay` per point.
    """
    configs = list(configs)
    if not configs:
        return []
    _check_budget(trace, max_steps)
    keys = {grid_geometry(config) for config in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError("replay_grid needs same-geometry LRU configs, "
                         f"got keys {keys}")
    for config in configs:
        _check_spm(trace, config)
    line, unified, _spm = next(iter(keys))

    plans = [_plan_for(config) for config in configs]
    specs = [plan.caches[0][0] for plan in plans]
    counts_for = [None] * len(configs)

    dm_positions = [i for i, spec in enumerate(specs) if spec.assoc == 1]
    lru_positions = [i for i, spec in enumerate(specs) if spec.assoc > 1]

    if dm_positions:
        nsets_list = [specs[i].num_sets for i in dm_positions]
        dm_counts = kernels.dm_sweep_counts(
            kernels.ops_view(trace.ops), line, unified, nsets_list,
            memo=trace._memo)
        for position, counts in zip(dm_positions, dm_counts):
            counts_for[position] = counts
    if lru_positions:
        points = [(specs[i].assoc, specs[i].num_sets)
                  for i in lru_positions]
        if unified and any(trace.op_counts[4:7]):
            # Write hits refresh LRU order conditionally on residency,
            # which depends on the associativity — no shared stack is
            # exact here, so these points get their own LRU lists,
            # still walked together in the one pass.
            lru_counts = _grid_exact_walk(trace.ops, line, points)
        else:
            lru_counts = _grid_stack_walk(trace.ops, line, unified,
                                          points)
        for position, counts in zip(lru_positions, lru_counts):
            counts_for[position] = counts
    results = [
        _plan_result(trace, plan,
                     _sweep_cycles(trace, plan, counts, unified),
                     (counts,))
        for plan, counts in zip(plans, counts_for)]
    COUNTERS["grid_passes"] += 1
    COUNTERS["grid_points"] += len(configs)
    COUNTERS["grid_numpy"] += 1
    return results


def _grid_stack_walk(ops, line, unified, points):
    """Shared per-set Mattson stacks for write-free LRU grid points.

    *points* is a list of ``(assoc, nsets)``; no write probe ever
    reaches the cache (instruction-cache side, or a write-free trace),
    so every access refreshes LRU order unconditionally and one stack
    per set serves every associativity: an access at stack distance
    ``d`` hits every point with ``assoc > d``.  Stacks are trimmed to
    the deepest associativity per set count — depths beyond it price
    identically to a miss everywhere, and trimming bounds the
    ``list.index`` search.
    """
    groups = {}  # nsets -> positions into points
    for position, (_assoc, nsets) in enumerate(points):
        groups.setdefault(nsets, []).append(position)
    walkers = []
    for nsets, members in groups.items():
        deepest = max(points[i][0] for i in members)
        walkers.append((nsets, deepest, [[] for _ in range(nsets)],
                        [0] * (deepest + 1), [0] * (deepest + 1)))
    prev = -1
    for value in ops:
        tag = value & 7
        if tag == 7:
            tag = 0
        if tag and not unified:
            continue
        block = (value >> 3) // line
        read = tag != 0
        if block == prev:
            for _nsets, _deepest, _stacks, fetch_hist, read_hist \
                    in walkers:
                (read_hist if read else fetch_hist)[0] += 1
            continue
        prev = block
        for nsets, deepest, stacks, fetch_hist, read_hist in walkers:
            stack = stacks[block % nsets]
            try:
                depth = stack.index(block)
                del stack[depth]
            except ValueError:
                depth = deepest
                if len(stack) >= deepest:
                    stack.pop()
            stack.insert(0, block)
            (read_hist if read else fetch_hist)[depth] += 1
    counts_for = [None] * len(points)
    for (nsets, _deepest, _stacks, fetch_hist, read_hist), members \
            in zip(walkers, groups.values()):
        total_fetch = sum(fetch_hist)
        total_read = sum(read_hist)
        for position in members:
            assoc = points[position][0]
            fetch_hits = sum(fetch_hist[:assoc])
            read_hits = sum(read_hist[:assoc])
            counts_for[position] = [fetch_hits, total_fetch - fetch_hits,
                                    read_hits, total_read - read_hits,
                                    0, 0]
    return counts_for


def _grid_exact_walk(ops, line, points):
    """Exact per-point LRU lists for unified grids with write traffic.

    Matches the hierarchy's touch closures bit for bit: fetch/read hits
    and write hits refresh LRU order, misses allocate (fetch/read) or
    do nothing (write-through, no allocate).
    """
    states = [([[] for _ in range(nsets)], nsets, assoc, [0] * 6)
              for assoc, nsets in points]
    for value in ops:
        tag = value & 7
        block = (value >> 3) // line
        if tag == 0 or tag == 7:
            base = 0
        elif tag < 4:
            base = 2
        else:
            base = -1  # write: refresh residents, never allocate
        if base < 0:
            for sets, nsets, _assoc, counts in states:
                ways = sets[block % nsets]
                if block in ways:
                    if ways[0] != block:
                        ways.remove(block)
                        ways.insert(0, block)
                    counts[4] += 1
                else:
                    counts[5] += 1
        else:
            for sets, nsets, assoc, counts in states:
                ways = sets[block % nsets]
                if block in ways:
                    if ways[0] != block:
                        ways.remove(block)
                        ways.insert(0, block)
                    counts[base] += 1
                else:
                    if len(ways) < assoc:
                        ways.insert(0, block)
                    else:
                        ways.pop()
                        ways.insert(0, block)
                    counts[base + 1] += 1
    return [counts for _sets, _nsets, _assoc, counts in states]
