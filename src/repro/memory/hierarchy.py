"""System configurations and the simulator-facing memory hierarchy.

A :class:`SystemConfig` is one point in the design space.  The paper's
own three systems keep their dedicated constructors:

* ``SystemConfig.scratchpad(n)`` — *n* bytes of SPM plus main memory
  (the paper's left branch, Figure 1);
* ``SystemConfig.cached(cfg)`` — main memory behind a unified cache
  (the right branch);
* ``SystemConfig.uncached()`` — main memory only (baseline / 0-byte SPM).

Beyond the paper, a config is an ordered **level pipeline**
(:mod:`repro.memory.levels`): an optional SPM region, any number of
cache levels (unified, instruction-only, or split I/D), then main
memory.  The future-work shapes get constructors too:

* ``SystemConfig.hybrid(spm, cache)`` — SPM with a cache behind it;
* ``SystemConfig.two_level(l1, l2)`` — an L2 behind the L1;
* ``SystemConfig.split_l1(icache, dcache)`` — separate I/D caches;
* ``SystemConfig.with_levels(name, levels)`` — anything else.

:class:`MemoryHierarchy` turns a config into a stateful cycle model:
the oracle interpreter queries it once per access, and every query
returns an explicit :class:`~repro.memory.levels.Access` outcome
(cycles, hit/miss, serving level); the scalar replay walks drive the
same tag arrays through its touch closures.  The WCET analyser walks the *same* level specs and the same
:func:`~repro.memory.levels.serve_costs` table, so simulation and
analysis share one machine model by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache, CacheConfig, ReplacementPolicy
from .levels import (
    Access,
    CacheLevel,
    MainMemoryLevel,
    SpmLevel,
    cache_levels,
    data_path,
    fetch_path,
    level_labels,
    path_geometry,
    serve_costs,
    spm_level,
    validate_levels,
)
from .regions import MemoryMap, RegionKind
from .timing import AccessTiming


@dataclass(frozen=True)
class SystemConfig:
    """One memory-hierarchy configuration under study.

    ``levels`` is the authoritative description.  When it is omitted the
    legacy fields build the paper's shapes (and combining ``spm_size``
    with ``cache`` is rejected, exactly as before — hybrids must be
    spelled out via :meth:`hybrid` or ``levels``).  When ``levels`` is
    given, ``spm_size`` and ``cache`` are derived mirrors: the SPM
    capacity and the outermost cache config on the fetch (else data)
    path, kept so existing reporting code reads naturally.
    """

    name: str
    spm_size: int = 0
    cache: Optional[CacheConfig] = None
    timing: AccessTiming = AccessTiming.table1()
    levels: tuple = None

    def __post_init__(self):
        if self.levels is None:
            if self.spm_size and self.cache is not None:
                raise ValueError(
                    "the paper's systems have either a scratchpad or a "
                    "cache; build hybrids with SystemConfig.hybrid() or "
                    "an explicit level pipeline")
            derived = []
            if self.spm_size:
                derived.append(SpmLevel(self.spm_size))
            if self.cache is not None:
                if self.cache.unified:
                    derived.append(CacheLevel.unified(self.cache))
                else:
                    derived.append(CacheLevel.instruction(self.cache))
            derived.append(MainMemoryLevel())
            object.__setattr__(self, "levels", tuple(derived))
        else:
            levels = tuple(self.levels)
            validate_levels(levels)
            object.__setattr__(self, "levels", levels)
            spm = spm_level(levels)
            object.__setattr__(self, "spm_size", spm.size if spm else 0)
            caches = cache_levels(levels)
            primary = None
            if caches:
                primary = caches[0].icache or caches[0].dcache
            object.__setattr__(self, "cache", primary)

    # -- the paper's systems -------------------------------------------------

    @classmethod
    def scratchpad(cls, spm_size: int, timing=None) -> "SystemConfig":
        return cls(name=f"spm{spm_size}", spm_size=spm_size,
                   timing=timing or AccessTiming.table1())

    @classmethod
    def cached(cls, cache: CacheConfig, timing=None) -> "SystemConfig":
        return cls(name=f"cache{cache.size}", cache=cache,
                   timing=timing or AccessTiming.table1())

    @classmethod
    def uncached(cls, timing=None) -> "SystemConfig":
        return cls(name="uncached", timing=timing or AccessTiming.table1())

    # -- deeper pipelines (the future-work shapes) ---------------------------

    @classmethod
    def with_levels(cls, name: str, levels, timing=None) -> "SystemConfig":
        return cls(name=name, levels=tuple(levels),
                   timing=timing or AccessTiming.table1())

    @classmethod
    def hybrid(cls, spm_size: int, cache: CacheConfig,
               timing=None) -> "SystemConfig":
        """Scratchpad in front, a cache behind it for the rest."""
        level = (CacheLevel.unified(cache) if cache.unified
                 else CacheLevel.instruction(cache))
        return cls.with_levels(
            f"spm{spm_size}+cache{cache.size}",
            (SpmLevel(spm_size), level, MainMemoryLevel()), timing)

    @classmethod
    def two_level(cls, l1: CacheConfig, l2: CacheConfig, timing=None,
                  l2_hit_cycles: int = None) -> "SystemConfig":
        """L1 (unified or instruction-only) backed by a unified L2."""
        first = (CacheLevel.unified(l1) if l1.unified
                 else CacheLevel.instruction(l1))
        kwargs = {}
        if l2_hit_cycles is not None:
            kwargs["hit_cycles"] = l2_hit_cycles
        second = CacheLevel.unified(l2, name="L2", **kwargs)
        prefix = "cache" if l1.unified else "icache"
        return cls.with_levels(
            f"{prefix}{l1.size}+l2-{l2.size}",
            (first, second, MainMemoryLevel()), timing)

    @classmethod
    def split_l1(cls, icache: CacheConfig, dcache: CacheConfig,
                 timing=None) -> "SystemConfig":
        """Separate L1 instruction and data caches."""
        return cls.with_levels(
            f"i{icache.size}+d{dcache.size}",
            (CacheLevel.split(icache, dcache), MainMemoryLevel()), timing)

    # -- views ---------------------------------------------------------------

    @property
    def cache_level_specs(self):
        return cache_levels(self.levels)

    @property
    def has_cache(self) -> bool:
        return bool(self.cache_level_specs)

    def fetch_path(self):
        return fetch_path(self.levels)

    def data_path(self):
        return data_path(self.levels)

    def memory_map(self) -> MemoryMap:
        if self.spm_size:
            return MemoryMap.with_spm(self.spm_size)
        return MemoryMap.main_only()

    def describe(self) -> str:
        parts = []
        for level in self.levels:
            if isinstance(level, SpmLevel):
                parts.append(f"{level.size} B scratchpad")
            elif isinstance(level, CacheLevel):
                parts.append(level.describe())
        parts.append("main memory")
        if len(parts) == 1:
            return "main memory only"
        return " + ".join(parts)


class MemoryHierarchy:
    """Stateful per-access cycle model (the oracle's, and replay's tags).

    Each cache level gets its own tag array (one shared array for a
    unified level, two for split I/D).  An access walks its path
    outermost-in until some level hits (or main memory serves it) and
    returns a precomputed :class:`Access` outcome whose cycle count
    comes from :func:`~repro.memory.levels.serve_costs` — the very table
    the WCET cost model prices misses with.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.memory_map = config.memory_map()
        self.timing = config.timing
        self._spm = self.memory_map.spm_region

        # Physical caches: one per unified level, two per split level.
        self.caches = {}  # display name -> Cache
        self._fetch_chain = []  # [(Cache, level name)]
        self._data_chain = []
        for level in config.cache_level_specs:
            labels = iter(level_labels(level))
            if level.shared:
                cache = Cache(level.icache)
                self.caches[next(labels)] = cache
                self._fetch_chain.append(cache)
                self._data_chain.append(cache)
                continue
            if level.icache is not None:
                cache = Cache(level.icache)
                self.caches[next(labels)] = cache
                self._fetch_chain.append(cache)
            if level.dcache is not None:
                cache = Cache(level.dcache)
                self.caches[next(labels)] = cache
                self._data_chain.append(cache)

        # Legacy single-cache view (simulator flags, cache_stats).
        self.cache = next(iter(self.caches.values()), None)

        timing = self.timing
        fetch_levels = config.fetch_path()
        data_levels = config.data_path()
        fetch_serve = serve_costs(path_geometry(fetch_levels, "i"), timing)
        data_serve = serve_costs(path_geometry(data_levels, "d"), timing)

        def outcomes(path_levels, serve):
            out = []
            for idx, cost in enumerate(serve):
                if idx < len(path_levels):
                    served = path_levels[idx].name
                else:
                    served = "main"
                out.append(Access(cost, idx > 0, served))
            return out

        self._fetch_out = outcomes(fetch_levels, fetch_serve)
        self._data_out = outcomes(data_levels, data_serve)
        spm_kind, main_kind = RegionKind.SPM, RegionKind.MAIN
        self._spm_out = {
            width: Access(timing.cycles(spm_kind, width), False, "spm")
            for width in (1, 2, 4)}
        self._main_out = {
            width: Access(timing.cycles(main_kind, width), False, "main")
            for width in (1, 2, 4)}

    def reset(self):
        for cache in self.caches.values():
            cache.reset()

    # -- access outcomes -----------------------------------------------------

    def fetch(self, addr: int) -> Access:
        """Outcome of a 16-bit instruction fetch at *addr*."""
        spm = self._spm
        if spm is not None and spm.contains(addr):
            return self._spm_out[2]
        chain = self._fetch_chain
        if not chain:
            return self._main_out[2]
        for idx, cache in enumerate(chain):
            if cache.fetch(addr):
                return self._fetch_out[idx]
        return self._fetch_out[len(chain)]

    def read(self, addr: int, width: int) -> Access:
        """Outcome of a data read of *width* bytes at *addr*."""
        spm = self._spm
        if spm is not None and spm.contains(addr):
            return self._spm_out[width]
        chain = self._data_chain
        if not chain:
            return self._main_out[width]
        for idx, cache in enumerate(chain):
            if cache.read(addr):
                return self._data_out[idx]
        return self._data_out[len(chain)]

    def write(self, addr: int, width: int) -> Access:
        """Outcome of a data write of *width* bytes at *addr*.

        Write-through, no allocate, at every level: the store pays the
        main-memory cost for its width; each level on the data path
        keeps its tags informed so resident lines stay warm.
        """
        spm = self._spm
        if spm is not None and spm.contains(addr):
            return self._spm_out[width]
        for cache in self._data_chain:
            cache.write(addr)
        return self._main_out[width]

    # -- legacy cycle-count helpers ------------------------------------------

    def fetch_cycles(self, addr: int) -> int:
        """Cycles for a 16-bit instruction fetch at *addr*."""
        return self.fetch(addr).cycles

    def read_cycles(self, addr: int, width: int) -> int:
        """Cycles for a data read of *width* bytes at *addr*."""
        return self.read(addr, width).cycles

    def write_cycles(self, addr: int, width: int) -> int:
        """Cycles for a data write of *width* bytes at *addr*."""
        return self.write(addr, width).cycles

    # -- replay touch closures ------------------------------------------------
    #
    # The allocating accessors above return an Access object per query —
    # right for the oracle interpreter, far too slow for replaying whole
    # traces.  The scalar replay walks (:mod:`repro.sim.replay`) build
    # these per-cache closures instead: they update the flat per-set tag
    # lists and each cache's ``fast_counts`` rather than its CacheStats
    # (call :meth:`flush_fast_stats` when a walk finishes).  Tag-array
    # behaviour is bit-identical to Cache.fetch/read/write.

    def _make_touch(self, cache: Cache, base: int):
        """``touch(block, index) -> hit`` matching ``Cache._touch`` with
        ``allocate=True``; *base* indexes the hit counter (miss is
        ``base + 1``)."""
        config = cache.config
        sets = cache.sets
        counts = cache.fast_counts
        assoc = config.assoc
        lru = config.replacement == ReplacementPolicy.LRU
        rnd = config.replacement == ReplacementPolicy.RANDOM
        hit_i, miss_i = base, base + 1
        if assoc == 1:
            def touch(block, index):
                ways = sets[index]
                if ways and ways[0] == block:
                    counts[hit_i] += 1
                    return True
                if ways:
                    ways[0] = block
                else:
                    ways.append(block)
                counts[miss_i] += 1
                return False
        else:
            def touch(block, index):
                ways = sets[index]
                if block in ways:
                    if lru and ways[0] != block:
                        ways.remove(block)
                        ways.insert(0, block)
                    counts[hit_i] += 1
                    return True
                if len(ways) < assoc:
                    ways.insert(0, block)
                elif rnd:
                    ways[cache._next_victim(assoc)] = block
                else:  # LRU and FIFO both evict the tail
                    ways.pop()
                    ways.insert(0, block)
                counts[miss_i] += 1
                return False
        return touch

    def _make_write_touch(self, cache: Cache):
        """``touch(block, index)`` matching ``Cache.write`` (write-
        through, no allocate): refresh a resident line, count the rest."""
        sets = cache.sets
        counts = cache.fast_counts
        lru = cache.config.replacement == ReplacementPolicy.LRU

        def touch(block, index):
            ways = sets[index]
            if block in ways:
                if lru and ways[0] != block:
                    ways.remove(block)
                    ways.insert(0, block)
                counts[4] += 1
            else:
                counts[5] += 1
        return touch

    def flush_fast_stats(self):
        """Fold every cache's touch-closure counters into its CacheStats."""
        for cache in self.caches.values():
            cache.flush_fast_counts()

    # -- statistics ----------------------------------------------------------

    @property
    def cache_stats(self):
        """Stats of the outermost cache (the paper's single-cache view)."""
        return self.cache.stats if self.cache else None

    @property
    def level_stats(self):
        """Hit/miss counters for every physical cache, by level name."""
        return {name: cache.stats for name, cache in self.caches.items()}
