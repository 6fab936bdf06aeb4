"""The reference cache analysis the packed fast path is tested against.

:mod:`repro.wcet.cacheanalysis` compiles every basic block into packed
bitset programs and solves them with an RPO worklist over hash-consed
states.  This module is its one independent oracle: the same
Ferdinand-style MUST/MAY semantics written as plain per-set dicts
(:class:`MustCache`, :class:`MayCache`) and applied instruction by
instruction, iterated naively — sweep every node until no in-state
changes, no RPO heap, no out-state memo, no interning, no compiled
programs.  It shares with the fast path only the per-address data
access plans, the interprocedural successor map, the CAC chaining
between levels and the persistence pass, so a differential between
the two checks the compiled programs, the fused direct-mapped
encoding, the probes and the worklist driver.

:func:`must_decode` / :func:`may_decode` expand packed states to the
dict form for state-level differentials; :func:`reference_hierarchy`
mirrors :func:`repro.wcet.cacheanalysis.analyze_hierarchy` without its
reuse cache.
"""

from __future__ import annotations

from ..memory.cache import CacheConfig
from ..wcet.accesses import resolve_all
from ..wcet.cacheanalysis import (
    AH,
    NC,
    AccessClass,
    CacheAnalysis,
    CacheAnalysisResult,
    HierarchyCacheResult,
    LevelClassification,
    _chain_cac,
)


class MustCache:
    """Per-set ``block -> max age`` maps; absence means "not guaranteed"."""

    __slots__ = ("config", "sets")

    def __init__(self, config: CacheConfig, sets=None):
        self.config = config
        self.sets = sets if sets is not None else {}

    def copy(self) -> "MustCache":
        return MustCache(self.config,
                         {s: dict(ages) for s, ages in self.sets.items()})

    def __eq__(self, other):
        return self.sets == other.sets

    def fingerprint(self):
        """Hashable snapshot of the abstract state."""
        return tuple(sorted(
            (index, tuple(sorted(ages.items())))
            for index, ages in self.sets.items() if ages))

    # -- transfer -----------------------------------------------------------

    def _age_younger(self, ages, block: int, threshold: int):
        """Age (and evict past assoc) every block younger than
        *threshold*, except *block* itself — the LRU aging both the
        definite and the uncertain transfer share."""
        for other, age in list(ages.items()):
            if other != block and age < threshold:
                new_age = age + 1
                if new_age >= self.config.assoc:
                    del ages[other]
                else:
                    ages[other] = new_age

    def access_block(self, block: int, allocate=True):
        """A definite access to *block* (read, or write hit refresh)."""
        config = self.config
        index = (block % config.num_sets)
        ages = self.sets.get(index)
        if ages is None:
            if not allocate:
                return
            ages = self.sets[index] = {}
        old_age = ages.get(block)
        if old_age is None:
            if not allocate:
                # Write miss, no allocation: recency may shift arbitrarily
                # among resident blocks -> age everyone, no eviction.
                for other in ages:
                    ages[other] = min(ages[other] + 1, config.assoc - 1)
                return
            threshold = config.assoc  # everyone ages
        else:
            threshold = old_age
        self._age_younger(ages, block, threshold)
        ages[block] = 0

    def access_block_uncertain(self, block: int):
        """A read of *block* that may or may not occur (CAC ``U``).

        Equivalent to ``join(state after access, state unchanged)`` but
        computed in place: the accessed block never gains residency or
        youth, every other block ages as the definite access would have
        aged it.  Sound whichever way the uncertainty resolves.  (Writes
        never take this path — write-through stores reach every level
        definitely.)
        """
        index = block % self.config.num_sets
        ages = self.sets.get(index)
        if not ages:
            return
        old_age = ages.get(block)
        threshold = self.config.assoc if old_age is None else old_age
        self._age_younger(ages, block, threshold)
        if not ages:
            del self.sets[index]

    def age_set(self, index: int, evict=True):
        """An unknown access may touch set *index*: age everything."""
        ages = self.sets.get(index)
        if not ages:
            return
        for block, age in list(ages.items()):
            new_age = age + 1
            if evict and new_age >= self.config.assoc:
                del ages[block]
            else:
                ages[block] = min(new_age, self.config.assoc - 1)
        if not ages:
            del self.sets[index]

    def contains(self, block: int) -> bool:
        index = block % self.config.num_sets
        return block in self.sets.get(index, ())

    def join_with(self, other: "MustCache") -> bool:
        """In-place must-join (intersection, max age); True if changed."""
        changed = False
        for index in list(self.sets):
            ages = self.sets[index]
            other_ages = other.sets.get(index, {})
            for block in list(ages):
                if block not in other_ages:
                    del ages[block]
                    changed = True
                elif other_ages[block] > ages[block]:
                    ages[block] = other_ages[block]
                    changed = True
            if not ages:
                del self.sets[index]
        return changed


#: Sentinel: a MayCache set that may contain *any* block.
MAY_TOP = "may-top"


class MayCache:
    """Per-set overapproximation of possibly-resident blocks.

    Deliberately coarse: blocks are never evicted (the set only grows),
    so membership is monotone and the fixpoint converges in a couple of
    sweeps.  A block *absent* from the may-state is guaranteed not
    resident — its access is **always-miss**, which is what licenses a
    CAC of ``A`` at the next level down (Hardy & Puaut).  Range and
    unknown accesses may load any block of their sets, modelled by the
    :data:`MAY_TOP` sentinel.
    """

    __slots__ = ("config", "sets")

    def __init__(self, config: CacheConfig, sets=None):
        self.config = config
        self.sets = sets if sets is not None else {}

    def copy(self) -> "MayCache":
        return MayCache(self.config,
                        {s: (blocks if blocks is MAY_TOP else set(blocks))
                         for s, blocks in self.sets.items()})

    def fingerprint(self):
        """Hashable snapshot (see :meth:`MustCache.fingerprint`)."""
        return tuple(sorted(
            (index, MAY_TOP if blocks is MAY_TOP
             else tuple(sorted(blocks)))
            for index, blocks in self.sets.items() if blocks))

    def add_block(self, block: int):
        index = block % self.config.num_sets
        blocks = self.sets.get(index)
        if blocks is MAY_TOP:
            return
        if blocks is None:
            self.sets[index] = {block}
        else:
            blocks.add(block)

    def mark_top(self, index: int):
        self.sets[index] = MAY_TOP

    def mark_all_top(self):
        for index in range(self.config.num_sets):
            self.sets[index] = MAY_TOP

    def may_contain(self, block: int) -> bool:
        blocks = self.sets.get(block % self.config.num_sets)
        return blocks is MAY_TOP or (blocks is not None and block in blocks)

    def join_with(self, other: "MayCache") -> bool:
        """In-place may-join (union); True if changed."""
        changed = False
        for index, theirs in other.sets.items():
            mine = self.sets.get(index)
            if mine is MAY_TOP:
                continue
            if theirs is MAY_TOP:
                self.sets[index] = MAY_TOP
                changed = True
            elif mine is None:
                self.sets[index] = set(theirs)
                changed = True
            elif not theirs <= mine:
                mine |= theirs
                changed = True
        return changed


# -- decoding packed states -------------------------------------------------

def _blocks_of(domain, mask):
    """Universe blocks whose bits are set in *mask*, lowest bit first."""
    block_of_bit = {bit: block for block, bit in domain.bit.items()}
    while mask:
        low = mask & -mask
        mask ^= low
        yield block_of_bit[low]


def must_decode(domain, state) -> MustCache:
    """Expand a packed MUST state of *domain* to the dict form."""
    sets = {}
    num_sets = domain.config.num_sets
    for block in _blocks_of(domain, state[domain.assoc - 1]):
        bit = domain.bit[block]
        age = 0
        while not state[age] & bit:
            age += 1
        sets.setdefault(block % num_sets, {})[block] = age
    return MustCache(domain.config, sets)


def may_decode(domain, state) -> MayCache:
    """Expand a packed MAY state of *domain* to the dict form."""
    blocks, top = state
    num_sets = domain.config.num_sets
    sets = {index: MAY_TOP for index in range(num_sets) if top >> index & 1}
    for block in _blocks_of(domain, blocks):
        index = block % num_sets
        if sets.get(index) is not MAY_TOP:
            sets.setdefault(index, set()).add(block)
    return MayCache(domain.config, sets)


# -- the reference analysis -------------------------------------------------

class ReferenceCacheAnalysis(CacheAnalysis):
    """:class:`~repro.wcet.cacheanalysis.CacheAnalysis` over the dict
    domain: same constructor, interpretive transfers, naive fixpoint."""

    def _apply_plan(self, state: MustCache, plan, addr):
        if plan is None:
            return
        kind = plan[0]
        if kind == "rblock":
            # Reads respect the CAC: an access settled by the level in
            # front never reaches these tags, an uncertain one joins.
            cac = self._data_cac_for(addr)
            if cac == "N":
                return
            _kind, block, count = plan
            for _ in range(count):
                if cac == "A":
                    state.access_block(block)
                else:
                    state.access_block_uncertain(block)
        elif kind == "wblock":
            # Writes are write-through: they touch every level's tags.
            state.access_block(plan[1], allocate=state.contains(plan[1]))
        else:
            if kind == "sets":
                _kind, sets, evict, count = plan
            else:  # allsets
                _kind, evict, count = plan
                sets = None
            if evict and self._data_cac_for(addr) == "N":
                return
            for _ in range(count):
                for index in (list(state.sets) if sets is None else sets):
                    state.age_set(index, evict=evict)

    def _fetched(self, addr, instr):
        """(fetch CAC, blocks the fetch at *addr* reaches at this level)."""
        if not self.serves_fetch or addr < self.spm_size:
            return "N", ()
        cac = "A" if self.fetch_cac is None else self.fetch_cac.get(addr, "U")
        if cac == "N":
            return cac, ()
        block_of = self.config.block_of
        if instr.size == 4 and block_of(addr + 2) != block_of(addr):
            return cac, (block_of(addr), block_of(addr + 2))
        return cac, (block_of(addr),)

    def _transfer_must(self, state: MustCache, block, classify=None):
        """Apply one basic block's accesses to *state* (in place)."""
        for addr, instr in block.instrs:
            cac, fetched = self._fetched(addr, instr)
            for half, target in enumerate(fetched):
                if classify is not None:
                    hit = state.contains(target)
                    if not half:
                        classify(addr, "fetch", hit)
                    elif not hit:  # both halves must hit for an AH fetch
                        classify(addr, "fetch", False)
                if cac == "A":
                    state.access_block(target)
                else:
                    state.access_block_uncertain(target)
            if self.serves_data:
                needed = self._read_blocks[addr]
                if classify is not None and needed is not None:
                    classify(addr, "data",
                             all(state.contains(b) for b in needed))
                self._apply_plan(state, self._plan[addr], addr)

    def _transfer_may(self, state: MayCache, block, classify=None):
        """Apply one basic block's accesses to a may-state (in place).

        With *classify*, records whether each CAC-``A`` access targets
        only blocks provably absent — an **always-miss**, i.e. an access
        that is Always performed at the next level down.
        """
        for addr, instr in block.instrs:
            cac, fetched = self._fetched(addr, instr)
            if classify is not None and fetched and cac == "A":
                classify(addr, "fetch",
                         not any(state.may_contain(b) for b in fetched))
            for target in fetched:
                state.add_block(target)
            plan = self._plan[addr] if self.serves_data else None
            if plan is None:
                continue
            kind = plan[0]
            cac = self._data_cac_for(addr)
            if kind == "rblock" and cac != "N":
                _kind, target, count = plan
                if classify is not None and cac == "A" and count == 1:
                    classify(addr, "data", not state.may_contain(target))
                state.add_block(target)
            elif kind == "sets" and plan[2] and cac != "N":
                for index in plan[1]:
                    state.mark_top(index)
            elif kind == "allsets" and plan[1] and cac != "N":
                state.mark_all_top()
            # wblock: write-through, no allocate — never inserts.

    def _fixpoint(self, entry_state, transfer):
        """Sweep every node in CFG order until no in-state changes.

        The transfers are monotone and both lattices finite, so any
        visiting order reaches the fixpoint the fast path's RPO
        worklist reaches.
        """
        succs = self._interproc_succs()
        nodes = [((name, baddr), block)
                 for name, cfg in self.cfgs.items()
                 for baddr, block in cfg.blocks.items()]
        in_states = {(self.entry_name,
                      self.cfgs[self.entry_name].entry): entry_state}
        changed = True
        while changed:
            changed = False
            for node, block in nodes:
                if node not in in_states:
                    continue
                out = in_states[node].copy()
                transfer(out, block)
                for succ in succs.get(node, ()):
                    if succ not in in_states:
                        in_states[succ] = out.copy()
                        changed = True
                    elif in_states[succ].join_with(out):
                        changed = True
        return in_states, nodes

    def run(self) -> CacheAnalysisResult:
        result = CacheAnalysisResult(config=self.config)
        classes = result.classes

        def classify(addr, what, hit):
            entry = classes.setdefault(addr, AccessClass())
            if what == "fetch":
                entry.fetch = AH if hit else NC
            else:
                entry.data = AH if hit else NC

        def classify_am(addr, what, miss):
            entry = classes.setdefault(addr, AccessClass())
            if what == "fetch":
                entry.fetch_always_miss = miss
            else:
                entry.data_always_miss = miss

        passes = [(MustCache, self._transfer_must, classify)]
        if self.always_miss:
            passes.append((MayCache, self._transfer_may, classify_am))
        for domain, transfer, record in passes:
            in_states, nodes = self._fixpoint(domain(self.config), transfer)
            for node, block in nodes:
                if node in in_states:
                    transfer(in_states[node].copy(), block, record)
        if self.persistence:
            self._apply_persistence(result)
        return result


def reference_hierarchy(image, cfgs, config, stack_range, entry_name,
                        persistence=False) -> HierarchyCacheResult:
    """Every cache level of *config* classified by the reference analysis.

    The level rules of Hardy & Puaut's CAC chaining, written out once
    more: persistence at the outermost instruction side only, MAY facts
    wherever a deeper level follows.
    """
    accesses = resolve_all(image, cfgs, stack_range)
    specs = config.cache_level_specs
    out = HierarchyCacheResult()
    fetch_cac = data_cac = None
    for depth, level in enumerate(specs):
        def run(cache, **kwargs):
            return ReferenceCacheAnalysis(
                image, cfgs, cache, stack_range, entry_name,
                spm_size=config.spm_size, always_miss=depth + 1 < len(specs),
                resolved_accesses=accesses, **kwargs).run()

        persist = persistence and depth == 0
        iresult = dresult = None
        if level.shared:
            iresult = dresult = run(
                level.icache, persistence=persist, serves_fetch=True,
                serves_data=True, fetch_cac=fetch_cac, data_cac=data_cac)
        else:
            if level.icache is not None:
                iresult = run(level.icache, persistence=persist,
                              serves_fetch=True, serves_data=False,
                              fetch_cac=fetch_cac)
            if level.dcache is not None:
                dresult = run(level.dcache, serves_fetch=False,
                              serves_data=True, data_cac=data_cac)
        out.levels.append(LevelClassification(
            level=level, iresult=iresult, dresult=dresult))
        if iresult is not None:
            fetch_cac = _chain_cac(fetch_cac, iresult, accesses, "fetch")
        if dresult is not None:
            data_cac = _chain_cac(data_cac, dresult, accesses, "data")
    return out
