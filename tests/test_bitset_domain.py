"""Packed bitset cache analysis vs. the dict-based reference oracle.

The packed domain (``repro.wcet.cacheanalysis.PackedCacheDomain``) and
the compiled ``CacheAnalysis`` built on it must be observationally
identical to the independent reference in
``repro.testing.cache_oracle`` (dict ``MustCache`` / ``MayCache``
states, interpretive transfers, naive fixpoint).  Three layers of
evidence:

* randomized-trace differential tests: the same operation stream
  (definite/uncertain accesses, no-allocate writes, set and whole-cache
  aging, joins, MAY_TOP) applied to both domains yields the same
  decoded state after *every* step;
* whole-analysis differential tests: ``CacheAnalysis`` and
  ``ReferenceCacheAnalysis`` produce instruction-identical
  classifications on real benchmarks (call-heavy ``adpcm`` with range
  accesses included), single-level and CAC-chained multi-level;
* interning and reuse-cache invariants: hash-consed states are shared
  objects, and the content-addressed reuse cache (memory and disk
  layers) returns results equal to a fresh analysis.
"""

import random

import pytest

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.store import ArtifactStore
from repro.testing.cache_oracle import (
    MayCache,
    MustCache,
    ReferenceCacheAnalysis,
    may_decode,
    must_decode,
    reference_hierarchy,
)
from repro.wcet import CacheAnalysis, PackedCacheDomain, build_all_cfgs
from repro.wcet import cacheanalysis
from repro.wcet.cacheanalysis import _intern, analyze_hierarchy
from repro.wcet.stackdepth import stack_region

CONFIGS = [
    CacheConfig(size=64),                 # direct mapped, 4 sets
    CacheConfig(size=128, assoc=2),       # 2-way, 4 sets
    CacheConfig(size=64, assoc=4),        # 4-way, 1 set
    CacheConfig(size=256, assoc=2),       # 2-way, 8 sets
]


def _random_trace(rng, config, universe, length):
    """A stream of abstract-domain operations over *universe* blocks."""
    ops = []
    for _ in range(length):
        kind = rng.randrange(8)
        if kind <= 2:
            ops.append(("access", rng.choice(universe)))
        elif kind == 3:
            ops.append(("uncertain", rng.choice(universe)))
        elif kind == 4:
            ops.append(("write", rng.choice(universe)))
        elif kind == 5:
            indices = rng.sample(range(config.num_sets),
                                 rng.randrange(1, config.num_sets + 1))
            ops.append(("age_sets", tuple(indices), rng.random() < 0.5))
        elif kind == 6:
            ops.append(("age_all", rng.random() < 0.5))
        else:
            ops.append(("join",))
    return ops


class TestMustDifferential:
    """Random traces: packed MUST states decode to the dict reference."""

    def _apply_dict(self, state, other, op):
        if op[0] == "access":
            state.access_block(op[1])
        elif op[0] == "uncertain":
            state.access_block_uncertain(op[1])
        elif op[0] == "write":
            state.access_block(op[1], allocate=state.contains(op[1]))
        elif op[0] == "age_sets":
            for index in op[1]:
                state.age_set(index, evict=op[2])
        elif op[0] == "age_all":
            for index in list(state.sets):
                state.age_set(index, evict=op[1])
        else:
            state.join_with(other)

    def _apply_packed(self, domain, state, other, op):
        if op[0] == "access":
            return domain.must_access(state, op[1])
        if op[0] == "uncertain":
            return domain.must_access_uncertain(state, op[1])
        if op[0] == "write":
            return domain.must_write(state, op[1])
        if op[0] == "age_sets":
            return domain.must_age_sets(state, op[1], evict=op[2])
        if op[0] == "age_all":
            return domain.must_age_all(state, evict=op[1])
        return domain.must_join(state, other)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, config, seed):
        rng = random.Random(seed * 1000 + config.size + config.assoc)
        universe = list(range(0, 24))
        domain = PackedCacheDomain(config, universe)

        # A second, independently evolved state feeds the joins.
        dict_state, dict_other = MustCache(config), MustCache(config)
        packed_state = packed_other = domain.must_empty()
        for block in rng.sample(universe, 8):
            dict_other.access_block(block)
            packed_other = domain.must_access(packed_other, block)

        for step, op in enumerate(_random_trace(rng, config, universe, 160)):
            self._apply_dict(dict_state, dict_other, op)
            packed_state = self._apply_packed(domain, packed_state,
                                              packed_other, op)
            decoded = must_decode(domain, packed_state)
            assert decoded.fingerprint() == dict_state.fingerprint(), \
                f"seed {seed} {config} diverged at step {step}: {op}"
            for block in universe:
                assert domain.must_contains(packed_state, block) == \
                    dict_state.contains(block)


class TestMayDifferential:
    """Random traces: packed MAY states decode to the dict reference."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, config, seed):
        rng = random.Random(seed * 77 + config.num_sets)
        universe = list(range(0, 24))
        domain = PackedCacheDomain(config, universe)

        dict_state, dict_other = MayCache(config), MayCache(config)
        packed_state = packed_other = domain.may_empty()
        for block in rng.sample(universe, 6):
            dict_other.add_block(block)
            packed_other = domain.may_add(packed_other, block)
        dict_other.mark_top(0)
        packed_other = domain.may_mark_top(packed_other, (0,))

        for step in range(160):
            kind = rng.randrange(6)
            if kind <= 2:
                block = rng.choice(universe)
                dict_state.add_block(block)
                packed_state = domain.may_add(packed_state, block)
            elif kind == 3:
                index = rng.randrange(config.num_sets)
                dict_state.mark_top(index)
                packed_state = domain.may_mark_top(packed_state, (index,))
            elif kind == 4 and rng.random() < 0.2:
                dict_state.mark_all_top()
                packed_state = domain.may_mark_all_top(packed_state)
            else:
                dict_state.join_with(dict_other)
                packed_state = domain.may_join(packed_state, packed_other)
            decoded = may_decode(domain, packed_state)
            assert decoded.fingerprint() == dict_state.fingerprint(), \
                f"seed {seed} {config} diverged at step {step}"
            for block in universe:
                assert domain.may_contains(packed_state, block) == \
                    dict_state.may_contain(block)


# -- whole-analysis differential --------------------------------------------

LOOPY_SOURCE = """
int data[32];
int total;
int main(void) {
    int i;
    int j;
    total = 0;
    for (i = 0; i < 8; i++) {
        #pragma loopbound 32
        for (j = 0; j < 32; j++) { data[j] = data[j] + i; }
        total += data[i];
    }
    return total & 255;
}
"""

PARTIAL_SOURCE = """
int data[8];
int main(void) {
    int i;
    int total;
    total = data[0];
    for (i = 0; i < 8; i++) { total += data[i]; }
    return total & 255;
}
"""


def _frontend(source):
    image = link(compile_source(source).program)
    cfgs = build_all_cfgs(image)
    entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
    rng = stack_region(cfgs, "_start", entry_by_addr)
    return image, cfgs, rng


def _classes_equal(a, b):
    assert set(a.classes) == set(b.classes)
    for addr, entry in a.classes.items():
        assert vars(entry) == vars(b.classes[addr]), hex(addr)


def _bench_frontend(key):
    from repro.benchmarks import get
    return _frontend(get(key).source())


SINGLE_LEVEL_CACHES = [
    CacheConfig(size=64),                  # direct mapped
    CacheConfig(size=256, assoc=2),
    CacheConfig(size=512, assoc=4),
    CacheConfig(size=256, unified=False),  # instruction-only
]

#: (benchmark, cache index): every cache for the loop kernels, and the
#: direct-mapped and 4-way caches for adpcm and multisort, whose calls
#: and array range accesses exercise return edges, set aging and TOP
#: marks.
SINGLE_LEVEL_CASES = ([(key, index) for index in range(4)
                       for key in ("crc", "fir")]
                      + [(key, index) for key in ("adpcm", "multisort")
                         for index in (0, 2)])


class TestAnalysisDifferential:
    @pytest.mark.parametrize("key, cache", [
        pytest.param(key, SINGLE_LEVEL_CACHES[index],
                     id=f"cache{index}-{key}")
        for key, index in SINGLE_LEVEL_CASES])
    def test_single_level(self, key, cache):
        image, cfgs, rng = _bench_frontend(key)
        for persistence in (False, True):
            results = [
                analysis(image, cfgs, cache, rng, "_start",
                         persistence=persistence, always_miss=True).run()
                for analysis in (ReferenceCacheAnalysis, CacheAnalysis)
            ]
            _classes_equal(*results)

    @pytest.mark.parametrize("config", [
        SystemConfig.two_level(CacheConfig(size=64),
                               CacheConfig(size=1024)),
        SystemConfig.two_level(CacheConfig(size=128, assoc=2),
                               CacheConfig(size=2048, assoc=4)),
        SystemConfig.split_l1(CacheConfig(size=128, unified=False),
                              CacheConfig(size=128)),
        SystemConfig.hybrid(256, CacheConfig(size=128)),
    ])
    def test_hierarchy(self, config):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        results = [
            reference_hierarchy(image, cfgs, config, rng, "_start"),
            analyze_hierarchy(image, cfgs, config, rng, "_start",
                              reuse=False),
        ]
        for level_dict, level_packed in zip(results[0].levels,
                                            results[1].levels):
            for a, b in ((level_dict.iresult, level_packed.iresult),
                         (level_dict.dresult, level_packed.dresult)):
                assert (a is None) == (b is None)
                if a is not None:
                    _classes_equal(a, b)

    @pytest.mark.parametrize("cache", [CacheConfig(size=64),
                                       CacheConfig(size=256, assoc=4)])
    def test_partially_resident_range_read(self, cache):
        # data[0] makes one of the array's two lines resident; the
        # indexed read needs both, so it must stay NC (an all-of probe).
        image, cfgs, rng = _frontend(PARTIAL_SOURCE)
        _classes_equal(*(
            analysis(image, cfgs, cache, rng, "_start").run()
            for analysis in (ReferenceCacheAnalysis, CacheAnalysis)))

    @pytest.mark.parametrize("key", ["adpcm", "multisort"])
    @pytest.mark.parametrize("config", [
        SystemConfig.two_level(CacheConfig(size=64),
                               CacheConfig(size=256)),
        SystemConfig.two_level(CacheConfig(size=64),
                               CacheConfig(size=1024)),
        SystemConfig.two_level(CacheConfig(size=128, assoc=2),
                               CacheConfig(size=512, assoc=4)),
    ])
    def test_hierarchy_call_heavy(self, key, config):
        # Conflicting direct-mapped L2s see CAC-U accesses the fused
        # direct-mapped programs must age exactly like the oracle.
        image, cfgs, rng = _bench_frontend(key)
        reference = reference_hierarchy(image, cfgs, config, rng, "_start")
        ours = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                 reuse=False)
        for level_dict, level_packed in zip(reference.levels, ours.levels):
            _classes_equal(level_dict.iresult, level_packed.iresult)


# -- interning and the reuse cache ------------------------------------------

class TestInterning:
    def test_intern_returns_canonical_object(self):
        table = {}
        first = (1, 2, 3)
        assert _intern(table, first) is first
        assert _intern(table, (1, 2, 3)) is first  # distinct but equal
        assert _intern(table, 7) == 7

    def test_analysis_interns_states(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        before = dict(cacheanalysis.COUNTERS)
        result = CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                               "_start").run()
        after = cacheanalysis.COUNTERS
        # A fixpoint revisits nodes whose out-state stabilised: most
        # transfers reproduce an already-interned state.
        assert after["intern_hits"] > before["intern_hits"]
        assert after["intern_misses"] > before["intern_misses"]
        again = CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                              "_start").run()
        _classes_equal(result, again)

    def test_shared_tables_share_states_across_analyses(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        tables = ({}, {})
        for _ in range(2):
            CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                          "_start", intern_tables=tables).run()
        must_table = tables[0]
        assert must_table
        for state, canonical in must_table.items():
            assert state is canonical


class TestReuseCache:
    def _hierarchy(self, image, cfgs, rng, config):
        return analyze_hierarchy(image, cfgs, config, rng, "_start")

    def test_memory_layer_hits(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=1024))
        cacheanalysis.clear_analysis_caches()
        before = cacheanalysis.REUSE.counters()
        first = self._hierarchy(image, cfgs, rng, config)
        mid = cacheanalysis.REUSE.counters()
        assert mid["reuse_misses"] - before["reuse_misses"] == 2  # L1 + L2
        second = self._hierarchy(image, cfgs, rng, config)
        after = cacheanalysis.REUSE.counters()
        assert after["reuse_hits"] - mid["reuse_hits"] == 2
        # Cache hits return the very same result objects.
        assert second.levels[0].iresult is first.levels[0].iresult
        assert second.levels[1].iresult is first.levels[1].iresult

    def test_l1_reused_across_l2_sweep(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        cacheanalysis.clear_analysis_caches()
        l1 = CacheConfig(size=64)
        results = [
            self._hierarchy(image, cfgs, rng,
                            SystemConfig.two_level(l1, CacheConfig(size=size)))
            for size in (512, 1024, 2048)
        ]
        # The outermost (L1) analysis is one shared object everywhere:
        # only the L2 fixpoints ran per sweep point.
        assert results[1].levels[0].iresult is results[0].levels[0].iresult
        assert results[2].levels[0].iresult is results[0].levels[0].iresult

    def test_disk_layer_round_trip(self, tmp_path, monkeypatch):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        config = SystemConfig.cached(CacheConfig(size=128))
        monkeypatch.setattr(cacheanalysis.REUSE, "store",
                            ArtifactStore(tmp_path))
        try:
            cacheanalysis.clear_analysis_caches()
            first = self._hierarchy(image, cfgs, rng, config)
            assert list(tmp_path.rglob("*.pkl"))  # sharded store layout
            # A "new process": empty memory layer, same directory.
            cacheanalysis.clear_analysis_caches()
            before = cacheanalysis.REUSE.counters()
            second = self._hierarchy(image, cfgs, rng, config)
            after = cacheanalysis.REUSE.counters()
            assert after["reuse_disk_hits"] > before["reuse_disk_hits"]
            _classes_equal(first.primary, second.primary)
        finally:
            cacheanalysis.clear_analysis_caches()

    def test_content_key_tracks_image_content(self):
        image_a, _, _ = _frontend(LOOPY_SOURCE)
        image_b, _, _ = _frontend(LOOPY_SOURCE)
        image_c, _, _ = _frontend(LOOPY_SOURCE.replace("i < 8", "i < 7"))
        assert image_a.content_key() == image_b.content_key()
        assert image_a.content_key() != image_c.content_key()
