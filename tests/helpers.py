"""Shared test helpers: compile-and-run mini-C snippets, plus the
registered benchmarks' images and memoised oracle runs that the
executor differentials share."""

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate, simulate_oracle


def run_main(source, config=None, spm_objects=(), spm_size=0, **sim_kwargs):
    """Compile *source*, run ``main`` and return the SimResult."""
    compiled = compile_source(source)
    image = link(compiled.program, spm_size=spm_size,
                 spm_objects=spm_objects)
    return simulate(image, config or SystemConfig.uncached(), **sim_kwargs)


def returns(source, **kwargs):
    """Exit code of running *source* (i.e. main's return value & 0xff...)."""
    return run_main(source, **kwargs).exit_code


def expr_value(expression, prelude=""):
    """Evaluate a mini-C int expression via compile+simulate.

    The value is printed through the console to preserve all 32 bits.
    """
    source = f"""
    {prelude}
    int main(void) {{
        __print_int({expression});
        return 0;
    }}
    """
    result = run_main(source)
    return int(result.console[0])


# -- the suite differentials' images and oracle runs -------------------------

#: Scratchpad capacity of the suite's SPM images.
SPM_SIZE = 512

#: Every committed hierarchy shape; the non-LRU policies exercise the
#: generic replay walk.
SHAPES = {
    "uncached": lambda: SystemConfig.uncached(),
    "spm": lambda: SystemConfig.scratchpad(SPM_SIZE),
    "l1": lambda: SystemConfig.cached(CacheConfig(size=512)),
    "l1-2way": lambda: SystemConfig.cached(CacheConfig(size=512, assoc=2)),
    "l1-fifo": lambda: SystemConfig.cached(
        CacheConfig(size=512, assoc=2, replacement="fifo")),
    "l1-random": lambda: SystemConfig.cached(
        CacheConfig(size=512, assoc=4, replacement="random")),
    "icache": lambda: SystemConfig.cached(
        CacheConfig(size=512, unified=False)),
    "hybrid": lambda: SystemConfig.hybrid(SPM_SIZE, CacheConfig(size=256)),
    "l1+l2": lambda: SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=1024)),
    "split-i/d": lambda: SystemConfig.split_l1(
        CacheConfig(size=256, unified=False), CacheConfig(size=256)),
}

_PROGRAMS = {}
_IMAGES = {}
_ORACLE = {}


def suite_program(bench):
    if bench not in _PROGRAMS:
        _PROGRAMS[bench] = compile_source(get(bench).source()).program
    return _PROGRAMS[bench]


def greedy_spm_objects(program, spm_size):
    """Smallest objects first until *spm_size* bytes are full (no LP)."""
    chosen, used = [], 0
    for name, _kind, size in sorted(program.memory_objects(),
                                    key=lambda o: (o[2], o[0])):
        aligned = (size + 3) & ~3
        if used + aligned <= spm_size:
            chosen.append(name)
            used += aligned
    return chosen


def suite_image(bench, spm: bool):
    """Linked image; with *spm*, smallest objects fill the scratchpad."""
    key = (bench, spm)
    if key not in _IMAGES:
        program = suite_program(bench)
        if not spm:
            _IMAGES[key] = link(program)
        else:
            _IMAGES[key] = link(program, spm_size=SPM_SIZE,
                                spm_objects=greedy_spm_objects(
                                    program, SPM_SIZE))
    return _IMAGES[key]


def oracle(bench, shape):
    """The oracle interpreter's run of *bench* under *shape*, with
    profile and per-pc miss counters; memoised for the whole pytest run,
    so every differential module shares one run per pair."""
    key = (bench, shape)
    if key not in _ORACLE:
        config = SHAPES[shape]()
        image = suite_image(bench, spm=bool(config.spm_size))
        _ORACLE[key] = simulate_oracle(image, config, profile=True,
                                       record_misses=True)
    return _ORACLE[key]


def stats_tuple(stats):
    if stats is None:
        return None
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


def assert_same_result(result, reference, context):
    """Cycles, instructions, exit, console and every level's stats."""
    assert result.cycles == reference.cycles, context
    assert result.instructions == reference.instructions, context
    assert result.exit_code == reference.exit_code, context
    assert result.console == reference.console, context
    assert stats_tuple(result.cache_stats) == \
        stats_tuple(reference.cache_stats), context
    assert set(result.level_stats) == set(reference.level_stats), context
    for level in reference.level_stats:
        assert stats_tuple(result.level_stats[level]) == \
            stats_tuple(reference.level_stats[level]), (context, level)
