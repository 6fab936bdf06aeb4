"""Soundness harness: one generated program through the whole stack.

This is the machinery behind the fuzzing tiers (``pytest -m fuzz`` and
``repro-gen --check``).  For a generated program it checks, in order of
increasing depth:

1. **self-check** — the program compiles, links, runs on the execution
   engine and reaches its own embedded checksum comparison: exit code
   42 and the console the reference evaluator predicted.  Catches
   codegen/linker/engine semantic breaks;
2. **executor differentials** — record + replay reproduces the
   oracle interpreter (:func:`repro.sim.simulate_oracle`) bit for bit
   (cycles, instructions, exit, console, per-level stats) on every
   hierarchy shape, and with ``misses=True`` down to per-pc fetch-miss
   attribution (:func:`repro.sim.replay.replay_misses`); for an SPM
   placement (:func:`check_spm_placement`) the *relocated* baseline
   recording (:func:`repro.sim.trace.relocate`) must reproduce the
   oracle run of the placed image, pure SPM and with a cache behind;
3. **WCET soundness** — the static bound dominates the simulated cycle
   count on every shape (the paper's core invariant);
4. **abstract-domain differential** — with ``domains=True`` the compiled
   packed-bitset cache analysis and the independent dict-based oracle
   (:func:`repro.testing.cache_oracle.reference_hierarchy`) produce
   identical per-instruction classifications on every cache level.

Failures raise :class:`SoundnessFailure` whose message embeds the
``repro-gen`` command line that regenerates the exact program, so a
failing nightly seed reproduces locally from its number alone.
"""

from __future__ import annotations

from ..link import link
from ..memory import CacheConfig, SystemConfig
from ..minic import compile_source
from ..sim import simulate_oracle
from ..sim.replay import replay, replay_misses
from ..sim.trace import RelocationError, record_trace, relocate
from ..wcet import analyze_wcet
from .progen import GeneratedProgram, generate

#: The default hierarchy shapes every fuzzed program is priced under —
#: small and low-associativity on purpose, so generated working sets
#: actually conflict.  (The SPM shapes run separately: they need their
#: own placement, whose trace is relocated from the baseline recording,
#: see :func:`check_spm_placement`.)
DEFAULT_SHAPES = (
    ("uncached", lambda: SystemConfig.uncached()),
    ("l1-64", lambda: SystemConfig.cached(CacheConfig(size=64))),
    ("l1-128-2way", lambda: SystemConfig.cached(
        CacheConfig(size=128, assoc=2))),
    ("icache-64", lambda: SystemConfig.cached(
        CacheConfig(size=64, unified=False))),
    ("l1+l2", lambda: SystemConfig.two_level(
        CacheConfig(size=64), CacheConfig(size=256))),
)


class SoundnessFailure(AssertionError):
    """A generated program broke a cross-layer invariant."""


def _repro_hint(program: GeneratedProgram) -> str:
    return (f"seed={program.seed} size={program.size}; reproduce with: "
            f"repro-gen --seed {program.seed} --size {program.size}")


def _expect(condition, message):
    if not condition:
        raise SoundnessFailure(message)


def _stats_tuple(stats):
    if stats is None:
        return None
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


def _same_result(replayed, executed, context):
    _expect(replayed.cycles == executed.cycles,
            f"replay cycles {replayed.cycles} != oracle "
            f"{executed.cycles} [{context}]")
    _expect(replayed.instructions == executed.instructions,
            f"replay instruction count diverged [{context}]")
    _expect(replayed.exit_code == executed.exit_code,
            f"replay exit code diverged [{context}]")
    _expect(replayed.console == executed.console,
            f"replay console diverged [{context}]")
    _expect(set(replayed.level_stats) == set(executed.level_stats),
            f"replay level names diverged [{context}]")
    for name in executed.level_stats:
        _expect(_stats_tuple(replayed.level_stats[name]) ==
                _stats_tuple(executed.level_stats[name]),
                f"replay {name} stats diverged [{context}]")


def check_program(program: GeneratedProgram, shapes=DEFAULT_SHAPES, *,
                  wcet=True, misses=False, domains=False) -> dict:
    """Run *program* through the tiers; returns a small summary dict."""
    hint = _repro_hint(program)
    compiled = compile_source(program.source)
    image = link(compiled.program)
    trace = record_trace(image, 0)
    _expect(trace.exit_code == program.expected_exit,
            f"self-check failed: exit {trace.exit_code}, console tail "
            f"{list(trace.console)[-3:]} [{hint}]")
    _expect(tuple(trace.console) == program.expected_console,
            f"console diverged from the reference evaluator [{hint}]")
    cycles = {}
    for name, factory in shapes:
        config = factory()
        context = f"shape={name} {hint}"
        executed = simulate_oracle(image, config, record_misses=misses)
        _expect(executed.exit_code == program.expected_exit,
                f"memory system changed computed values [{context}]")
        replayed = replay(trace, config)
        _same_result(replayed, executed, context)
        if misses:
            fetch, main = replay_misses(trace, config)
            _expect(fetch == dict(executed.fetch_misses),
                    f"replay-served fetch_misses diverged [{context}]")
            _expect(main == dict(executed.fetch_main_misses),
                    f"replay-served fetch_main_misses diverged "
                    f"[{context}]")
        if wcet:
            bound = analyze_wcet(image, config)
            _expect(bound.wcet >= executed.cycles,
                    f"UNSOUND: WCET {bound.wcet} < simulated "
                    f"{executed.cycles} [{context}]")
        if domains and config.cache is not None:
            _check_domains(image, config, context)
        cycles[name] = executed.cycles
    return {"seed": program.seed, "size": program.size,
            "exit": program.expected_exit, "cycles": cycles}


def check_seed(seed: int, size: str = "small", shapes=DEFAULT_SHAPES,
               **kwargs) -> dict:
    """Generate-and-check in one call (the fuzz tier's inner loop)."""
    return check_program(generate(seed, size), shapes, **kwargs)


def check_spm_placement(program: GeneratedProgram,
                        spm_size: int = 256) -> dict:
    """Greedy SPM placement: values preserved, never slower, bounded,
    and the relocated baseline recording prices the placed image like
    executing it does (pure SPM, and SPM with a cache behind it)."""
    hint = _repro_hint(program)
    compiled = compile_source(program.source)
    baseline = link(compiled.program)
    recording = record_trace(baseline, 0)
    reference = replay(recording, SystemConfig.uncached())
    chosen, used = [], 0
    for name, _kind, size in sorted(compiled.program.memory_objects(),
                                    key=lambda o: (o[2], o[0])):
        aligned = (size + 3) & ~3
        if used + aligned <= spm_size:
            chosen.append(name)
            used += aligned
    image = link(compiled.program, spm_size=spm_size, spm_objects=chosen)
    config = SystemConfig.scratchpad(spm_size)
    placed = simulate_oracle(image, config)
    context = f"spm={spm_size} {hint}"
    _expect(placed.exit_code == program.expected_exit,
            f"SPM placement changed computed values [{context}]")
    _expect(placed.console == reference.console,
            f"SPM placement changed console output [{context}]")
    _expect(placed.cycles <= reference.cycles,
            f"SPM made the program slower ({placed.cycles} > "
            f"{reference.cycles}) [{context}]")
    bound = analyze_wcet(image, config)
    _expect(bound.wcet >= placed.cycles,
            f"UNSOUND: WCET {bound.wcet} < simulated {placed.cycles} "
            f"[{context}]")
    try:
        trace = relocate(recording, baseline, image, spm_size)
    except RelocationError as error:
        raise SoundnessFailure(
            f"relocation refused a generated program: {error} "
            f"[{context}]") from None
    _same_result(replay(trace, config), placed, context)
    hybrid = SystemConfig.hybrid(spm_size, CacheConfig(size=256))
    _same_result(replay(trace, hybrid), simulate_oracle(image, hybrid),
                 f"spm={spm_size}+cache256 {hint}")
    return {"seed": program.seed, "spm": spm_size,
            "cycles": placed.cycles, "baseline": reference.cycles}


def _check_domains(image, config, context):
    """Packed analysis vs the dict-based oracle: identical classes."""
    from ..testing.cache_oracle import reference_hierarchy
    from ..wcet import build_all_cfgs
    from ..wcet.cacheanalysis import analyze_hierarchy
    from ..wcet.stackdepth import stack_region
    cfgs = build_all_cfgs(image)
    entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
    rng = stack_region(cfgs, "_start", entry_by_addr)
    packed = analyze_hierarchy(image, cfgs, config, rng, "_start",
                               reuse=False)
    plain = reference_hierarchy(image, cfgs, config, rng, "_start")
    for level_packed, level_dict in zip(packed.levels, plain.levels):
        for ours, reference in (
                (level_packed.iresult, level_dict.iresult),
                (level_packed.dresult, level_dict.dresult)):
            _expect((ours is None) == (reference is None),
                    f"domain result presence diverged [{context}]")
            if ours is None:
                continue
            _expect(set(ours.classes) == set(reference.classes),
                    f"domain classified address sets diverged "
                    f"[{context}]")
            for addr, entry in ours.classes.items():
                _expect(vars(entry) == vars(reference.classes[addr]),
                        f"packed analysis vs oracle diverged at "
                        f"{addr:#x} [{context}]")
