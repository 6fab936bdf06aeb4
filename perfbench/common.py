"""Shared plumbing: checkout paths, child processes, statistics,
fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for spans, results and daemon state (git-ignored).
OUT = os.path.join(ROOT, ".perfbench_out")

READY = "PERFBENCH-READY"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no metrics are printed)."""


def have_checkout() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_repro():
    """Make the checkout's ``src`` importable in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for processes running the program: the checkout's
    sources first, and no fault injection inherited from the caller."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_FAULT")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def out_dir(*parts) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- children that announce readiness -----------------------------------------

def announce_ready():
    """Child side: tell the parent that set-up (imports) is done."""
    print(READY, flush=True)


def run_child(argv, timeout: float):
    """Run ``python argv...``; returns (setup seconds, last-line JSON).

    Set-up time runs from spawn until the child prints :data:`READY`.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable] + list(argv), cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True)
    try:
        first = process.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != READY:
            raise BenchError(f"child {argv[0]} did not become ready "
                             f"(got {first.strip()!r})")
        rest, _ = process.communicate(timeout=timeout)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise BenchError(f"child {argv[0]} exited with "
                         f"{process.returncode}")
    lines = [line for line in rest.splitlines() if line.strip()]
    return setup, (json.loads(lines[-1]) if lines else None)


def setup_samples(argv, count: int):
    """Set-up seconds of *count* spawns of a child that exits once
    ready (``argv`` must include its set-up-only flag), as (raw,
    scaled to the reference host) lists."""
    return hostspeed.scaled_samples(
        lambda: run_child(argv, timeout=120)[0], count)


# -- statistics ---------------------------------------------------------------

class TooFewSamples(BenchError):
    pass


def percentile(samples, fraction: float):
    """Nearest-rank percentile, refusing unless at least ten samples
    lie beyond it (above it, for ``fraction >= 0.5``)."""
    count = len(samples)
    rank = max(1, math.ceil(fraction * count))
    if count - rank < 10:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples has "
            f"{count - rank} beyond it (need 10)")
    return sorted(samples)[rank - 1]


def samples_needed(fraction: float) -> int:
    """Smallest sample count :func:`percentile` accepts."""
    count = 1
    while count - max(1, math.ceil(fraction * count)) < 10:
        count += 1
    return count


def median(values):
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# -- fingerprint --------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".mc")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout: the source digest stands
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """Where a result came from: code, host and toolchain."""
    import_repro()
    from repro.sim.kernels import active_kernel
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "replay_kernel": active_kernel(),
    }


# -- generated inputs ---------------------------------------------------------

#: Generated programs must finish within this many instructions.  The
#: ``medium`` profile's tail reaches millions (about 3 in 100 programs
#: run past 200k), and one such program would swamp a run.
MAX_INSTRUCTIONS = 200_000


def generated_programs(rng, size="medium",
                       max_instructions=MAX_INSTRUCTIONS):
    """Endless stream of distinct generated programs drawn from *rng*
    that finish within *max_instructions*.

    The check records the program's trace once; that fills no cache
    (``record_trace`` is the uncached entry point), so the programs are
    still cold for the timed work.
    """
    import_repro()
    from repro.gen import generate
    from repro.sim.simulator import SimError
    from repro.sim.trace import record_trace
    from repro.workflow import Workflow
    seen = set()
    while True:
        program = generate(rng.randrange(1, 10 ** 9), size)
        if program.source in seen:
            continue
        seen.add(program.source)
        image = Workflow(program.source).baseline_image()
        try:
            record_trace(image, 0, max_steps=max_instructions)
        except SimError:
            continue
        yield program
