"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (``BENCHMARK.json`` says
why each one is there):

* ``paper-regen``: one full ``repro-experiments`` regeneration in a
  fresh process, serial, with no disk caches.  The artefacts are
  fixed, so neither the seed nor ``--seconds`` changes the work.
* ``cache-dse``: a cold cache design-space sweep in a fresh process
  over the suite and ``PROGRAMS_PER_S * seconds`` generated programs
  drawn from the seed.
* ``serve-mixed``: a fresh ``repro-serve`` daemon under open-loop memo
  hits and a closed-loop cold caller for ``--seconds``.

With ``--trace 0`` the last line of output is a JSON object carrying
every end-to-end metric; with ``--trace 1`` the same work also runs
under the tracer and the object carries every per-layer metric.  The
lines before it are a readable report, with sample counts, and the
run's fingerprint.  Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import gates  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

#: Generated programs per second of ``--seconds`` in cache-dse.
PROGRAMS_PER_S = 3.0
#: Set-up-only spawns per batch workload run.
SETUP_PROBES = 6


def _script(name):
    return os.path.join(common.HERE, name)


def _traced_child(argv, workload):
    spans = os.path.join(common.out_dir(), f"spans-{workload}.jsonl")
    _, out = common.run_child(argv + ["--spans", spans], timeout=170)
    return out, tracing.load_spans(spans)


def _raw(raw_setups, out):
    """Report lines with the unscaled set-up time and rate, and the
    host's speed relative to the reference host."""
    meter = out["meter"]
    return {
        "raw_setup_s": (common.median(raw_setups), len(raw_setups)),
        "raw_bounds_per_s": (out["bounds"] / out["wall_s"], out["bounds"]),
        "host_speed": (hostspeed.REFERENCE_S / meter["burst_mean_s"],
                       meter["bursts"]),
    }


def _digests(regen):
    return {name: entry["sha256"]
            for name, entry in regen["experiments"].items()}


def paper_regen(seed, seconds, trace):
    expected = gates.load_expected()["experiments"]
    argv = [_script("regen.py")]
    raw_setups, setups = common.setup_samples(argv + ["--setup-only"],
                                              SETUP_PROBES)
    _, out = common.run_child(argv, timeout=170)
    result = {
        "attempted": len(expected),
        "failures": gates.regen_failures(out["experiments"], expected),
        "e2e": {
            "setup_s": (common.median(setups), len(setups)),
            "bounds_per_s": (out["bounds"] / out["scaled_s"],
                             out["bounds"]),
            "peak_rss_mb": (out["peak_rss_mb"], 1),
        },
        "report": dict(_raw(raw_setups, out), regen_s=(out["wall_s"], 1)),
    }
    if trace:
        traced, spans = _traced_child(argv, "paper-regen")
        result["attempted"] += len(expected)
        result["failures"] += gates.regen_failures(traced["experiments"],
                                                   expected)
        if _digests(traced) != _digests(out):
            result["failures"].append(
                "traced artefacts differ from untraced ones")
        layers = metrics.layer_metrics([spans], traced["counters"],
                                       traced["instructions"],
                                       traced["wall_s"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / out["wall_s"] \
            - 1.0
        result["layers"] = layers
    return result


def cache_dse(seed, seconds, trace):
    argv = [_script("dse.py")]
    raw_setups, setups = common.setup_samples(argv + ["--setup-only"],
                                              SETUP_PROBES)
    work = argv + ["--seed", str(seed),
                   "--programs", str(max(1, round(PROGRAMS_PER_S * seconds)))]
    _, out = common.run_child(work, timeout=170)
    result = {
        "attempted": out["bounds"],
        "failures": list(out["failures"]),
        "e2e": {
            "setup_s": (common.median(setups), len(setups)),
            "bounds_per_s": (out["bounds"] / out["scaled_s"],
                             out["bounds"]),
            "peak_rss_mb": (out["suite_peak_rss_mb"], 1),
        },
        "report": dict(_raw(raw_setups, out),
                       dse_wall_s=(out["wall_s"], out["programs"]),
                       dse_run_peak_rss_mb=(out["peak_rss_mb"], 1)),
    }
    if trace:
        traced, spans = _traced_child(work, "cache-dse")
        result["attempted"] += traced["bounds"]
        result["failures"] += traced["failures"]
        if traced["digest"] != out["digest"]:
            result["failures"].append(
                "traced points differ from untraced ones")
        layers = metrics.layer_metrics([spans], traced["counters"],
                                       traced["instructions"],
                                       traced["wall_s"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / out["wall_s"] \
            - 1.0
        result["layers"] = layers
    return result


def serve_mixed(seed, seconds, trace):
    import serving  # imports the program: only after the checkout check
    return serving.run(seed, seconds, trace)


WORKLOADS = {
    "paper-regen": paper_regen,
    "cache-dse": cache_dse,
    "serve-mixed": serve_mixed,
}


def _unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_rps", "1/s")):
        if name.endswith(suffix):
            return unit
    return ""


def render(result, trace):
    """(report lines, final JSON object) for one workload result."""
    attempted = result["attempted"]
    failed = len(result["failures"])
    e2e = dict(result["e2e"])
    e2e["ok_ratio"] = (1.0 - failed / attempted, attempted)
    report = dict(result["report"])
    if trace:
        chosen = [(name, unit, result["layers"][name])
                  for name, unit, _ in metrics.PER_LAYER]
    else:
        chosen = [(name, unit, e2e[name][0])
                  for name, unit, _ in metrics.END_TO_END]
        report.update(e2e)
    lines = [f"attempted {attempted}  failed {failed}  "
             f"failed_ratio {failed / attempted:.6g}"]
    lines += [f"  FAILED {message}" for message in result["failures"][:20]]
    for name, (value, samples) in report.items():
        unit = metrics.UNITS.get(name) or _unit_of(name)
        lines.append(f"{name:36} {value:14.6g} {unit:6} (n={samples})")
    if trace:
        for name, unit, value in chosen:
            lines.append(f"{name:36} {value:14.6g} {unit}")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value in chosen},
    }
    return lines, final, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_checkout():
        print("perfbench: no program sources under src/repro; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
    except common.BenchError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    lines, final, report = render(result, args.trace)
    fingerprint = common.fingerprint()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint, "report": report,
              "failures": result["failures"], "result": final}
    path = os.path.join(common.out_dir(), f"result-{args.workload}-"
                        f"seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
