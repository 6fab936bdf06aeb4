"""serve-mixed: a fresh ``repro-serve`` daemon under mixed load.

The daemon runs with 2 workers and a private persistent
``--cache-dir``.  One process drives it over 2 connections:

* connection 1 is an open loop of memo hits at :data:`HIT_RATE` per
  second, drawn from a pool primed before timing; each hit is timed
  from when it was due, so a stall also charges the hits queued
  behind it;
* connection 2 is one closed-loop caller sending cold requests whose
  keys were never seen: generated programs, each asked under
  :data:`CONFIGS_PER_PROGRAM` configurations.  The first request of a
  program records its trace into the store; later ones reuse it, from
  disk when the other worker recorded it.  Between requests, at most
  every :data:`hostspeed.EVERY_S`, it runs a reference burst, so its
  time is also known scaled to the reference host.

Every answer is then compared with a direct, in-process
``evaluate_request`` of the same request.

``python perfbench/serving.py --daemon-spans DIR -- ARGS`` runs the
daemon (``repro-serve ARGS``) with the tracer installed; each worker
appends its spans and counters to DIR after every computation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

common.import_repro()

from repro.serve.client import ServeClient, ServeTransportError  # noqa: E402
from repro.serve.protocol import canonical_request  # noqa: E402
from repro.serve.protocol import request_key as key_of  # noqa: E402
from repro.serve.worker import evaluate_request  # noqa: E402

import gates  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

#: Open-loop memo-hit rate (requests per second).
HIT_RATE = 80.0
#: Suite programs and configurations the hit pool is drawn from.
POOL_BENCHES = ("adpcm", "crc", "fir", "matmult", "sort_wc")
POOL_SIZE = 12
#: Valid ``config`` specs for cold requests (L1, L2 and split shapes).
CONFIGS = (
    {"cache": 256}, {"cache": 512, "assoc": 2},
    {"cache": 1024, "assoc": 4}, {"cache": 2048},
    {"cache": 256, "l2": 2048}, {"cache": 512, "l2": 4096, "l2_assoc": 2},
    {"cache": 512, "dcache": 512}, {"cache": 1024, "dcache": 256},
)
CONFIGS_PER_PROGRAM = 3
#: Memory is read after this many cold requests: the workers' caches
#: grow with every program served, so a fixed amount of work keeps the
#: figure independent of how fast the daemon ran.
RSS_AFTER_COLD = 100
#: Size profile of the cold programs; ``small`` programs vary little
#: in cost, so the cold rate reflects the daemon, not the seed's draw.
COLD_SIZE = "small"
#: Cold requests prepared before timing, per second of run.
COLD_PREPARED_PER_S = 22
SETUP_PROBES = 4
WORKERS = 2


# -- inputs -------------------------------------------------------------------

def hit_pool(seed: int):
    rng = random.Random(f"pool-{seed}")
    pairs = [(bench, config) for bench in POOL_BENCHES
             for config in CONFIGS[:4]]
    return [{"op": "wcet", "bench": bench, "config": dict(config)}
            for bench, config in rng.sample(pairs, POOL_SIZE)]


def cold_requests(seed: int):
    """Endless seeded stream of never-seen cold requests."""
    rng = random.Random(f"cold-{seed}")
    for program in common.generated_programs(rng, COLD_SIZE):
        for config in rng.sample(CONFIGS, CONFIGS_PER_PROGRAM):
            yield {"op": "wcet", "source": program.source,
                   "config": dict(config)}


def request_key(request) -> str:
    return key_of(canonical_request(request))


# -- the open loop ------------------------------------------------------------

def open_loop(send, rate, stop, records, clock=time.perf_counter,
              sleep=time.sleep):
    """Send on a fixed schedule until ``stop()``, appending records
    ``(due, sent, done, reply)`` to *records* as replies arrive.

    Request *k* is due at ``start + k / rate``.  A request whose
    predecessor finished late is sent at once, still timed from its
    due time: latency is ``done - due`` and lateness ``sent - due``.
    """
    start = clock()
    index = 0
    while not stop():
        due = start + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        reply = send(index)
        records.append((due, sent, clock(), reply))
        index += 1


# -- daemon lifecycle ---------------------------------------------------------

def _daemon_argv(socket_path, cache_dir, spans_dir):
    args = ["--socket", socket_path, "--workers", str(WORKERS),
            "--cache-dir", cache_dir, "--drain-timeout", "60",
            "--memo-capacity", "100000"]
    if spans_dir is None:
        return ["-m", "repro.serve.cli"] + args
    return [os.path.join(common.HERE, "serving.py"),
            "--daemon-spans", spans_dir, "--"] + args


def spawn_daemon(workdir, name, spans_dir=None):
    """Start a daemon; returns (process, socket path, set-up seconds)
    where set-up runs from spawn to the first answered ping."""
    socket_path = os.path.join(workdir, f"{name}.sock")
    cache_dir = os.path.join(workdir, f"{name}-cache")
    log = open(os.path.join(workdir, f"{name}.log"), "w")
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable] + _daemon_argv(socket_path, cache_dir, spans_dir),
        cwd=common.ROOT, env=common.child_env(), stdout=log,
        stderr=subprocess.STDOUT)
    log.close()
    deadline = start + 120.0
    probe = ServeClient(socket_path, timeout=10.0, max_retries=0)
    try:
        while True:
            if process.poll() is not None:
                raise common.BenchError(
                    f"daemon exited during start-up ({process.returncode})")
            try:
                probe.ping()
                return process, socket_path, time.perf_counter() - start
            except (ServeTransportError, OSError):
                if time.perf_counter() > deadline:
                    raise common.BenchError("daemon never answered ping")
                time.sleep(0.005)
    except BaseException:
        stop_daemon(process)
        raise
    finally:
        probe.close()


def stop_daemon(process) -> int:
    """SIGTERM (graceful drain) and wait for the daemon and its
    workers; kill whatever hangs.  Returns the daemon's exit code."""
    workers = daemon_children(process.pid)
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=90)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        code = -9
    wait_gone(workers)
    return code


def _vm_hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def daemon_peak_rss_mb(pid) -> float:
    """Largest peak RSS among the daemon and its workers."""
    return max(_vm_hwm_mb(one) for one in [pid] + daemon_children(pid))


def daemon_children(pid) -> list:
    """The daemon's worker processes."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


def _alive(pid) -> bool:
    """True while *pid* runs (an exited, unreaped one counts as gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("State:"):
                    return line.split()[1] not in ("Z", "X")
    except OSError:
        pass
    return False


def wait_gone(pids, timeout=30.0):
    """Wait for the daemon's workers to exit; kill any that linger."""
    deadline = time.perf_counter() + timeout
    for pid in pids:
        while _alive(pid) and time.perf_counter() < deadline:
            time.sleep(0.02)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


# -- one measured phase -------------------------------------------------------

def _client(socket_path):
    return ServeClient(socket_path, timeout=120.0)


def prepare_colds(seed, seconds):
    """The seeded cold requests with their keys, made before timing;
    a phase that outruns the list extends it from the same stream."""
    stream = cold_requests(seed)
    count = int(seconds * COLD_PREPARED_PER_S) \
        + common.samples_needed(0.9)
    requests = [next(stream) for _ in range(count)]
    return [(request, request_key(request)) for request in requests], \
        stream


def run_phase(workdir, name, seed, seconds, colds, spans_dir=None,
              needed_hits=common.samples_needed(0.99),
              needed_cold=common.samples_needed(0.9)):
    """Spawn a daemon, prime the pool, run both loops for *seconds* or
    until they hold the samples the reported percentiles need, stop
    the daemon and wait for it and its workers."""
    process, socket_path, _ = spawn_daemon(workdir, name, spans_dir)
    answers = []
    try:
        pool = hit_pool(seed)
        pool_keys = [request_key(request) for request in pool]
        hits_client = _client(socket_path)
        cold_client = _client(socket_path)
        for request, key in zip(pool, pool_keys):
            answers.append({"key": key, "want": "computed",
                            "request": request,
                            "response": hits_client.request(
                                dict(request))})
        pick = random.Random(f"hits-{seed}")
        hit_plan = [pick.randrange(len(pool)) for _ in range(
            int(HIT_RATE * seconds * 4) + needed_hits)]
        prepared, stream = colds
        cold_records = []
        rss = []
        stop = threading.Event()

        errors = []
        meters = []

        def cold_loop():
            meter = hostspeed.Meter()
            meters.append(meter)
            for index in itertools.count():
                if stop.is_set() or errors:
                    meter.close()
                    return
                meter.tick()
                if index == len(prepared):
                    request = next(stream)
                    prepared.append((request, request_key(request)))
                request, key = prepared[index]
                began = time.perf_counter()
                try:
                    response = cold_client.request(dict(request))
                except ServeTransportError as error:
                    errors.append(error)
                    return
                cold_records.append((began, time.perf_counter(), key,
                                     request, response))
                if len(cold_records) == RSS_AFTER_COLD:
                    rss.append(daemon_peak_rss_mb(process.pid))

        def send_hit(index):
            try:
                return hits_client.request(dict(pool[hit_plan[index]]))
            except ServeTransportError as error:
                errors.append(error)
                stop.set()
                return {"ok": False, "error": {"kind": "transport"}}

        # The cold loop's reference bursts hold the interpreter lock;
        # a short switch interval keeps them from delaying the hits.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.001)
        cold_thread = threading.Thread(target=cold_loop, daemon=True)
        hit_records = []
        hit_thread = threading.Thread(
            target=open_loop, args=(send_hit, HIT_RATE, stop.is_set,
                                    hit_records), daemon=True)
        began = time.perf_counter()
        cold_thread.start()
        hit_thread.start()
        time.sleep(seconds)
        # Run on until both loops hold enough samples for the reported
        # percentiles (bounded, so a wedged daemon cannot hang us).
        cap = began + 3 * seconds
        while (len(hit_records) < needed_hits
               or len(cold_records) < needed_cold) \
                and time.perf_counter() < cap and not errors:
            time.sleep(0.05)
        stop.set()
        hit_thread.join(timeout=120)
        cold_thread.join(timeout=120)
        sys.setswitchinterval(switch)
        if hit_thread.is_alive() or cold_thread.is_alive():
            raise common.BenchError("load threads did not stop")
        if errors:
            raise common.BenchError(f"daemon unreachable: {errors[0]}")
        if not rss:
            rss.append(daemon_peak_rss_mb(process.pid))
        stats = hits_client.stats()
        hits_client.close()
        cold_client.close()
    finally:
        exit_code = stop_daemon(process)
    if exit_code != 0:
        raise common.BenchError(f"daemon drain exited {exit_code}")
    hits = []
    for index, (due, sent, done, response) in enumerate(hit_records):
        position = hit_plan[index]
        hits.append({"key": pool_keys[position], "want": "memo",
                     "request": pool[position], "response": response,
                     "latency": done - due, "late": sent - due})
    colds = [{"key": key, "want": "computed", "request": request,
              "response": response, "latency": done - began_at,
              "began": began_at, "done": done}
             for began_at, done, key, request, response in cold_records]
    return {
        "prime": answers,
        "hits": hits,
        "colds": colds,
        "stats": stats,
        "peak_rss_mb": rss[0],
        "cold_scaled_s": meters[0].scaled_s,
        "cold_meter": meters[0].summary(),
    }


# -- checking and the workload ------------------------------------------------

def direct_results(requests):
    """Direct in-process ``evaluate_request`` result and seconds per
    distinct request key, in first-seen order."""
    results, seconds = {}, {}
    for request in requests:
        canonical = canonical_request(request)
        key = key_of(canonical)
        if key in results:
            continue
        began = time.perf_counter()
        results[key] = evaluate_request(canonical)
        seconds[key] = time.perf_counter() - began
    return results, seconds


def _answers(phase):
    return phase["prime"] + phase["hits"] + phase["colds"]


def _ms(value):
    return value * 1000.0


def phase_summary(phase):
    """Latency percentiles (ms) and rates of one phase, with counts."""
    hits = [answer["latency"] for answer in phase["hits"]]
    late = [answer["late"] for answer in phase["hits"]]
    colds = phase["colds"]
    cold = [answer["latency"] for answer in colds]
    span = colds[-1]["done"] - colds[0]["began"] if colds else 0.0
    return {
        "hit_p50_ms": (_ms(common.percentile(hits, 0.5)), len(hits)),
        "hit_p99_ms": (_ms(common.percentile(hits, 0.99)), len(hits)),
        "late_p99_ms": (_ms(common.percentile(late, 0.99)), len(late)),
        "cold_p50_ms": (_ms(common.percentile(cold, 0.5)), len(cold)),
        "cold_p90_ms": (_ms(common.percentile(cold, 0.9)), len(cold)),
        "cold_rps": (common.ratio(len(colds), span), len(colds)),
    }


def _merge_worker_traces(spans_dir):
    """Spans per worker process, summed counters, instructions and the
    workers' busy time (the base of the trace coverage)."""
    span_sets, counters = [], {}
    instructions = busy_ns = 0
    for name in sorted(os.listdir(spans_dir)):
        path = os.path.join(spans_dir, name)
        if name.startswith("spans-"):
            span_sets.append(tracing.load_spans(path))
        elif name.startswith("counters-"):
            with open(path) as handle:
                snapshot = json.load(handle)
            for key, value in snapshot["counters"].items():
                counters[key] = counters.get(key, 0) + value
            instructions += snapshot["instructions"]
            busy_ns += snapshot["busy_ns"]
    return span_sets, counters, instructions, busy_ns / 1e9


def run(seed: int, seconds: float, trace: bool) -> dict:
    """The serve-mixed workload; see :func:`run_phase`."""
    workdir = os.path.relpath(common.out_dir(f"serve-{os.getpid()}"),
                              common.ROOT)
    # Socket paths are relative to the checkout (the AF_UNIX limit is
    # about 100 bytes); the daemon and this process share that cwd.
    os.chdir(common.ROOT)
    try:
        probes = itertools.count()

        def probe():
            process, _, setup = spawn_daemon(workdir,
                                             f"probe{next(probes)}")
            stop_daemon(process)
            return setup

        raw_setups, setups = hostspeed.scaled_samples(probe, SETUP_PROBES)
        colds = prepare_colds(seed, seconds)
        phase = run_phase(workdir, "daemon", seed, seconds, colds)
        traced = None
        if trace:
            spans_dir = os.path.join(common.OUT, "spans-serve-mixed")
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            # Spans need no tail percentiles: half the time will do.
            traced = run_phase(workdir, "traced", seed, seconds / 2,
                               colds, spans_dir, needed_hits=0,
                               needed_cold=common.samples_needed(0.5))
            worker_traces = _merge_worker_traces(spans_dir)
        ordered = [answer["request"] for answer in _answers(phase)]
        if traced is not None:
            ordered += [answer["request"] for answer in _answers(traced)]
        direct, direct_seconds = direct_results(ordered)
    finally:
        shutil.rmtree(os.path.join(common.ROOT, workdir),
                      ignore_errors=True)
    answers = _answers(phase)
    failures = gates.serve_failures(answers, direct)
    summary = phase_summary(phase)
    cold_direct = [direct_seconds[answer["key"]]
                   for answer in phase["colds"]]
    direct_p50 = _ms(common.percentile(cold_direct, 0.5))
    report = dict(summary)
    report["direct_cold_p50_ms"] = (direct_p50, len(cold_direct))
    report["raw_setup_s"] = (common.median(raw_setups), len(raw_setups))
    report["host_speed"] = (hostspeed.REFERENCE_S
                            / phase["cold_meter"]["burst_mean_s"],
                            phase["cold_meter"]["bursts"])
    result = {
        "attempted": len(answers),
        "failures": failures,
        "e2e": {
            "setup_s": (common.median(setups), len(setups)),
            "bounds_per_s": (len(phase["colds"]) / phase["cold_scaled_s"],
                             len(phase["colds"])),
            "peak_rss_mb": (phase["peak_rss_mb"], 1),
        },
        "report": report,
    }
    if traced is not None:
        traced_answers = _answers(traced)
        failures.extend(gates.serve_failures(traced_answers, direct))
        result["attempted"] += len(traced_answers)
        span_sets, counters, instructions, busy = worker_traces
        layers = metrics.layer_metrics(span_sets, counters, instructions,
                                       busy)
        stats = phase["stats"]
        serve = stats["counters"]
        layers.update({
            "store.bytes_written": sum(
                store["bytes"] for store in
                traced["stats"].get("stores", {}).values()),
            "serve.computed": serve["computed"],
            "serve.memo_hits": serve["memo_hits"],
            "serve.coalesced": serve["coalesced"],
            "serve.rejected": (serve["sheds"] + serve["draining_rejected"]
                               + serve["invalid"]
                               + serve["deadline_expired"]),
            "serve.overhead_ms": summary["cold_p50_ms"][0] - direct_p50,
            "serve.hit_p50_ms": summary["hit_p50_ms"][0],
            "serve.hit_p99_ms": summary["hit_p99_ms"][0],
            "serve.cold_p50_ms": summary["cold_p50_ms"][0],
            "serve.cold_p90_ms": summary["cold_p90_ms"][0],
            "loadgen.late_p99_ms": summary["late_p99_ms"][0],
            "trace.overhead_ratio": (
                _ms(common.percentile([answer["latency"] for answer
                                       in traced["colds"]], 0.5))
                / summary["cold_p50_ms"][0] - 1.0),
        })
        result["layers"] = layers
    return result


# -- the traced daemon --------------------------------------------------------

def traced_daemon(spans_dir, cli_args) -> int:
    """Run ``repro-serve cli_args`` with the tracer installed; forked
    workers append their spans and counters to *spans_dir* after each
    computation."""
    import repro.cli  # noqa: F401  (bind its names before wrapping)
    import repro.experiments.common  # noqa: F401
    from repro.serve import cli, worker
    from repro.sim.trace import trace_counters
    from repro.wcet.analyzer import analysis_counters

    tracer = tracing.Tracer().install()
    original = worker.serve_unit
    state = {"flushed": 0, "busy_ns": 0}

    @functools.wraps(original)
    def serve_unit(request):
        began = time.perf_counter_ns()
        try:
            return original(request)
        finally:
            state["busy_ns"] += time.perf_counter_ns() - began
            pid = os.getpid()
            state["flushed"] = tracer.dump(
                os.path.join(spans_dir, f"spans-{pid}.jsonl"),
                state["flushed"], mode="a")
            counters = dict(trace_counters())
            counters.update(analysis_counters())
            path = os.path.join(spans_dir, f"counters-{pid}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump({"counters": counters,
                           "instructions": tracer.instructions,
                           "busy_ns": state["busy_ns"]}, handle)
            os.replace(path + ".tmp", path)

    worker.serve_unit = serve_unit
    return cli.main(cli_args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--daemon-spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]
    return traced_daemon(args.daemon_spans, cli_args)


if __name__ == "__main__":
    sys.exit(main())
