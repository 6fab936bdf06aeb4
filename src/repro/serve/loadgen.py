"""``repro-serve-load``: load generator + correctness harness.

Drives a serving daemon with a seeded, repeatable mix of
compile/simulate/wcet/sweep/grid requests from concurrent clients —
heavy on repeats, so dedup and the result memo actually get exercised
— and measures throughput and latency.  Two properties are *checked*,
not just measured:

* **Byte-identical serving.**  Every ok response for one request key
  must carry the same canonical result JSON, and that JSON must equal
  a direct, in-process :func:`repro.serve.worker.evaluate_request`
  evaluation of the same canonical request.  Because the local
  evaluation has no fault hooks, this is fault-free ground truth: run
  the load with ``REPRO_FAULT_UNIT=crash@5+`` or a
  ``REPRO_FAULT_SERVE`` slice and the check proves the daemon's
  supervision and the client's transport recovery returned *correct*
  answers, not just answers.

* **Graceful drain.**  ``--sigterm-mid`` SIGTERMs the spawned daemon
  mid-load; in-flight requests must still be answered, later ones be
  rejected as ``draining`` (counted, not failed), and the daemon
  process must exit 0 within its drain deadline.

The harness also drives *clusters*: ``--addr`` (repeatable, with
``--auth-key``) points the clients at existing daemons through a
:class:`~repro.serve.cluster.ClusterClient` each, and
``--spawn-cluster N`` spawns N private TCP daemons sharing one
rendezvous-sharded artifact store.  ``--sigkill-one`` SIGKILLs one
spawned daemon mid-load — no drain, no goodbye — and the run passes
only if every *completed* request still verified byte-identical and
the failover counters prove the degraded path actually ran
(``--expect-failover``).  When ``REPRO_FAULT_NET`` is set the run is
*chaos-aware*: transport failures become expected outcomes (a
partitioned or resetting daemon legitimately loses requests), while
the byte-identity check still covers everything that completed.

Exit status is 0 only when every check passed.  ``--json FILE`` writes
the metrics (the ``benchmarks/bench_suite.py`` serve section reads
them into ``BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

from .client import ServeClient, ServeError, ServeTransportError
from .cluster import ClusterClient
from .protocol import canonical_request, request_key
from .transport import load_auth_key


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-load",
        description="load-test a repro-serve daemon and verify its "
                    "responses against direct evaluation")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="existing daemon socket (default: spawn "
                             "a private daemon for the run)")
    parser.add_argument("--addr", action="append", default=[],
                        metavar="ADDRESS",
                        help="existing daemon address (repeatable; "
                             "unix:/path or tcp://host:port) — with "
                             "more than one, clients route and fail "
                             "over through a ClusterClient")
    parser.add_argument("--auth-key", default=None, metavar="FILE",
                        help="shared-secret file for tcp:// daemons")
    parser.add_argument("--hedge-after", type=float, default=None,
                        metavar="MS",
                        help="hedge cluster requests to the next-"
                             "ranked daemon after this many "
                             "milliseconds (default: no hedging)")
    parser.add_argument("--spawn-cluster", type=int, default=0,
                        metavar="N",
                        help="spawn N private TCP daemons sharing a "
                             "rendezvous-sharded artifact store and "
                             "drive them as a cluster")
    parser.add_argument("--replicas", type=int, default=None,
                        help="artifact replication factor for "
                             "--spawn-cluster daemons (default: "
                             "min(2, N))")
    parser.add_argument("--sigkill-one", action="store_true",
                        help="SIGKILL one spawned cluster daemon "
                             "mid-load (no drain) and require the "
                             "survivors to absorb the traffic")
    parser.add_argument("--expect-failover", action="store_true",
                        help="fail unless the clients' failover "
                             "counter is nonzero (proves the "
                             "degraded path ran)")
    parser.add_argument("--requests", type=int, default=300,
                        help="total requests to send (default 300)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--benches", default="crc,fir",
                        help="comma-separated benchmarks to mix "
                             "(default crc,fir)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="request-mix seed (default 1234)")
    parser.add_argument("--workers", type=int, default=2,
                        help="spawned daemon's worker count "
                             "(default 2)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="spawned daemon's admission depth "
                             "(default 32)")
    parser.add_argument("--drain-timeout", type=float, default=15.0,
                        help="spawned daemon's drain deadline "
                             "(default 15)")
    parser.add_argument("--quick", action="store_true",
                        help="CI preset: 80 requests, 3 clients, "
                             "one benchmark")
    parser.add_argument("--sigterm-mid", action="store_true",
                        help="SIGTERM the spawned daemon mid-load "
                             "and require a clean drain")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the byte-identical ground-truth "
                             "check")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write metrics JSON here")
    return parser


def build_requests(benches, total, seed, *, heavy=True) -> list:
    """The seeded request mix: a small distinct pool, sampled with
    repeats so dedup/memo paths dominate, exactly like a build system
    hammering a shared analysis service."""
    pool = []
    for bench in benches:
        pool.extend([
            {"op": "compile", "bench": bench},
            {"op": "simulate", "bench": bench},
            {"op": "simulate", "bench": bench,
             "config": {"cache": 256}},
            {"op": "simulate", "bench": bench,
             "config": {"cache": 256, "l2": 1024}},
            {"op": "wcet", "bench": bench, "config": {"cache": 256}},
            {"op": "wcet", "bench": bench,
             "config": {"cache": 512, "assoc": 2},
             "persistence": True},
            {"op": "sweep", "bench": bench,
             "sizes": [64, 128, 256, 512]},
            {"op": "grid", "bench": bench, "sizes": [128, 256, 512],
             "assocs": [1, 2]},
        ])
        if heavy:
            pool.append({"op": "wcet", "bench": bench,
                         "config": {"spm": 256}})
    rng = random.Random(seed)
    return [dict(rng.choice(pool)) for _ in range(total)]


def percentile(samples, fraction: float):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class _Run:
    """Shared state between the client threads.

    Requests are canonicalised and keyed up front, in the main thread:
    client threads must not race each other through the package's lazy
    imports, and the verifier needs the canonical forms anyway.
    """

    def __init__(self, requests):
        self.requests = [
            (request, request_key(canonical_request(request)))
            for request in requests]
        self.lock = threading.Lock()
        self.cursor = 0
        self.records = []
        self.completed = 0
        self.client_counters = {}

    def next_request(self):
        with self.lock:
            if self.cursor >= len(self.requests):
                return None
            request = self.requests[self.cursor]
            self.cursor += 1
            return request

    def record(self, entry):
        with self.lock:
            self.records.append(entry)
            self.completed += 1

    def add_counters(self, counters):
        with self.lock:
            for key, value in counters.items():
                self.client_counters[key] = \
                    self.client_counters.get(key, 0) + value


def _client_thread(make_client, run, draining_seen, chaos_expected):
    """One client worker.  *chaos_expected* is a callable: is a
    transport failure an expected outcome right now (net chaos is
    injected, a daemon was SIGKILLed, or the daemon is draining)?"""
    client = make_client()
    try:
        while True:
            handout = run.next_request()
            if handout is None:
                return
            request, key = handout
            t0 = time.monotonic()
            try:
                response = client.response(**request)
            except Exception as error:
                # Once the daemon is draining (or gone after a
                # --sigterm-mid), rejections are the *expected*
                # behaviour, not failures.
                if isinstance(error, ServeError):
                    kind = error.kind
                elif isinstance(error, (ServeTransportError, OSError)):
                    kind = "transport"
                else:  # a client bug is a finding, not a lost request
                    kind = f"client-error: {error!r}"
                expected = draining_seen.is_set()
                if kind == "draining":
                    draining_seen.set()
                    expected = True
                if kind == "transport" and chaos_expected():
                    expected = True
                run.record({"key": key, "ok": False, "kind": kind,
                            "expected": expected,
                            "elapsed": time.monotonic() - t0})
                continue
            elapsed = time.monotonic() - t0
            if response.get("ok"):
                run.record({
                    "key": key, "ok": True,
                    "served": response.get("served"),
                    "result": json.dumps(response["result"],
                                         sort_keys=True),
                    "elapsed": elapsed})
            else:
                error = response.get("error", {})
                kind = error.get("kind")
                if kind == "draining":
                    draining_seen.set()
                run.record({"key": key, "ok": False, "kind": kind,
                            "expected": kind == "draining",
                            "elapsed": elapsed})
    finally:
        counters = (client.all_counters()
                    if hasattr(client, "all_counters")
                    else client.counters)
        run.add_counters(counters)
        client.close()


def _spawn_daemon(args, workdir):
    socket_path = os.path.join(workdir, "serve.sock")
    stats_path = os.path.join(workdir, "daemon-stats.json")
    log_path = os.path.join(workdir, "daemon.log")
    # The spawned interpreter must find this very package, however the
    # loadgen itself was launched (PYTHONPATH=src or installed entry
    # point).
    env = _loadgen_env()
    log = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--socket", socket_path,
         "--workers", str(args.workers),
         "--queue-depth", str(args.queue_depth),
         "--drain-timeout", str(args.drain_timeout),
         "--warm", args.benches,
         "--stats-json", stats_path],
        stdout=log, stderr=subprocess.STDOUT, env=env)
    log.close()
    deadline = time.monotonic() + 120.0
    probe = ServeClient(socket_path, timeout=5.0)
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon died during startup (rc {process.returncode}); "
                f"log: {log_path}")
        try:
            probe.ping()
            probe.close()
            return process, socket_path, stats_path, log_path
        except (ServeTransportError, OSError):
            time.sleep(0.1)
    process.kill()
    raise RuntimeError(f"daemon never became ready; log: {log_path}")


def _loadgen_env() -> dict:
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
    return env


def _spawn_cluster(args, workdir, count):
    """Spawn *count* private TCP daemons sharing one sharded store.

    Every daemon listens on a kernel-assigned port (``--listen
    127.0.0.1:0``), authenticates against one generated key file, and
    mounts the same *count* shard roots with a replication factor of
    ``min(2, count)`` unless overridden — so a SIGKILLed daemon's
    artifacts remain readable through the survivors' read-through
    path.  Returns ``(daemons, shard_dirs, auth_key)`` where each
    daemon is a dict with ``process`` / ``address`` / ``log`` /
    ``stats`` keys.
    """
    key_path = os.path.join(workdir, "auth.key")
    with open(key_path, "w") as handle:
        handle.write(os.urandom(16).hex() + "\n")
    auth_key = load_auth_key(key_path)
    shard_dirs = [os.path.join(workdir, f"shard{index}")
                  for index in range(count)]
    replicas = (args.replicas if args.replicas is not None
                else min(2, count))
    env = _loadgen_env()
    daemons = []
    for index in range(count):
        log_path = os.path.join(workdir, f"daemon{index}.log")
        stats_path = os.path.join(workdir,
                                  f"daemon{index}-stats.json")
        command = [sys.executable, "-m", "repro.serve.cli",
                   "--socket", "none",
                   "--listen", "127.0.0.1:0",
                   "--auth-key", key_path,
                   "--workers", str(args.workers),
                   "--queue-depth", str(args.queue_depth),
                   "--drain-timeout", str(args.drain_timeout),
                   "--warm", args.benches,
                   "--replicas", str(replicas),
                   "--stats-json", stats_path]
        for shard in shard_dirs:
            command.extend(["--shard-dir", shard])
        with open(log_path, "w") as log:
            process = subprocess.Popen(command, stdout=log,
                                       stderr=subprocess.STDOUT,
                                       env=env)
        daemons.append({"process": process, "address": None,
                        "log": log_path, "stats": stats_path})
    deadline = time.monotonic() + 120.0

    def fail(message):
        for daemon in daemons:
            if daemon["process"].poll() is None:
                daemon["process"].kill()
        raise RuntimeError(message)

    for daemon in daemons:
        # The daemon prints its bound addresses once ready; port 0
        # means the log line is the only place the port exists.
        while daemon["address"] is None:
            if daemon["process"].poll() is not None:
                fail(f"cluster daemon died during startup (rc "
                     f"{daemon['process'].returncode}); log: "
                     f"{daemon['log']}")
            if time.monotonic() > deadline:
                fail(f"cluster daemon never became ready; log: "
                     f"{daemon['log']}")
            try:
                with open(daemon["log"]) as handle:
                    match = re.search(r"listening on.*?"
                                      r"(tcp://[\d.]+:\d+)",
                                      handle.read())
            except OSError:
                match = None
            if match:
                daemon["address"] = match.group(1)
                break
            time.sleep(0.05)
    for daemon in daemons:
        probe = ServeClient(daemon["address"], timeout=5.0,
                            auth_key=auth_key, max_retries=0)
        while True:
            if time.monotonic() > deadline:
                probe.close()
                fail(f"cluster daemon never answered a ping; log: "
                     f"{daemon['log']}")
            try:
                probe.ping()
                probe.close()
                break
            except (ServeTransportError, ServeError, OSError):
                time.sleep(0.1)
    return daemons, shard_dirs, auth_key


def _quarantined_files(shard_dirs) -> int:
    """Committed-then-quarantined entries across every shard layer."""
    from ..experiments.common import store_roots
    count = 0
    for roots in store_roots(shard_dirs=shard_dirs).values():
        for root in roots:
            try:
                count += len(os.listdir(os.path.join(root, "corrupt")))
            except OSError:
                continue
    return count


def _verify(records, requests):
    """Byte-identical check: consistency across responses per key,
    then equality with direct fault-free evaluation."""
    from .worker import evaluate_request
    canonical_by_key = {}
    for request in requests:
        canonical = canonical_request(request)
        canonical_by_key[request_key(canonical)] = canonical
    by_key = {}
    for record in records:
        if record.get("ok"):
            by_key.setdefault(record["key"], set()).add(
                record["result"])
    problems = []
    for key, blobs in sorted(by_key.items()):
        if len(blobs) != 1:
            problems.append(f"key {key}: {len(blobs)} distinct "
                            "response payloads")
            continue
        canonical = canonical_by_key[key]
        if canonical["op"] == "sleep":
            continue
        truth = json.dumps(evaluate_request(canonical),
                           sort_keys=True)
        blob = next(iter(blobs))
        if blob != truth:
            problems.append(
                f"key {key}: served {blob} != direct {truth}")
    return len(by_key), problems


def run_load(args) -> tuple:
    """Run the load; returns ``(exit_code, metrics, failures)``."""
    if args.quick:
        args.requests = min(args.requests, 80)
        args.clients = min(args.clients, 3)
        args.benches = args.benches.split(",")[0]
    benches = [bench for bench in args.benches.split(",") if bench]
    requests = build_requests(benches, args.requests, args.seed,
                              heavy=not args.quick)
    workdir = tempfile.mkdtemp(prefix="repro-serve-load-")
    process = stats_path = log_path = None
    daemons, shard_dirs = [], []
    auth_key = None
    addresses = list(args.addr)
    socket_path = args.socket
    chaos_spec = os.environ.get("REPRO_FAULT_NET")
    kill_happened = threading.Event()
    if args.spawn_cluster:
        if socket_path or addresses:
            raise SystemExit("--spawn-cluster conflicts with "
                             "--socket/--addr")
        daemons, shard_dirs, auth_key = _spawn_cluster(
            args, workdir, max(1, args.spawn_cluster))
        addresses = [daemon["address"] for daemon in daemons]
    elif addresses:
        if args.auth_key:
            auth_key = load_auth_key(args.auth_key)
    elif socket_path is None:
        process, socket_path, stats_path, log_path = \
            _spawn_daemon(args, workdir)
    if args.sigterm_mid and process is None:
        raise SystemExit("--sigterm-mid needs a spawned single "
                         "daemon (drop --socket/--addr/"
                         "--spawn-cluster)")
    if args.sigkill_one and not daemons:
        raise SystemExit("--sigkill-one needs --spawn-cluster")
    hedge_after = (args.hedge_after / 1000.0
                   if args.hedge_after else None)
    if addresses:
        def make_client():
            return ClusterClient(addresses, auth_key=auth_key,
                                 timeout=120.0,
                                 hedge_after=hedge_after)
    else:
        def make_client():
            return ServeClient(socket_path, timeout=120.0)
    run = _Run(requests)
    draining_seen = threading.Event()

    def chaos_expected():
        return bool(chaos_spec) or kill_happened.is_set()

    terminator = None
    if args.sigterm_mid:
        half = max(1, args.requests // 2)

        def _terminate():
            while run.completed < half and process.poll() is None:
                time.sleep(0.02)
            draining_seen.set()
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)

        terminator = threading.Thread(target=_terminate, daemon=True)
    elif args.sigkill_one:
        third = max(1, args.requests // 3)
        victim = daemons[0]["process"]

        def _kill():
            while run.completed < third and victim.poll() is None:
                time.sleep(0.02)
            # Flag *before* the kill so a request caught mid-flight
            # is never misjudged as an unexpected transport failure.
            kill_happened.set()
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)

        terminator = threading.Thread(target=_kill, daemon=True)
    t0 = time.monotonic()
    threads = [threading.Thread(
        target=_client_thread,
        args=(make_client, run, draining_seen, chaos_expected),
        daemon=True)
        for _ in range(max(1, args.clients))]
    for thread in threads:
        thread.start()
    if terminator is not None:
        terminator.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - t0
    failures = []
    ok_records = [r for r in run.records if r["ok"]]
    if len(run.records) != args.requests:
        failures.append(
            f"lost requests: {len(run.records)} records for "
            f"{args.requests} requests")
    for record in run.records:
        if not record["ok"] and not record.get("expected"):
            failures.append(f"unexpected {record.get('kind')} "
                            f"for {record['key']}")
    distinct = verified = 0
    if not args.no_verify:
        verified, problems = _verify(run.records, requests)
        failures.extend(problems)
        distinct = verified
    daemon_rc = None
    daemon_stats = None
    if process is not None:
        if process.poll() is None and not args.sigterm_mid:
            process.send_signal(signal.SIGTERM)
        try:
            daemon_rc = process.wait(timeout=args.drain_timeout + 30)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("daemon did not exit after SIGTERM")
            daemon_rc = process.wait()
        if daemon_rc != 0:
            failures.append(f"daemon exited {daemon_rc} "
                            f"(log: {log_path})")
        if stats_path and os.path.exists(stats_path):
            with open(stats_path) as handle:
                daemon_stats = json.load(handle)
    cluster_rcs = []
    cluster_stats = []
    quarantined = None
    if daemons:
        killed = daemons[0]["process"] if args.sigkill_one else None
        for daemon in daemons:
            proc = daemon["process"]
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=args.drain_timeout + 30)
            except subprocess.TimeoutExpired:
                proc.kill()
                failures.append("cluster daemon did not exit after "
                                f"SIGTERM (log: {daemon['log']})")
                rc = proc.wait()
            cluster_rcs.append(rc)
            if proc is killed:
                if rc != -signal.SIGKILL:
                    failures.append(
                        f"SIGKILLed daemon exited {rc}, not "
                        f"-{int(signal.SIGKILL)}")
                continue
            if rc != 0:
                failures.append(f"cluster daemon exited {rc} "
                                f"(log: {daemon['log']})")
            if os.path.exists(daemon["stats"]):
                with open(daemon["stats"]) as handle:
                    cluster_stats.append(json.load(handle))
        quarantined = _quarantined_files(shard_dirs)
        if quarantined and not os.environ.get(
                "REPRO_FAULT_STORE_WRITE"):
            # Atomic commits mean a SIGKILL, reset or partition must
            # never leave a *committed* entry corrupt.
            failures.append(f"{quarantined} quarantined artifacts "
                            "after chaos run (expected 0)")
    if args.expect_failover and \
            not run.client_counters.get("client_failovers"):
        failures.append("no failovers recorded; the degraded path "
                        "never ran (--expect-failover)")
    latencies = [record["elapsed"] for record in ok_records]
    served = {}
    for record in ok_records:
        served[record["served"]] = served.get(record["served"], 0) + 1
    metrics = {
        "requests": args.requests,
        "clients": args.clients,
        "benches": benches,
        "ok": len(ok_records),
        "rejected_expected": sum(
            1 for r in run.records
            if not r["ok"] and r.get("expected")),
        "failures": len(failures),
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(ok_records) / wall, 2)
        if wall > 0 else None,
        "latency_ms": {
            "p50": round(1e3 * percentile(latencies, 0.50), 2)
            if latencies else None,
            "p95": round(1e3 * percentile(latencies, 0.95), 2)
            if latencies else None,
            "max": round(1e3 * max(latencies), 2)
            if latencies else None,
        },
        "served": served,
        "distinct_keys_verified": distinct,
        "sigterm_mid": bool(args.sigterm_mid),
        "daemon_exit_code": daemon_rc,
        "client_counters": dict(run.client_counters),
    }
    if addresses:
        metrics["addresses"] = addresses
        metrics["cluster_size"] = len(addresses)
    if chaos_spec:
        metrics["net_chaos"] = chaos_spec
    if daemons:
        metrics["sigkill_one"] = bool(args.sigkill_one)
        metrics["cluster_exit_codes"] = cluster_rcs
        metrics["quarantined_files"] = quarantined
        metrics["cluster_daemons"] = [
            {"counters": stats.get("counters"),
             "supervisor": stats.get("supervisor"),
             "stores": stats.get("stores")}
            for stats in cluster_stats]
    if daemon_stats is not None:
        metrics["daemon"] = {
            "counters": daemon_stats.get("counters"),
            "supervisor": daemon_stats.get("supervisor"),
            "stores": daemon_stats.get("stores"),
        }
    return (0 if not failures else 1, metrics, failures)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, metrics, failures = run_load(args)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    for failure in failures:
        print(f"repro-serve-load: FAIL: {failure}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"repro-serve-load: {'ok' if code == 0 else 'FAILED'} "
          f"({metrics['ok']}/{metrics['requests']} ok, "
          f"{metrics['rejected_expected']} expected rejections, "
          f"{len(failures)} failures)",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
