"""Correctness gates: every answer a run produces is checked here.

Each gate returns a list of failure messages, one per failed answer,
so ``len(failures)`` counts into the run's ``failed``.  The expected
values in ``expected.json`` were captured from the program when the
benchmark was added: the sha256 of every experiment's text, and the
committed ``BENCH_wcet.json`` bounds of g721, adpcm and multisort.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def regen_failures(experiments: dict, expected: dict) -> list:
    """paper-regen: each experiment's text digest equals the captured
    one, and no experiment is missing or unexpected."""
    failures = []
    for name, digest in expected.items():
        got = experiments.get(name, {}).get("sha256")
        if got != digest:
            failures.append(f"{name}: text sha256 {got} != {digest}")
    for name in experiments:
        if name not in expected:
            failures.append(f"{name}: experiment not in expected.json")
    return failures


def dse_failures(records, program_expected=None, bench_wcet=None) -> list:
    """cache-dse: for one program's point records,

    * the WCET bound is at least the simulated cycles;
    * a generated program's exit code and console equal the
      generator's prediction (*program_expected* = (exit, console));
    * a suite program's bound under a ``BENCH_wcet.json`` shape equals
      the committed one (*bench_wcet* = {shape: wcet}).
    """
    failures = []
    seen = set()
    for record in records:
        where = (f"{record['program']} {record['shape']} "
                 f"persistence={record['persistence']}")
        problems = []
        if record["wcet"] < record["cycles"]:
            problems.append(f"wcet {record['wcet']} < simulated "
                            f"{record['cycles']}")
        if program_expected is not None:
            exit_code, console = program_expected
            if record["exit_code"] != exit_code:
                problems.append(f"exit {record['exit_code']} != "
                                f"{exit_code}")
            if tuple(record["console"]) != tuple(console):
                problems.append("console differs from the generator's")
        if bench_wcet and not record["persistence"] \
                and record["shape"] in bench_wcet:
            seen.add(record["shape"])
            want = bench_wcet[record["shape"]]
            if record["wcet"] != want:
                problems.append(f"wcet {record['wcet']} != committed "
                                f"{want}")
        if problems:
            failures.append(f"{where}: {'; '.join(problems)}")
    for shape in sorted(set(bench_wcet or ()) - seen):
        program = records[0]["program"] if records else "?"
        failures.append(f"{program} {shape}: shape was not evaluated")
    return failures


def serve_failures(answers, direct: dict) -> list:
    """serve-mixed: every answer is ok, served the way its class
    demands (``memo`` for a hit, ``computed`` for a cold request), and
    its result equals the direct ``evaluate_request`` result.

    *answers* are dicts with ``key``, ``want`` (the served kind) and
    ``response`` (the envelope); *direct* maps key -> result.
    """
    failures = []
    for answer in answers:
        response = answer["response"]
        key = answer["key"]
        if not response.get("ok"):
            failures.append(f"{key}: error {response.get('error')}")
            continue
        if response.get("served") != answer["want"]:
            failures.append(f"{key}: served {response.get('served')!r}, "
                            f"want {answer['want']!r}")
            continue
        if key not in direct:
            failures.append(f"{key}: no direct result to compare")
            continue
        if canonical_json(response.get("result")) != \
                canonical_json(direct[key]):
            failures.append(f"{key}: result differs from direct "
                            "evaluate_request")
    return failures


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
