"""External trace ingestion: round trips, foreign formats, rejection.

Three properties pin the ingestion path down:

* **round trip** — ``dump_trace`` of a natively recorded trace parses
  back to a bit-identical :class:`Trace` (same packed ops words, same
  metadata), and the parsed trace replays and *sweeps* to the same
  results as the original, so traces can move between machines as text;
* **foreign formats** — Pin ``pinatrace``-style and PredicMem-style CSV
  streams parse to exactly the packed representation the documented
  synthesis rule prescribes, and replaying the ingested trace is
  bit-identical to replaying an equivalent natively constructed one;
* **rejection** — malformed or truncated input raises
  :class:`TraceFormatError` naming the offending line, never a silent
  half-trace.
"""

import gzip
import io
import random
from array import array

import pytest

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import (
    Trace,
    TraceFormatError,
    dump_trace,
    load_trace,
    parse_trace,
    record_trace,
    simulate_oracle,
)
from repro.sim.ingest import save_trace
from repro.sim.replay import replay, replay_misses, replay_sweep
from repro.sim.trace import READ_TAGS, TAG_FETCH, WRITE_TAGS

SWEEP_SIZES = (64, 128, 256, 512)


def _native_trace(bench="crc"):
    image = link(compile_source(get(bench).source()).program)
    return record_trace(image, 0)


def _dump_lines(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def _assert_traces_equal(parsed, original):
    assert parsed.ops == original.ops
    assert parsed.op_counts == original.op_counts
    assert parsed.spm_counts == original.spm_counts
    assert parsed.base_cycles == original.base_cycles
    assert parsed.instructions == original.instructions
    assert parsed.exit_code == original.exit_code
    assert parsed.console == original.console
    assert parsed.spm_size == original.spm_size


def _assert_same_result(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.exit_code == b.exit_code
    assert a.console == b.console


class TestRoundTrip:
    def test_bitwise_roundtrip(self):
        original = _native_trace()
        parsed = parse_trace(_dump_lines(original).splitlines())
        _assert_traces_equal(parsed, original)

    def test_dump_emits_version_3_runs(self):
        text = _dump_lines(_native_trace())
        lines = text.splitlines()
        assert lines[0] == "# repro-trace 3"
        assert any(" x" in line for line in lines
                   if not line.startswith("#"))

    def test_version_1_files_still_load(self):
        # Pre-RLE dumps carry one record per access; the parser keeps
        # accepting them unchanged.
        parsed = parse_trace(["# repro-trace 1",
                              "F 0x8000", "F 0x8002", "R4 0x9000"])
        assert list(parsed.ops) == [(0x8000 << 3),
                                    (0x8002 << 3),
                                    (0x9000 << 3) | READ_TAGS[4]]

    def test_version_3_run_records_expand(self):
        parsed = parse_trace(["# repro-trace 3",
                              "F 0x8000 x3 s2",     # 0x8000/2/4
                              "R4 0x9000 x2",       # repeated word read
                              "W2 0xa000"])
        expect = [(0x8000 << 3), (0x8002 << 3), (0x8004 << 3),
                  (0x9000 << 3) | READ_TAGS[4],
                  (0x9000 << 3) | READ_TAGS[4],
                  (0xa000 << 3) | WRITE_TAGS[2]]
        assert list(parsed.ops) == expect
        assert parsed.op_counts[TAG_FETCH] == 3

    def test_run_roundtrip_random_traces(self):
        rng = random.Random(0xBEEF)
        ops = array("Q")
        counts = [0] * 8
        addr = 0x8000
        for _ in range(500):
            if rng.random() < 0.7:
                addr += 2
                tag = TAG_FETCH
            else:
                addr = 0x9000 + rng.randrange(64) * 4
                tag = rng.choice((READ_TAGS[4], WRITE_TAGS[4]))
            ops.append((addr << 3) | tag)
            counts[tag] += 1
        original = Trace(ops=ops, op_counts=tuple(counts),
                         spm_counts=(0,) * 8, base_cycles=7,
                         instructions=counts[TAG_FETCH], exit_code=0,
                         console=(), spm_size=0)
        parsed = parse_trace(_dump_lines(original).splitlines())
        _assert_traces_equal(parsed, original)

    def test_roundtrip_preserves_console_and_spm_counts(self):
        source = get("crc").source()
        program = compile_source(source).program
        chosen = [name for name, _kind, size
                  in sorted(program.memory_objects(),
                            key=lambda o: (o[2], o[0]))][:3]
        image = link(program, spm_size=512, spm_objects=chosen)
        original = record_trace(image, 512)
        assert sum(original.spm_counts) > 0
        parsed = parse_trace(_dump_lines(original).splitlines())
        _assert_traces_equal(parsed, original)

    def test_ingested_replay_bit_identical(self):
        original = _native_trace()
        parsed = parse_trace(_dump_lines(original).splitlines())
        for config in (SystemConfig.uncached(),
                       SystemConfig.cached(CacheConfig(size=256)),
                       SystemConfig.cached(CacheConfig(size=512, assoc=2)),
                       SystemConfig.two_level(CacheConfig(size=128),
                                              CacheConfig(size=512))):
            _assert_same_result(replay(parsed, config),
                                replay(original, config))
            fetch, main = replay_misses(parsed, config)
            fetch0, main0 = replay_misses(original, config)
            assert fetch == fetch0 and main == main0

    def test_ingested_sweep_bit_identical(self):
        original = _native_trace()
        parsed = parse_trace(_dump_lines(original).splitlines())
        configs = [SystemConfig.cached(CacheConfig(size=size))
                   for size in SWEEP_SIZES]
        for swept, direct in zip(replay_sweep(parsed, configs),
                                 replay_sweep(original, configs)):
            _assert_same_result(swept, direct)

    def test_gzip_file_roundtrip(self, tmp_path):
        original = _native_trace()
        path = tmp_path / "crc.trace.gz"
        save_trace(original, path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("# repro-trace")
        _assert_traces_equal(load_trace(path), original)

    def test_plain_file_roundtrip(self, tmp_path):
        original = _native_trace()
        path = tmp_path / "crc.trace"
        save_trace(original, path)
        _assert_traces_equal(load_trace(path), original)


class TestForeignFormats:
    def _pin_lines(self, records):
        return [f"{ip:#x}: {kind} {addr:#x}" for ip, kind, addr in records]

    def _expected_packed(self, records, width=4):
        """The documented synthesis: one fetch per ip *change*."""
        ops = array("Q")
        last_ip = None
        for ip, kind, addr in records:
            if ip != last_ip:
                ops.append((ip << 3) | TAG_FETCH)
                last_ip = ip
            tags = READ_TAGS if kind == "R" else WRITE_TAGS
            ops.append((addr << 3) | tags[width])
        return ops

    def _random_records(self, seed, count=2000):
        rng = random.Random(seed)
        base = 0x40_0000
        records = []
        ip = base
        for _ in range(count):
            if rng.random() < 0.7:
                ip += 2
            kind = "R" if rng.random() < 0.6 else "W"
            addr = 0x80_0000 + rng.randrange(512) * 4
            records.append((ip, kind, addr))
        return records

    def test_pin_parse_matches_synthesis_rule(self):
        records = self._random_records(1)
        trace = parse_trace(self._pin_lines(records), fmt="pin")
        assert trace.ops == self._expected_packed(records)
        assert trace.base_cycles == 0
        assert trace.exit_code == 0
        assert trace.spm_size == 0
        assert trace.instructions == trace.op_counts[TAG_FETCH]

    @pytest.mark.parametrize("seed", range(3))
    def test_pin_replay_and_sweep_match_native_equivalent(self, seed):
        """An ingested stream prices identically to the same packed
        stream constructed natively — replay and single-pass sweep."""
        records = self._random_records(seed)
        ingested = parse_trace(self._pin_lines(records), fmt="pin")
        native = Trace(ops=self._expected_packed(records),
                       op_counts=ingested.op_counts,
                       spm_counts=(0,) * 8, base_cycles=0,
                       instructions=ingested.instructions, exit_code=0,
                       console=(), spm_size=0)
        configs = [SystemConfig.cached(CacheConfig(size=size))
                   for size in SWEEP_SIZES]
        for config in configs:
            _assert_same_result(replay(ingested, config),
                                replay(native, config))
        for swept, config in zip(replay_sweep(ingested, configs), configs):
            _assert_same_result(swept, replay(native, config))

    def test_pin_explicit_width_and_autodetect(self):
        trace = parse_trace(["0x10: R 0x100 2", "0x12: W 0x104 1"])
        assert [v & 7 for v in trace.ops] == \
            [TAG_FETCH, READ_TAGS[2], TAG_FETCH, WRITE_TAGS[1]]

    def test_predicmem_csv(self):
        trace = parse_trace(["4096,32768", "4096;32772", "4098,32768"])
        assert [v & 7 for v in trace.ops] == \
            [TAG_FETCH, READ_TAGS[4], READ_TAGS[4],
             TAG_FETCH, READ_TAGS[4]]
        assert trace.ops[0] >> 3 == 4096
        assert trace.instructions == 2

    def test_comments_and_blank_lines_ignored(self):
        trace = parse_trace(["# a comment", "", "0x10: R 0x100",
                             "// another", "0x12: W 0x104"], fmt="pin")
        assert len(trace.ops) == 4


class TestRejection:
    def test_empty_input(self):
        with pytest.raises(TraceFormatError, match="empty"):
            parse_trace([])

    def test_undetectable_first_line(self):
        with pytest.raises(TraceFormatError, match="auto-detect"):
            parse_trace(["what is this"])

    def test_unknown_format_name(self):
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            parse_trace(["0x10: R 0x100"], fmt="elf")

    def test_pin_bad_kind_names_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(["0x10: R 0x100", "0x12: X 0x104"], fmt="pin")

    def test_pin_bad_address_names_line(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace(["0x10: R zork"], fmt="pin")

    def test_pin_bad_width(self):
        with pytest.raises(TraceFormatError, match="size 3"):
            parse_trace(["0x10: R 0x100 3"], fmt="pin")

    def test_pin_truncated_record(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace(["0x10: R"], fmt="pin")

    def test_csv_truncated_record(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(["4096,32768", "4098"], fmt="predicmem")

    def test_address_out_of_range(self):
        with pytest.raises(TraceFormatError, match="out of range"):
            parse_trace([f"{1 << 62}: R 0x100"], fmt="pin")

    def test_native_record_before_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace(["F 0x100"], fmt="repro")

    def test_native_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(["# repro-trace 1", "Q 0x100"])

    def test_native_bad_metadata(self):
        with pytest.raises(TraceFormatError, match="base_cycles"):
            parse_trace(["# repro-trace 1", "# base_cycles soon"])

    def test_native_bad_spm_counts_arity(self):
        with pytest.raises(TraceFormatError, match="8 fields"):
            parse_trace(["# repro-trace 1", "# spm_counts 1 2 3"])

    def test_native_version_mismatch(self):
        with pytest.raises(TraceFormatError, match="version"):
            parse_trace(["# repro-trace 99", "F 0x100"])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(tmp_path / "missing.trace")

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        path.write_bytes(b"definitely not gzip")
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(path)


def test_ingested_trace_rejects_mismatched_spm_config():
    trace = parse_trace(["0x10: R 0x100"], fmt="pin")
    with pytest.raises(ValueError, match="SPM"):
        replay(trace, SystemConfig.scratchpad(512))


def test_roundtrip_of_generated_program(tmp_path):
    """gen -> trace -> export -> ingest -> replay == the oracle."""
    from repro.gen import generate
    program = generate(23, "small")
    image = link(compile_source(program.source).program)
    original = record_trace(image, 0)
    path = tmp_path / "gen.trace"
    save_trace(original, path)
    parsed = load_trace(path)
    _assert_traces_equal(parsed, original)
    config = SystemConfig.cached(CacheConfig(size=128))
    _assert_same_result(replay(parsed, config),
                        simulate_oracle(image, config))
