"""Cycle-accurate T16 instruction-set simulator (the ARMulator role).

The simulator executes a linked :class:`~repro.link.image.Image` on a
chosen :class:`~repro.memory.hierarchy.SystemConfig` and reports the cycle
count under the shared timing model (:mod:`repro.memory.timing`):

* each instruction pays its 16-bit fetch at the pc (SPM / cache / main);
* loads and stores pay the data access at the operand width;
* PUSH/POP pay one 32-bit stack access per transferred register;
* taken branches pay the pipeline refill; MUL and SWI pay execute extras.

System calls (``swi``):

====== ==========================================
number behaviour
====== ==========================================
0      exit; r0 is the program's exit status
1      print r0 as a signed decimal (console)
2      print chr(r0 & 0xff) (console)
====== ==========================================

There is one executor and one pricer.  :meth:`Simulator.run` executes
the image once on the flat-array engine (:mod:`repro.sim.engine`),
which records the dynamic access stream as a
:class:`~repro.sim.trace.Trace`, and prices that stream under the
simulator's configuration with :func:`~repro.sim.replay.replay` (or,
for :func:`~repro.sim.trace.record_trace`, returns it unpriced).  The
modelled core has no timing feedback, so the stream is the same under
every configuration and recording needs no cache model.

:meth:`Simulator.run_oracle` is the execute layer's independent
oracle: a separate instruction dispatch over decoded
:class:`~repro.isa.instruction.Instr` objects that drives the
:class:`~repro.memory.hierarchy.MemoryHierarchy` ``Access`` path one
access at a time.  With ``profile=True`` it also counts fetches per
instruction address and data accesses per data address; with
``record_misses=True`` it attributes fetch and read misses per pc.  The
tests hold the executor, the trace-derived profiles
(:func:`repro.sim.profile.trace_counts`) and
:func:`~repro.sim.replay.replay_misses` to it bit for bit; no
production path runs it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..isa.encoding import IllegalInstruction, decode
from ..isa.opcodes import Cond, Op
from ..memory.hierarchy import MemoryHierarchy, SystemConfig
from ..memory.regions import MAIN_BASE, STACK_TOP
from ..memory.timing import (
    BRANCH_REFILL_CYCLES,
    instruction_extra_cycles,
)
from ..link.image import Image
from .engine import compile_program

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


class SimError(Exception):
    """Simulation failed (fault, illegal instruction, runaway)."""


class MemoryFault(SimError):
    """Unaligned or unmapped memory access."""


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    cycles: int
    instructions: int
    exit_code: int
    console: list = field(default_factory=list)
    cache_stats: object = None
    #: level name -> CacheStats for every cache in the hierarchy.
    level_stats: dict = field(default_factory=dict)
    # The per-address counters below are filled by oracle runs only
    # (:meth:`Simulator.run_oracle`); production reads them off traces.
    #: instruction address -> fetch count (``profile=True``).
    fetch_counts: dict = field(default_factory=dict)
    #: data address -> access count (``profile=True``).
    data_counts: dict = field(default_factory=dict)
    #: instruction address -> fetch miss count (``record_misses=True``).
    fetch_misses: dict = field(default_factory=dict)
    #: instruction address -> fetches that missed *every* cache level
    #: and were served by main memory (``record_misses=True``).
    fetch_main_misses: dict = field(default_factory=dict)
    #: instruction address -> data-read miss count
    #: (``record_misses=True``).
    read_misses: dict = field(default_factory=dict)


class Simulator:
    """Executes one image on one memory hierarchy."""

    def __init__(self, image: Image, config: SystemConfig):
        self.image = image
        self.config = config
        self.ram = bytearray(STACK_TOP)
        for base, payload in image.segments:
            self.ram[base:base + len(payload)] = payload
        self.code = self._predecode()
        self._spm_limit = config.spm_size
        self.regs = [0] * 16
        self.n = self.z = self.c = self.v = 0

    # -- setup ---------------------------------------------------------------

    def _predecode(self):
        """Decode all code objects once; execution then never re-decodes.

        Valid because T16 programs are not self-modifying (all placement is
        fixed at link time — the very property the paper leans on).
        """
        code = {}
        for obj in self.image.code_objects:
            addr = obj.base
            while addr < obj.end:
                halfword = int.from_bytes(self.ram[addr:addr + 2], "little")
                nxt = None
                if addr + 4 <= obj.end:
                    nxt = int.from_bytes(self.ram[addr + 2:addr + 4],
                                         "little")
                try:
                    instr = decode(halfword, addr, nxt)
                except IllegalInstruction:
                    # Literal pool data inside the code object; skip a
                    # halfword.  Execution flow never reaches pools.
                    addr += 2
                    continue
                code[addr] = instr
                addr += instr.size
        return code

    # -- memory ---------------------------------------------------------------

    def _check(self, addr, width):
        if addr % width:
            raise MemoryFault(f"unaligned {width}-byte access at {addr:#x}")
        if addr < self._spm_limit:
            return
        if MAIN_BASE <= addr and addr + width <= STACK_TOP:
            return
        raise MemoryFault(f"access to unmapped address {addr:#x}")

    def read_mem(self, addr, width, signed=False):
        self._check(addr, width)
        value = int.from_bytes(self.ram[addr:addr + width], "little",
                               signed=signed)
        return value

    def write_mem(self, addr, width, value):
        self._check(addr, width)
        self.ram[addr:addr + width] = (value & ((1 << (8 * width)) - 1)
                                       ).to_bytes(width, "little")

    # -- flag helpers ----------------------------------------------------------

    def _set_nz(self, result):
        self.n = 1 if result & _SIGN else 0
        self.z = 1 if result == 0 else 0
        return result

    def _add_flags(self, a, b, carry_in=0):
        total = a + b + carry_in
        result = total & _MASK
        self.c = 1 if total > _MASK else 0
        self.v = 1 if (~(a ^ b) & (a ^ result)) & _SIGN else 0
        return self._set_nz(result)

    def _sub_flags(self, a, b, carry_in=1):
        # ARM subtract: result = a - b - (1 - carry_in)
        total = a - b - (1 - carry_in)
        result = total & _MASK
        self.c = 1 if total >= 0 else 0
        self.v = 1 if ((a ^ b) & (a ^ result)) & _SIGN else 0
        return self._set_nz(result)

    def _cond_true(self, cond):
        return _COND_DISPATCH[cond](self.n, self.z, self.c, self.v)

    # -- run -------------------------------------------------------------------

    def run(self, max_steps=50_000_000, price=True):
        """Run from the image entry point until ``swi #0``: record the
        access stream once on the engine, then price it under this
        configuration.

        With ``price=False`` the recorded
        :class:`~repro.sim.trace.Trace` (split at this config's SPM) is
        returned unpriced; :func:`~repro.sim.trace.record_trace` takes
        that path, so every execution of an image is one ``run`` call.
        """
        # replay and trace import this module
        from .replay import replay
        from .trace import Trace, tag_counts
        program = compile_program(self.code, self.ram, self.regs,
                                  self._spm_limit, SimError, MemoryFault)
        regs = self.regs
        regs[13] = STACK_TOP
        regs[14] = 0
        # Flags cross the engine boundary in both directions (the engine
        # uses a truthiness encoding internally; see engine docstring).
        flags = program.flags
        flags[0] = _SIGN if self.n else 0
        flags[1] = self.z
        flags[2] = self.c
        flags[3] = _SIGN if self.v else 0
        base_cycles, steps, exit_code = program.run(self.image.entry,
                                                    max_steps)
        self.n = 1 if flags[0] else 0
        self.z = 1 if flags[1] else 0
        self.c = 1 if flags[2] else 0
        self.v = 1 if flags[3] else 0
        trace = Trace(ops=program.ops, op_counts=tag_counts(program.ops),
                      spm_counts=tuple(program.spm_counts),
                      base_cycles=base_cycles, instructions=steps,
                      exit_code=exit_code, console=tuple(program.console),
                      spm_size=self._spm_limit)
        if not price:
            return trace
        return replay(trace, self.config, max_steps)

    def run_oracle(self, max_steps=50_000_000, profile=False,
                   record_misses=False) -> SimResult:
        """The independent reference run: the recording interpreter
        over the :class:`MemoryHierarchy` ``Access`` path.

        Reports the same cycles, instructions, console and cache
        statistics as :meth:`run`, plus per-address counters when
        *profile* / *record_misses* ask for them.  Tests only.
        """
        regs = self.regs
        regs[13] = STACK_TOP
        regs[14] = 0
        pc = self.image.entry
        code = self.code
        hierarchy = MemoryHierarchy(self.config)
        console = []
        cycles = 0
        steps = 0
        exit_code = None
        fetch_counts = Counter()
        data_counts = Counter()
        fetch_misses = Counter()
        fetch_main_misses = Counter()
        read_misses = Counter()

        def data_read(instr_pc, addr, width, signed=False):
            nonlocal cycles
            value = self.read_mem(addr, width, signed)
            outcome = hierarchy.read(addr, width)
            cycles += outcome.cycles
            if profile:
                data_counts[addr] += 1
            if record_misses and outcome.missed:
                read_misses[instr_pc] += 1
            return value

        def data_write(addr, width, value):
            nonlocal cycles
            self.write_mem(addr, width, value)
            cycles += hierarchy.write(addr, width).cycles
            if profile:
                data_counts[addr] += 1

        while steps < max_steps:
            instr = code.get(pc)
            if instr is None:
                raise SimError(f"pc escaped code objects: {pc:#x}")
            fetch = hierarchy.fetch(pc)
            fetch_missed = fetch.missed
            from_main = fetch_missed and fetch.served_by == "main"
            cycles += fetch.cycles
            if instr.size == 4:  # BL is two halfword fetches
                second = hierarchy.fetch(pc + 2)
                fetch_missed = fetch_missed or second.missed
                from_main = from_main or (
                    second.missed and second.served_by == "main")
                cycles += second.cycles
            if profile:
                fetch_counts[pc] += 1
            if record_misses and fetch_missed:
                fetch_misses[pc] += 1
                if from_main:
                    fetch_main_misses[pc] += 1
            steps += 1
            op = instr.op
            next_pc = pc + instr.size

            if op is Op.MOVI:
                regs[instr.rd] = self._set_nz(instr.imm)
            elif op is Op.CMPI:
                self._sub_flags(regs[instr.rd], instr.imm)
            elif op is Op.ADDI:
                regs[instr.rd] = self._add_flags(regs[instr.rd], instr.imm)
            elif op is Op.SUBI:
                regs[instr.rd] = self._sub_flags(regs[instr.rd], instr.imm)
            elif op is Op.ADDR:
                regs[instr.rd] = self._add_flags(regs[instr.rn],
                                                 regs[instr.rm])
            elif op is Op.SUBR:
                regs[instr.rd] = self._sub_flags(regs[instr.rn],
                                                 regs[instr.rm])
            elif op is Op.ADD3:
                regs[instr.rd] = self._add_flags(regs[instr.rn], instr.imm)
            elif op is Op.SUB3:
                regs[instr.rd] = self._sub_flags(regs[instr.rn], instr.imm)
            elif op is Op.LSLI:
                value = regs[instr.rm]
                amount = instr.imm
                if amount:
                    self.c = (value >> (32 - amount)) & 1
                regs[instr.rd] = self._set_nz((value << amount) & _MASK)
            elif op is Op.LSRI:
                value = regs[instr.rm]
                amount = instr.imm
                if amount:
                    self.c = (value >> (amount - 1)) & 1
                regs[instr.rd] = self._set_nz(value >> amount)
            elif op is Op.ASRI:
                value = regs[instr.rm]
                amount = instr.imm
                signed = value - (1 << 32) if value & _SIGN else value
                if amount:
                    self.c = (signed >> (amount - 1)) & 1
                regs[instr.rd] = self._set_nz((signed >> amount) & _MASK)
            elif op is Op.MOVR:
                regs[instr.rd] = self._set_nz(regs[instr.rm])
            elif op in _ALU_HANDLERS:
                _ALU_HANDLERS[op](self, instr)
            elif op is Op.LDRPC:
                base = (pc + 4) & ~3
                regs[instr.rd] = data_read(pc, base + instr.imm, 4)
            elif op is Op.ADDPC:
                regs[instr.rd] = (((pc + 4) & ~3) + instr.imm) & _MASK
            elif op is Op.LDRSP:
                regs[instr.rd] = data_read(pc, regs[13] + instr.imm, 4)
            elif op is Op.STRSP:
                data_write(regs[13] + instr.imm, 4, regs[instr.rd])
            elif op is Op.ADDSPI:
                regs[instr.rd] = (regs[13] + instr.imm) & _MASK
            elif op is Op.SPADJ:
                regs[13] = (regs[13] + instr.imm) & _MASK
            elif op is Op.LDRWI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 4)
            elif op is Op.STRWI:
                data_write(regs[instr.rn] + instr.imm, 4, regs[instr.rd])
            elif op is Op.LDRHI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 2)
            elif op is Op.STRHI:
                data_write(regs[instr.rn] + instr.imm, 2, regs[instr.rd])
            elif op is Op.LDRBI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 1)
            elif op is Op.STRBI:
                data_write(regs[instr.rn] + instr.imm, 1, regs[instr.rd])
            elif op is Op.LDRW_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 4)
            elif op is Op.STRW_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 4,
                           regs[instr.rd])
            elif op is Op.LDRH_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 2)
            elif op is Op.STRH_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 2,
                           regs[instr.rd])
            elif op is Op.LDRB_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 1)
            elif op is Op.STRB_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 1,
                           regs[instr.rd])
            elif op is Op.LDRSH_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 2,
                    signed=True) & _MASK
            elif op is Op.LDRSB_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 1,
                    signed=True) & _MASK
            elif op is Op.PUSH:
                count = len(instr.reglist) + (1 if instr.with_link else 0)
                sp = regs[13] - 4 * count
                regs[13] = sp
                addr = sp
                for reg in instr.reglist:
                    data_write(addr, 4, regs[reg])
                    addr += 4
                if instr.with_link:
                    data_write(addr, 4, regs[14])
            elif op is Op.POP:
                addr = regs[13]
                for reg in instr.reglist:
                    regs[reg] = data_read(pc, addr, 4)
                    addr += 4
                if instr.with_link:
                    next_pc = data_read(pc, addr, 4) & ~1
                    addr += 4
                    cycles += BRANCH_REFILL_CYCLES
                regs[13] = addr
            elif op is Op.B:
                next_pc = instr.target
                cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BCC:
                if self._cond_true(instr.cond):
                    next_pc = instr.target
                    cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BL:
                regs[14] = pc + 4
                next_pc = instr.target
                cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BX:
                next_pc = regs[instr.rm] & ~1
                cycles += BRANCH_REFILL_CYCLES
            elif op is Op.SWI:
                cycles += instruction_extra_cycles(op)
                number = instr.imm
                if number == 0:
                    exit_code = regs[0]
                    break
                if number == 1:
                    value = regs[0]
                    if value & _SIGN:
                        value -= 1 << 32
                    console.append(str(value))
                elif number == 2:
                    console.append(chr(regs[0] & 0xFF))
                else:
                    raise SimError(f"unknown swi #{number} at {pc:#x}")
            elif op is Op.NOP:
                pass
            else:
                raise SimError(f"unhandled op {op!r} at {pc:#x}")

            if op is Op.MUL:
                cycles += instruction_extra_cycles(op)
            pc = next_pc
        else:
            raise SimError(f"exceeded {max_steps} steps (runaway program?)")

        return SimResult(
            cycles=cycles,
            instructions=steps,
            exit_code=exit_code,
            console=console,
            cache_stats=hierarchy.cache_stats,
            level_stats=hierarchy.level_stats,
            fetch_counts=fetch_counts,
            data_counts=data_counts,
            fetch_misses=fetch_misses,
            fetch_main_misses=fetch_main_misses,
            read_misses=read_misses,
        )


# -- two-address ALU handlers (module-level for a flat dispatch dict) ---------

def _h_and(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] & sim.regs[instr.rm])


def _h_eor(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] ^ sim.regs[instr.rm])


def _h_orr(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] | sim.regs[instr.rm])


def _h_bic(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(
        sim.regs[instr.rd] & ~sim.regs[instr.rm] & _MASK)


def _h_mvn(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(~sim.regs[instr.rm] & _MASK)


def _h_tst(sim, instr):
    sim._set_nz(sim.regs[instr.rd] & sim.regs[instr.rm])


def _h_neg(sim, instr):
    sim.regs[instr.rd] = sim._sub_flags(0, sim.regs[instr.rm])


def _h_cmp(sim, instr):
    sim._sub_flags(sim.regs[instr.rd], sim.regs[instr.rm])


def _h_cmn(sim, instr):
    sim._add_flags(sim.regs[instr.rd], sim.regs[instr.rm])


def _h_adc(sim, instr):
    sim.regs[instr.rd] = sim._add_flags(
        sim.regs[instr.rd], sim.regs[instr.rm], sim.c)


def _h_sbc(sim, instr):
    sim.regs[instr.rd] = sim._sub_flags(
        sim.regs[instr.rd], sim.regs[instr.rm], sim.c)


def _h_mul(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(
        (sim.regs[instr.rd] * sim.regs[instr.rm]) & _MASK)


def _shift_amount(sim, instr):
    return sim.regs[instr.rm] & 0xFF


def _h_lsl(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    if amount == 0:
        sim._set_nz(value)
        return
    if amount <= 32:
        sim.c = (value >> (32 - amount)) & 1
        result = (value << amount) & _MASK
    else:
        sim.c = 0
        result = 0
    sim.regs[instr.rd] = sim._set_nz(result)


def _h_lsr(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    if amount == 0:
        sim._set_nz(value)
        return
    if amount <= 32:
        sim.c = (value >> (amount - 1)) & 1
        result = value >> amount
    else:
        sim.c = 0
        result = 0
    sim.regs[instr.rd] = sim._set_nz(result)


def _h_asr(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    signed = value - (1 << 32) if value & _SIGN else value
    if amount == 0:
        sim._set_nz(value)
        return
    if amount >= 32:
        amount = 32
    sim.c = (signed >> (amount - 1)) & 1
    sim.regs[instr.rd] = sim._set_nz((signed >> amount) & _MASK)


def _h_ror(sim, instr):
    amount = _shift_amount(sim, instr) % 32
    value = sim.regs[instr.rd]
    if amount:
        value = ((value >> amount) | (value << (32 - amount))) & _MASK
        sim.c = (value >> 31) & 1
    sim.regs[instr.rd] = sim._set_nz(value)


_ALU_HANDLERS = {
    Op.AND: _h_and, Op.EOR: _h_eor, Op.ORR: _h_orr, Op.BIC: _h_bic,
    Op.MVN: _h_mvn, Op.TST: _h_tst, Op.NEG: _h_neg, Op.CMP: _h_cmp,
    Op.CMN: _h_cmn, Op.ADC: _h_adc, Op.SBC: _h_sbc, Op.MUL: _h_mul,
    Op.LSL: _h_lsl, Op.LSR: _h_lsr, Op.ASR: _h_asr, Op.ROR: _h_ror,
}


#: Condition -> predicate over (n, z, c, v); AL is unconditionally true.
_COND_DISPATCH = {
    Cond.EQ: lambda n, z, c, v: z == 1,
    Cond.NE: lambda n, z, c, v: z == 0,
    Cond.HS: lambda n, z, c, v: c == 1,
    Cond.LO: lambda n, z, c, v: c == 0,
    Cond.MI: lambda n, z, c, v: n == 1,
    Cond.PL: lambda n, z, c, v: n == 0,
    Cond.VS: lambda n, z, c, v: v == 1,
    Cond.VC: lambda n, z, c, v: v == 0,
    Cond.HI: lambda n, z, c, v: c == 1 and z == 0,
    Cond.LS: lambda n, z, c, v: c == 0 or z == 1,
    Cond.GE: lambda n, z, c, v: n == v,
    Cond.LT: lambda n, z, c, v: n != v,
    Cond.GT: lambda n, z, c, v: z == 0 and n == v,
    Cond.LE: lambda n, z, c, v: z == 1 or n != v,
    Cond.AL: lambda n, z, c, v: True,
}


def simulate(image: Image, config: SystemConfig, **kwargs) -> SimResult:
    """Convenience wrapper: build a Simulator and run it."""
    return Simulator(image, config).run(**kwargs)


def simulate_oracle(image: Image, config: SystemConfig,
                    **kwargs) -> SimResult:
    """Convenience wrapper around :meth:`Simulator.run_oracle`."""
    return Simulator(image, config).run_oracle(**kwargs)
