"""Cycle costs per memory access — the paper's Table 1, plus CPU overheads.

Table 1 of the paper ("Cycles per memory access (access + waitstates)"):

============== ============= ============
Access width   Main memory   Scratchpad
============== ============= ============
Byte (8 bit)   2             1
Half (16 bit)  2             1
Word (32 bit)  4             1
============== ============= ============

Main memory on the modelled AT91EB01-style board is 16 bits wide: an 8- or
16-bit access takes one access cycle plus one waitstate; a 32-bit access
takes two bus transfers (1 + 3 waitstates = 4 cycles).  The scratchpad runs
at processor speed: one cycle at any width.

The same module also centralises the (ARM7TDMI-flavoured) execution-cycle
model so the simulator and the WCET analyser cannot diverge:

* every instruction costs its fetch (a 16-bit access at the pc) plus
  :data:`EXTRA_CYCLES` for its class;
* taken branches add :data:`BRANCH_REFILL_CYCLES` for the pipeline refill;
* loads/stores add the data access at the operand width;
* PUSH/POP add one data access per transferred register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..isa.opcodes import Op
from .regions import RegionKind

#: Main-memory cycles by access width in bytes (Table 1).
MAIN_CYCLES = {1: 2, 2: 2, 4: 4}

#: Scratchpad cycles by access width in bytes (Table 1).
SPM_CYCLES = {1: 1, 2: 1, 4: 1}

#: Cycles for a cache hit (any width).
CACHE_HIT_CYCLES = 1

#: Extra pipeline-refill cycles for a taken branch / call / return.
BRANCH_REFILL_CYCLES = 2

#: Extra execute cycles beyond fetch + memory, per opcode.
EXTRA_CYCLES = {Op.MUL: 3, Op.SWI: 2}


@dataclass(frozen=True)
class AccessTiming:
    """Cycles per access for each region kind, by width in bytes."""

    main: dict = field(default_factory=lambda: dict(MAIN_CYCLES))
    spm: dict = field(default_factory=lambda: dict(SPM_CYCLES))

    @cached_property
    def key(self) -> tuple:
        """Both tables as one hashable value, for memo keys.

        Flattened once per object: the dict fields make the dataclass
        itself unhashable, and every default config shares the one
        Table 1 instance, so repeated lookups pay only a hash.
        """
        return (tuple(sorted(self.main.items())),
                tuple(sorted(self.spm.items())))

    def cycles(self, kind: str, width: int) -> int:
        """Cycle count for one uncached access of *width* bytes."""
        table = self.spm if kind == RegionKind.SPM else self.main
        try:
            return table[width]
        except KeyError:
            raise ValueError(f"unsupported access width {width}") from None

    def line_fill_cycles(self, line_size: int) -> int:
        """Cycles to fill a cache line from main memory.

        The line is transferred as 32-bit words with no burst support, as in
        the paper: a 16-byte line is 4 word accesses of 4 cycles each, i.e.
        "12 additional waitstates" on top of the 4 access cycles.
        """
        if line_size % 4:
            raise ValueError("line size must be a multiple of 4 bytes")
        return (line_size // 4) * self.main[4]

    @classmethod
    def table1(cls) -> "AccessTiming":
        """The exact timing of the paper's Table 1."""
        return cls()


def instruction_extra_cycles(op: Op) -> int:
    """Execute-stage cycles beyond fetch and data access for *op*."""
    return EXTRA_CYCLES.get(op, 0)
