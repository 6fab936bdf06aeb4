"""Aggregation of raw simulation profiles to per-object access counts.

The paper's knapsack benefit function needs, per memory object, how often
it is accessed during a typical run: instruction fetches per function and
data accesses per global.  :func:`trace_counts` reads address-level
counts off a recorded trace; :func:`build_profile` folds them onto the
placed objects of the profiled image.

Profiles are keyed by object *name*, so a profile taken on one layout (for
example the uncached baseline) remains valid for any other placement of the
same program — just as the paper profiles once and then explores many
scratchpad capacities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..link.image import Image
from .trace import TAG_FETCH, TAG_FETCH_CONT, Trace


@dataclass
class ObjectProfile:
    """Access statistics for one memory object."""

    name: str
    kind: str                 # "code" | "data"
    size: int
    #: instruction fetches (code) or load/store accesses (data).
    accesses: int = 0
    #: access breakdown by width in bytes (data objects).
    by_width: dict = field(default_factory=dict)


class ProgramProfile:
    """Per-object access counts for one program run."""

    def __init__(self, objects):
        self.objects = {p.name: p for p in objects}

    def __getitem__(self, name) -> ObjectProfile:
        return self.objects[name]

    def __contains__(self, name):
        return name in self.objects

    def __iter__(self):
        return iter(self.objects.values())

    def total_accesses(self) -> int:
        return sum(p.accesses for p in self.objects.values())


def trace_counts(trace: Trace):
    """``(fetch_counts, data_counts)`` address -> count dicts of *trace*.

    Fetch counts are the :data:`~repro.sim.trace.TAG_FETCH` entries per
    pc (one per executed instruction); data counts are the read and
    write entries per address.  SPM-resident accesses are kept only as
    per-tag totals, so the trace must be recorded with no scratchpad
    split — the paper profiles the all-main-memory baseline.
    """
    if any(trace.spm_counts):
        raise ValueError("SPM-resident accesses carry no addresses; "
                         "profile a trace recorded with no SPM split")
    fetch_counts = {}
    data_counts = {}
    for value, count in Counter(trace.ops).items():
        tag = value & 7
        if tag == TAG_FETCH:
            fetch_counts[value >> 3] = count
        elif tag != TAG_FETCH_CONT:
            addr = value >> 3
            data_counts[addr] = data_counts.get(addr, 0) + count
    return fetch_counts, data_counts


def build_profile(image: Image, fetch_counts: dict,
                  data_counts: dict) -> ProgramProfile:
    """Fold address -> count dicts onto *image*'s objects."""
    if not fetch_counts and not data_counts:
        raise ValueError("empty profile: no fetch or data counts")

    profiles = [
        ObjectProfile(name=obj.name, kind=obj.kind, size=obj.size)
        for obj in image.objects
    ]
    by_name = {p.name: p for p in profiles}

    # Sort object extents once; both count dicts are then folded by scan.
    extents = sorted(
        ((obj.base, obj.end, obj.name) for obj in image.objects))

    def owner(addr):
        # Linear-probe cache: accesses cluster heavily by object.
        for base, end, name in extents:
            if base <= addr < end:
                return name
        return None

    for addr, count in fetch_counts.items():
        name = owner(addr)
        if name is not None:
            by_name[name].accesses += count

    for addr, count in data_counts.items():
        name = owner(addr)
        if name is not None:
            prof = by_name[name]
            prof.accesses += count
    return ProgramProfile(profiles)
