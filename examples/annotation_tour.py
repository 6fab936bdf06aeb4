#!/usr/bin/env python3
"""Figure 2 tour: the annotations a WCET analyser needs, auto-generated.

The paper stresses that supporting a scratchpad in aiT costs *only* a
memory-region annotation, and that all annotations (regions, loop bounds,
array access ranges) are generated automatically from linker/simulator
information.  This example reproduces that artefact for the ADPCM
benchmark with a 256-byte scratchpad, then runs the analysis and prints
the per-function WCET report.
"""

from repro.benchmarks import get
from repro.link import link
from repro.memory import SystemConfig
from repro.wcet import analyze_wcet, format_annotations, \
    generate_annotations
from repro.spm import allocate_energy_optimal
from repro.workflow import Workflow

SPM_SIZE = 256


def main():
    workflow = Workflow(get("adpcm").source())

    allocation = allocate_energy_optimal(workflow.program,
                                         workflow.profile(), SPM_SIZE)
    image = link(workflow.program, spm_size=SPM_SIZE,
                 spm_objects=allocation.objects)
    config = SystemConfig.scratchpad(SPM_SIZE)

    print("=== generated annotation file (Figure 2 format) ===\n")
    print(format_annotations(generate_annotations(image, config)))

    print("=== placement map ===\n")
    print(image.map_report())

    print("\n=== WCET report ===\n")
    print(analyze_wcet(image, config).report())


if __name__ == "__main__":
    main()
