"""Fresh-process probes of the benchmark: set-up time and peak resident memory.

    python3 perfbench/child.py setup <workload> <seed> <outdir>
        seconds from importing qif_mzi.cli to the workload's configs parsed
        and validated, without running a mode
    python3 perfbench/child.py rss <workload> <seed> <outdir>
        peak resident memory, in KiB, of a process that runs one pass

Each prints its figure as the last line of standard output.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import harness
import workloads


def main(argv: list[str]) -> int:
    probe, workload, seed, outdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    harness.prepare()
    ops = workloads.operations(workload, seed, outdir)
    if probe == "setup":
        start = time.perf_counter()
        import qif_mzi.cli as cli

        for op in ops:
            cli.parse_config(op.config_text())
        print(repr(time.perf_counter() - start))
        return 0
    if probe == "rss":
        import qif_mzi.cli as cli

        outdir.mkdir(parents=True, exist_ok=True)
        harness.run_pass(cli, ops)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0
    print(f"unknown probe {probe!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
