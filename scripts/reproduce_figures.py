#!/usr/bin/env python3
"""Regenerate the plot-ready data behind every bundled preset into ./out/.

Each ``configs/*.cfg`` preset, in sorted order (``verify`` last), maps to one
CLI invocation; rerunning produces byte-identical files.  The script stops at
the first run that exits nonzero, a failed ``verify`` suite included, and
exits with its status.  Plotting itself is out of scope - the CSVs are ready
for any tool.
"""

import sys
from pathlib import Path

from qif_mzi.cli import main

REPO = Path(__file__).resolve().parent.parent


def run() -> int:
    out_dir = REPO / "out"
    out_dir.mkdir(exist_ok=True)
    for config in sorted((REPO / "configs").glob("*.cfg")):
        target = out_dir / f"{config.stem}.csv"
        print(f"--- {config.stem} -> {target}")
        code = main(["--config", str(config), "--out", str(target)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
