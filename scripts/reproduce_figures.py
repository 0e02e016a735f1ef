#!/usr/bin/env python3
"""Regenerate the plot-ready data behind every bundled preset into ./out/.

Each preset maps to one CLI invocation; rerunning produces byte-identical
files.  The script stops at the first run that exits nonzero, a failed
``verify`` suite included, and exits with its status.  Plotting itself is
out of scope - the CSVs are ready for any tool.
"""

import sys
from pathlib import Path

from qif_mzi.cli import main

REPO = Path(__file__).resolve().parent.parent
PRESETS = ("fig2a", "fig2b", "fig2c", "fig3", "fig4", "design", "verify")


def run() -> int:
    out_dir = REPO / "out"
    out_dir.mkdir(exist_ok=True)
    for name in PRESETS:
        config = REPO / "configs" / f"{name}.cfg"
        target = out_dir / f"{name}.csv"
        print(f"--- {name} -> {target}")
        code = main(["--config", str(config), "--out", str(target)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
