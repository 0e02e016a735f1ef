#!/usr/bin/env python3
"""Compare the command-line output of this tree with another tree's, run for run.

Usage: python scripts/compare_outputs.py OTHER_TREE

Each run of a fixed battery goes through ``qif_mzi.cli.main`` in a fresh
process, once with this tree's ``src/`` and once with ``OTHER_TREE/src``,
writing to the same ``--out`` path (the presets are read from this tree's
``configs/`` in both).  A run differs when its exit code, stdout, stderr or
the SHA-256 of its output file (or the file's absence) differs.  Each such
run is printed; the script exits 1 if any run differs and 0 if none does.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

POINT = ["--r", "0.4", "--delta-over-w", "0.5", "--phi", "1.1", "--alpha", "0.7"]
# phases that cancel the DC pair, and the splitters r = 0 and r = 1 that never reach it
DARK_PROBES = (["--delta-over-w", "0", "--phi", "pi"],
               ["--r", "0", "--delta-over-w", "0.3", "--phi", "0.75pi"],
               ["--r", "1", "--delta-over-w", "0.3", "--phi", "0.75pi"])

# run in the child: its first argument is the src/ directory to import qif_mzi from, the rest is the command line
_MAIN = "import sys; sys.path.insert(0, sys.argv.pop(1)); from qif_mzi.cli import main; sys.exit(main(sys.argv[1:]))"


def battery() -> list[tuple[str, list[str]]]:
    """Every run as (name, command line without ``--out``); a run writes the file ``name``."""
    runs = [(f"{config.stem}.{fmt}", ["--config", str(config), "--format", fmt])
            for config in sorted((REPO / "configs").glob("*.cfg")) for fmt in ("csv", "json")]
    runs += [(f"sweep-501-alpha-{alpha}.{fmt}",
              ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3", "--delta-over-w-steps", "501",
               "--phi-min", "0", "--phi-max", "2pi", "--phi-steps", "501", "--alpha", alpha, "--format", fmt])
             for alpha in ("0", "0.4") for fmt in ("csv", "json")]
    # an explicit 2 pi multiple, where the preset lets the tuning pick the nearest one
    runs.append(("design-tune-5.csv", ["--config", str(REPO / "configs" / "design.cfg"), "--tune-target-n", "5"]))
    runs.append(("ports.csv", ["ports", *POINT]))
    runs += [(f"distributions-{port}.csv", ["distributions", "--port", port, *POINT])
             for port in ("cc", "cd", "dc", "dd")]
    runs.append(("decompose.csv", ["decompose", *POINT[2:]]))  # decompose has no r key: the balanced splitter
    # seed 34 draws a marginal-suite point whose DC pair is dark although N >= 1e-3
    runs += [(f"verify-seed-{seed}.csv", ["verify", "--seed", str(seed)]) for seed in (3, 34, 12345)]
    runs += [(f"dark-probe-{k}.csv", ["distributions", *probe, "--alpha", "0"]) for k, probe in enumerate(DARK_PROBES)]
    return runs


def _outcome(src: Path, argv: list[str], out: Path) -> tuple:
    """(exit code, stdout, stderr, SHA-256 of ``out`` or None) of one run with qif_mzi imported from ``src``."""
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-c", _MAIN, str(src), *argv, "--out", str(out)],
                          capture_output=True, cwd=out.parent)
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, digest


def compare(other: Path, runs: list[tuple[str, list[str]]]) -> list[str]:
    """Names of the ``runs`` whose outcome differs between this tree and ``other``, each printed with what differs."""
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs:
            out = Path(tmp) / name
            ours = _outcome(REPO / "src", argv, out)
            theirs = _outcome(other / "src", argv, out)
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr", "sha256"), ours, theirs) if a != b]
            if parts:
                print(f"DIFFERS {name}: {', '.join(parts)}")
                differ.append(name)
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "qif_mzi").is_dir():
        print("usage: compare_outputs.py OTHER_TREE   (a tree holding src/qif_mzi)", file=sys.stderr)
        return 2
    runs = battery()
    differ = compare(Path(argv[0]).resolve(), runs)
    print(f"{len(runs) - len(differ)} of {len(runs)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
