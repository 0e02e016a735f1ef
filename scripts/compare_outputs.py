#!/usr/bin/env python3
"""Compare the command-line output of this tree with another tree's, run for run.

Usage: python scripts/compare_outputs.py OTHER_TREE

Each run of a fixed battery goes through ``qif_mzi.cli.main`` in a fresh
process, once with this tree's ``src/`` and once with ``OTHER_TREE/src``,
writing to the same ``--out`` path (the presets are read from this tree's
``configs/`` in both); a run whose name ends in neither ``.csv`` nor
``.json`` gets no ``--out`` and writes only to stdout.  A run differs when
its exit code, stdout, stderr or the SHA-256 of its output file (or the
file's absence) differs.  Each such
run is printed; the script exits 1 if any run differs and 0 if none does.

Before the results it prints the platform fingerprint: the numpy version,
numpy's dispatch target for float64 ``exp``, the OpenBLAS configuration, the
core OpenBLAS picked at run time (and ``OPENBLAS_CORETYPE`` if set), the libc
version and the CPU model.  The output bytes are identical only between runs
with the same fingerprint.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

REPO = Path(__file__).resolve().parent.parent

POINT = ["--r", "0.4", "--delta-over-w", "0.5", "--phi", "1.1", "--alpha", "0.7"]
# phases that cancel the DC pair, and the splitters r = 0 and r = 1 that never reach it
DARK_PROBES = (["--delta-over-w", "0", "--phi", "pi"],
               ["--r", "0", "--delta-over-w", "0.3", "--phi", "0.75pi"],
               ["--r", "1", "--delta-over-w", "0.3", "--phi", "0.75pi"])

# run in the child: its first argument is the src/ directory to import qif_mzi from, the rest is the command line
_MAIN = "import sys; sys.path.insert(0, sys.argv.pop(1)); from qif_mzi.cli import main; sys.exit(main(sys.argv[1:]))"


def blas_core() -> str:
    """The core the bundled OpenBLAS dispatches to at run time, which the build configuration does not name."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def fingerprint() -> str:
    """One line naming what, besides the source, the output bytes depend on."""
    (exp,) = opt_func_info(func_name="^exp$", signature="float64")["exp"].values()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    parts = [f"numpy {np.__version__}", f"exp float64 {exp['current']} (available {exp['available']})",
             blas.get("openblas configuration", f"{blas['name']} {blas['version']}"), f"core {blas_core()}"]
    if "OPENBLAS_CORETYPE" in os.environ:
        parts.append(f"OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}")
    parts.append(" ".join(platform.libc_ver()))
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        parts += ["cpu " + line.partition(":")[2].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")][:1]
    return "platform: " + "; ".join(parts)


def battery() -> list[tuple[str, list[str]]]:
    """Every run as (name, command line without ``--out``); a run writes the file ``name``."""
    runs = [(f"{config.stem}.{fmt}", ["--config", str(config), "--format", fmt])
            for config in sorted((REPO / "configs").glob("*.cfg")) for fmt in ("csv", "json")]
    runs += [(f"sweep-501-alpha-{alpha}.{fmt}",
              ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3", "--delta-over-w-steps", "501",
               "--phi-min", "0", "--phi-max", "2pi", "--phi-steps", "501", "--alpha", alpha, "--format", fmt])
             for alpha in ("0", "0.4") for fmt in ("csv", "json")]
    # writer blocks that slice a phi row, and a short last block of delta rows; the summary alone, with no table
    runs += [(f"sweep-{shape}.{fmt}", ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3",
                                       "--delta-over-w-steps", n_delta, "--phi-min", "0", "--phi-max", "2pi",
                                       "--phi-steps", n_phi, "--alpha", alpha, "--format", fmt])
             for shape, n_delta, n_phi, alpha in (("2x9001", "2", "9001", "0"), ("37x113", "37", "113", "0.4"))
             for fmt in ("csv", "json")]
    runs.append(("sweep-501-summary", ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3",
                                       "--delta-over-w-steps", "501", "--phi-min", "0", "--phi-max", "2pi",
                                       "--phi-steps", "501", "--alpha", "0"]))
    # an explicit 2 pi multiple, where the preset lets the tuning pick the nearest one
    runs.append(("design-tune-5.csv", ["--config", str(REPO / "configs" / "design.cfg"), "--tune-target-n", "5"]))
    # beams 20 um apart for a metre: four validity checks print FAIL and write a pass cell of 0
    runs += [(f"design-checks-fail.{fmt}", ["--config", str(REPO / "configs" / "design.cfg"), "--separation-m", "2e-5",
                                            "--length-m", "1", "--format", fmt]) for fmt in ("csv", "json")]
    runs.append(("ports.csv", ["ports", *POINT]))
    runs += [(f"distributions-{port}.csv", ["distributions", "--port", port, *POINT])
             for port in ("cc", "cd", "dc", "dd")]
    # dc, the default port, runs as JSON below
    runs += [(f"distributions-{port}.json", ["distributions", "--port", port, *POINT, "--format", "json"])
             for port in ("cc", "cd", "dd")]
    runs.append(("decompose.csv", ["decompose", *POINT[2:]]))  # decompose has no r key: the balanced splitter
    json = "--format", "json"
    runs += [("ports.json", ["ports", *POINT, *json]), ("distributions-dc.json", ["distributions", *POINT, *json]),
             ("decompose.json", ["decompose", *POINT[2:], *json])]
    # delta = 0: the CD mean of p1 and the TOTAL mean of p2 are exact zeros, computed as -0.0
    runs += [(f"ports-delta-0.{fmt}", ["ports", "--delta-over-w", "0", "--phi", "0.75pi", "--alpha", "0",
                                       "--format", fmt]) for fmt in ("csv", "json")]
    # seed 34 draws a marginal-suite point whose DC pair is dark although N >= 1e-3
    runs += [(f"verify-seed-{seed}.csv", ["verify", "--seed", str(seed)]) for seed in (3, 34, 12345)]
    # seeds of 1, 2, 3 and 5 32-bit words: only the last has words beyond the seeding pool of four
    runs += [(f"verify-seed-{seed}.csv", ["verify", "--seed", str(seed)]) for seed in (0, 2**32, 2**64 + 12345, 10**40)]
    runs.append((f"verify-seed-{10**40}.json", ["verify", "--seed", str(10**40), "--format", "json"]))
    runs += [(f"dark-probe-{k}.csv", ["distributions", *probe, "--alpha", "0"]) for k, probe in enumerate(DARK_PROBES)]
    # the largest kick the +-8 W report grid holds, delta/W = 3.5, whose tails take the exponent forms, and two kicks
    # that a branch truncates
    runs += [(f"{mode}-kick-3.5.{fmt}", [mode, "--delta-over-w", "3.5", "--phi", "0.75pi", "--alpha", "0",
                                         "--format", fmt])
             for mode in ("distributions", "decompose") for fmt in ("csv", "json")]
    runs += [(f"truncated-{mode}.csv", [mode, "--delta-over-w", kick, "--phi", "0.75pi", "--alpha", "0"])
             for mode, kick in (("distributions", "10"), ("decompose", "4"))]
    # runs that stop before a mode's modules load, and the design's config errors, raised in RunConfig.design
    # after it imports experiment: exit 2 and no table
    design = ["--config", str(REPO / "configs" / "design.cfg")]
    runs.append(("help", ["--help"]))
    runs += [(f"{name}.csv", argv) for name, argv in (
        ("unknown-mode", ["nosuchmode"]), ("verify-seed-negative", ["verify", "--seed", "-1"]),
        ("design-speed-1e300", [*design, "--speed-m-per-s", "1e300"]),
        ("design-separation-1e-300", [*design, "--separation-m", "1e-300"]))]
    return runs


def _outcome(src: Path, argv: list[str], out: Path) -> tuple:
    """(exit code, stdout, stderr, SHA-256 of ``out`` or None) of one run with qif_mzi imported from ``src``."""
    out.unlink(missing_ok=True)
    writes = ["--out", str(out)] if out.suffix in (".csv", ".json") else []
    proc = subprocess.run([sys.executable, "-c", _MAIN, str(src), *argv, *writes], capture_output=True, cwd=out.parent)
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
    print(fingerprint())
    runs = battery()
    differ = compare(Path(argv[0]).resolve(), runs)
    print(f"{len(runs) - len(differ)} of {len(runs)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
