"""The benchmark's workloads: which CLI invocations one pass makes, from a seed.

Standard library only, so that the set-up probe can build the configs
before anything but the program itself is imported.  Every operation is a
``qif-mzi`` invocation described once; the same description yields the
argv handed to ``qif_mzi.cli.main`` and the ``key = value`` text that the
set-up probe parses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PRESETS = ("design", "fig2a", "fig2b", "fig2c", "fig3", "fig4")
FORMATS = ("csv", "json")

#: Size of the large sweep: the order of the 501 x 501 baseline.
SWEEP_STEPS = 501

#: The dark-port probe.  r = 0 makes the DC exit pair unreachable, so the
#: correct outcome is exit 1 with the dark-port error and no table.
PROBE_KEYS = (("r", "0"), ("delta_over_w", "0.3"), ("phi", "0.75pi"), ("alpha", "0"))


@dataclass(frozen=True)
class Operation:
    """One ``qif-mzi`` invocation.

    ``preset`` is a ``configs/*.cfg`` stem or None; ``keys`` are command-line
    overrides in order.  ``known_fault`` marks the one operation that fails
    today because of a fault in the program.
    """

    label: str
    keys: tuple[tuple[str, str], ...]
    out: str
    preset: str | None = None
    mode: str | None = None
    known_fault: bool = False

    @property
    def fmt(self) -> str:
        return dict(self.keys).get("format", "csv")

    @property
    def kind(self) -> str:
        """Which output check applies: the mode, or ``dark-probe`` for the kept fault."""
        return "dark-probe" if self.known_fault else self.settings()["mode"]

    def config_path(self) -> Path | None:
        return None if self.preset is None else ROOT / "configs" / f"{self.preset}.cfg"

    def argv(self) -> list[str]:
        args = [] if self.mode is None else [self.mode]
        if self.preset is not None:
            args += ["--config", str(self.config_path())]
        for key, value in self.keys + (("out", self.out),):
            args += ["--" + key.replace("_", "-"), value]
        return args

    def config_text(self) -> str:
        lines = [] if self.preset is None else [self.config_path().read_text()]
        if self.mode is not None:
            lines.append(f"mode = {self.mode}")
        lines += [f"{key} = {value}" for key, value in self.keys + (("out", self.out),)]
        return "\n".join(lines) + "\n"

    def settings(self) -> dict[str, str]:
        """The operation's resolved ``key -> raw value`` pairs, preset keys included."""
        values: dict[str, str] = {}
        for line in self.config_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
        return values


def sweep_table(seed: int, outdir: Path) -> list[Operation]:
    # alpha = 0 and a delta/W range starting at 0 keep the removable dark
    # point (delta = 0, phi = pi) on the grid; the seed moves the far edge.
    rng = random.Random(seed)
    dmax = f"{rng.uniform(2.5, 3.5):.6f}"
    keys = (
        ("delta_over_w_min", "0"),
        ("delta_over_w_max", dmax),
        ("delta_over_w_steps", str(SWEEP_STEPS)),
        ("phi_min", "0"),
        ("phi_max", "2pi"),
        ("phi_steps", str(SWEEP_STEPS)),
        ("alpha", "0"),
        ("format", "csv"),
    )
    return [Operation("sweep", keys, str(outdir / "sweep.csv"), mode="sweep")]


def verify_oracles(seed: int, outdir: Path) -> list[Operation]:
    keys = (("seed", str(seed)), ("format", "csv"))
    return [Operation("verify", keys, str(outdir / "verify.csv"), mode="verify")]


def cli_modes(seed: int, outdir: Path) -> list[Operation]:
    # The presets and the probe are fixed; the seed draws the splitter r of
    # the ports table from a range where every exit pair stays lit.
    rng = random.Random(seed)
    ops = [
        Operation(f"{preset}.{fmt}", (("format", fmt),), str(outdir / f"{preset}.{fmt}"), preset=preset)
        for preset in PRESETS
        for fmt in FORMATS
    ]
    r = f"{rng.uniform(0.35, 0.85):.6f}"
    ports_keys = (("r", r), ("delta_over_w", "0.3"), ("phi", "0.75pi"), ("alpha", "0"), ("format", "csv"))
    ops.append(Operation("ports", ports_keys, str(outdir / "ports.csv"), mode="ports"))
    ops.append(
        Operation(
            "dark-probe", PROBE_KEYS + (("format", "csv"),), str(outdir / "dark-probe.csv"),
            mode="distributions", known_fault=True,
        )
    )
    return ops


WORKLOADS = {
    "sweep-table": sweep_table,
    "verify-oracles": verify_oracles,
    "cli-modes": cli_modes,
}


def operations(workload: str, seed: int, outdir: Path) -> list[Operation]:
    return WORKLOADS[workload](seed, outdir)
