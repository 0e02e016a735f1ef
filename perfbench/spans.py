"""In-memory spans around the public functions of qif_mzi's layers.

The tracer replaces module and class attributes of the program with
wrappers while it is installed and restores them on removal; the program's
files are not changed.  A span's self time is its duration minus the time
covered by the spans opened inside it.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "analytic", "numeric", "experiment", "verify", "core")

VERIFY_CHECKS = (
    "check_marginal_oracle",
    "check_momentum_kick",
    "check_port_sums",
    "check_mean_conventions",
    "check_purity_routes",
)


def _table_counts(args, kwargs, result):
    rows, columns = args[1], args[0]
    return {"cells": len(rows) * len(columns), "bytes": len(result)}  # the tables are ASCII


def _surface_points(args, kwargs, result):
    return {"points": result.mean.size}


def _joint_bytes(args, kwargs, result):
    # Computed, not measured: the complex n x n joint field plus its real density.
    n = result.grid.n
    return {"bytes_computed": 24 * n * n}


def targets(modules) -> list[tuple[str, object, str, object]]:
    """(metric group, owner, attribute, counter) for every wrapped function."""
    cli, analytic, numeric = modules["cli"], modules["analytic"], modules["numeric"]
    experiment, verify, core = modules["experiment"], modules["verify"], modules["core"]
    out = [
        ("cli.config", cli, "parse_config_text", None),
        ("cli.config", cli, "build_config", None),
        ("cli.execute", cli, "execute", None),
        ("cli.write_table", cli, "write_table", _table_counts),
        ("cli.main", cli, "main", None),
        ("analytic.mean_surface", analytic, "mean_surface", _surface_points),
        ("numeric.joint_marginal_oracle", numeric, "joint_marginal_oracle", _joint_bytes),
        ("numeric.kernel_purity", numeric, "kernel_purity", None),
        ("numeric.momentum_kick_oracle", numeric, "momentum_kick_oracle", None),
        ("numeric.quadrature", numeric.MomentumGrid, "integrate", None),
        ("numeric.quadrature", numeric.MomentumGrid, "density_mean", None),
        ("core.packet", core.GaussianPacket, "__call__", None),
        ("experiment.design", experiment, "derive_setup", None),
        ("experiment.design", experiment, "tune_separation", None),
    ]
    for name in ("marginal_density", "term_decomposition", "port_marginal_density"):
        out.append(("analytic.density", analytic, name, None))
    for name in ("port_amplitudes", "port_probabilities", "port_mean_momenta", "ehrenfest_check"):
        out.append(("analytic.ports", analytic, name, None))
    for name in ("postselect_norm", "mean_postselected", "mean_postselected_packet_overlap", "reduced_state"):
        out.append(("analytic.scalar", analytic, name, None))
    for name in VERIFY_CHECKS:
        out.append((f"verify.{name}", verify, name, None))
    return out


#: Per-layer metrics in report order: (name, unit).
METRICS = (
    ("cli.config.s", "s"),
    ("cli.config.calls", "count"),
    ("cli.execute.self_s", "s"),
    ("cli.write_table.s", "s"),
    ("cli.write_table.cells", "count"),
    ("cli.write_table.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("analytic.mean_surface.s", "s"),
    ("analytic.mean_surface.points", "count"),
    ("analytic.density.s", "s"),
    ("analytic.density.calls", "count"),
    ("analytic.ports.s", "s"),
    ("analytic.ports.calls", "count"),
    ("analytic.scalar.s", "s"),
    ("analytic.scalar.calls", "count"),
    ("numeric.joint_marginal_oracle.s", "s"),
    ("numeric.joint_marginal_oracle.calls", "count"),
    ("numeric.joint_marginal_oracle.bytes_computed", "B"),
    ("numeric.kernel_purity.s", "s"),
    ("numeric.kernel_purity.calls", "count"),
    ("numeric.momentum_kick_oracle.s", "s"),
    ("numeric.momentum_kick_oracle.calls", "count"),
    ("numeric.quadrature.s", "s"),
    ("numeric.quadrature.calls", "count"),
    ("core.packet.s", "s"),
    ("core.packet.calls", "count"),
    ("experiment.design.s", "s"),
    ("experiment.design.calls", "count"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    *((f"{layer}.errors", "count") for layer in LAYERS),
)


class Tracer:
    """Records spans in memory and aggregates self time, calls and counts per group."""

    def __init__(self, modules):
        self._targets = targets(modules)
        self._originals = [getattr(owner, attr) for _, owner, attr, _ in self._targets]
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent id (0: none), name, start, end (ns)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._ids = itertools.count(1)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def _wrap(self, group: str, name: str, fn, counter):
        layer = group.split(".", 1)[0]
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.self_ns[group] += end - start - frame[1]
                self.calls[group] += 1
                spans.append((span_id, parent, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[group, key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for (group, owner, attr, counter), original in zip(self._targets, self._originals):
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            setattr(owner, attr, self._wrap(group, name, original, counter))

    def remove(self) -> None:
        for (_, owner, attr, _), original in zip(self._targets, self._originals):
            setattr(owner, attr, original)

    def metric(self, name: str, passes: int) -> float:
        """Per-pass value of one entry of :data:`METRICS`."""
        group, _, stat = name.rpartition(".")
        if stat == "errors":
            return self.errors[group] / passes
        if stat in ("s", "self_s"):
            return self.self_ns[group] / 1e9 / passes
        if stat == "calls":
            return self.calls[group] / passes
        return self.counts[group, stat] / passes

    def write(self, path: Path, record: dict) -> None:
        """Write the run record and every span, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(record) + "\n")
            for span in sorted(self.spans, key=lambda s: s[3]):
                handle.write(json.dumps(span) + "\n")
