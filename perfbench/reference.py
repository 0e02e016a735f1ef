"""Output checks that do not call qif_mzi.

Every expected value here is computed from the physics in numpy, or is a
property the method must have (normalisation, mirror symmetry, unitarity,
byte identity).  No check compares against a stored copy of the program's
output.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

#: CODATA 2018 (exact SI values where defined).
Q_E = 1.602176634e-19
EPS0 = 8.8541878128e-12
HBAR = 1.054571817e-34

DARK = 1e-12  # the CLI's documented dark-point threshold on the post-selection norm

#: The verify battery's ten checks, in order, with the tolerance each promises.
VERIFY_CHECKS = (
    ("marginal_oracle_vs_closed_form", 1e-9),
    ("kick_oracle_density", 1e-8),
    ("kick_oracle_identity", 1e-12),
    ("kick_oracle_parseval", 1e-12),
    ("port_probability_sum", 1e-12),
    ("momentum_balance_vs_closed_form", 1e-10),
    ("electron2_negation", 1e-12),
    ("two_electron_total_momentum", 1e-12),
    ("postselected_mean_quadrature", 1e-9),
    ("reduced_purity_two_routes", 1e-6),
)


def parse_number(raw: str) -> float:
    """A config value, with the optional ``pi`` suffix (``0.75pi``)."""
    text = raw.strip()
    if text.endswith("pi"):
        head = text[:-2].strip()
        return math.pi * (1.0 if head in ("", "+") else -1.0 if head == "-" else float(head))
    return float(text)


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------

def csv_table(data: bytes) -> tuple[list[str], list[list[str]]]:
    text = data.decode("ascii")
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("CSV must use '\\n' line endings and end with one")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_numeric(data: bytes) -> tuple[list[str], np.ndarray]:
    text = data.decode("ascii")
    head, _, body = text.partition("\n")
    columns = head.split(",")
    values = np.array(body.rstrip("\n").replace("\n", ",").split(","), dtype=float)
    return columns, values.reshape(-1, len(columns))


def simpson(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of points >= 3")
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ y) * (x[-1] - x[0]) / (n - 1) / 3.0


def gaussian_density(p, center: float = 0.0) -> np.ndarray:
    """|Phi(p)|^2 of the unit-width packet: exp(-(p - center)^2) / sqrt(pi)."""
    return np.exp(-((p - center) ** 2)) / math.sqrt(math.pi)


def _summary_value(stdout: str, label: str) -> float:
    match = re.search(re.escape(label) + r"\s*([-+]?[0-9.]+(?:e[-+]?[0-9]+)?)", stdout)
    if match is None:
        raise ValueError(f"summary line {label!r} missing")
    return float(match.group(1))


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(np.isfinite(got)) or np.any(err > 0.0):
        return [f"{name}: worst deviation {float(np.max(np.abs(got - want))):.3e}"]
    return []


# ---------------------------------------------------------------------------
# Closed forms, written out from the physics
# ---------------------------------------------------------------------------

def postselected(delta, phi, alpha):
    """Norm N and mean <p1>/W of the DC post-selection, branch overlap I^2."""
    c = np.cos(phi)
    i2 = np.exp(-0.25 * delta * delta) ** 2
    norm = 1.0 + c * c + 2.0 * c * math.cos(alpha) * i2
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = -delta * c * (c + math.cos(alpha) * i2) / norm
    return norm, mean


def postselected_single_overlap(delta, phi):
    c = np.cos(phi)
    i1 = np.exp(-0.25 * delta * delta)
    norm = 1.0 + c * c + 2.0 * c * i1
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = -delta * c * (c + i1) / norm
    return norm, mean


def port_table(r: float, phi: float, alpha: float, delta: float) -> dict[str, tuple[float, float]]:
    """Probability and electron-1 mean of each exit pair, from 2x2 splitter matrices.

    Electron 1 enters the port that transmits into path A, electron 2 the
    one that reflects into A; path A carries the phase phi; co-propagating
    branches (both in A or both in B) pick up e^{i alpha} and the kick.
    """
    t = math.sqrt(1.0 - r * r)
    splitter = np.array([[t, 1j * r], [1j * r, t]])  # rows: exit C, D; columns: path A, B
    path_phase = np.array([np.exp(1j * phi), 1.0])
    e1 = path_phase * splitter[:, 0]  # electron 1 enters column 0: A <- t, B <- i r
    e2 = path_phase * splitter[:, 1]
    joint = np.outer(e1, e2)  # [path of e1, path of e2]
    kicked = np.diag(np.diag(joint)) * np.exp(1j * alpha)
    free = joint - np.diag(np.diag(joint))
    a = splitter @ free @ splitter.T  # [exit of e1, exit of e2]
    b = splitter @ kicked @ splitter.T
    i2 = math.exp(-0.25 * delta * delta) ** 2
    out = {}
    for i, e1_exit in enumerate("CD"):
        for j, e2_exit in enumerate("CD"):
            ai, bi = a[i, j], b[i, j]
            prob = abs(ai) ** 2 + abs(bi) ** 2 + 2.0 * (ai.conjugate() * bi).real * i2
            flux = -delta * (abs(bi) ** 2 + (ai.conjugate() * bi).real * i2)
            out[e1_exit + e2_exit] = (prob, flux / prob if prob > DARK else None)
    return out


# ---------------------------------------------------------------------------
# Checks, one per operation kind
# ---------------------------------------------------------------------------

def check_sweep(settings: dict[str, str], data: bytes, stdout: str) -> list[str]:
    columns, table = csv_numeric(data)
    expected = ["delta_over_W", "phi_rad", "mean_p1_over_W", "mean_p1_single_overlap_over_W", "postselect_norm"]
    if columns != expected:
        return [f"sweep columns {columns}"]
    nd, nphi = int(settings["delta_over_w_steps"]), int(settings["phi_steps"])
    if table.shape[0] != nd * nphi:
        return [f"sweep has {table.shape[0]} rows, expected {nd * nphi}"]
    deltas = np.linspace(parse_number(settings["delta_over_w_min"]), parse_number(settings["delta_over_w_max"]), nd)
    phis = np.linspace(parse_number(settings["phi_min"]), parse_number(settings["phi_max"]), nphi)
    alpha = parse_number(settings.get("alpha", "0"))
    d, phi, mean, single, norm = table.T
    problems = _close("row-major delta column", d, np.repeat(deltas, nphi), 1e-12)
    problems += _close("row-major phi column", phi, np.tile(phis, nd), 1e-12)

    ref_norm, ref_mean = postselected(d, phi, alpha)
    ref_norm1, ref_single = postselected_single_overlap(d, phi)
    problems += _close("postselect_norm", norm, ref_norm, 1e-12)
    dark, lit = ref_norm < 1e-14, ref_norm > 1e-10
    dark1, lit1 = ref_norm1 < 1e-14, ref_norm1 > 1e-10
    problems += _close("mean (I^2 form)", mean[lit], ref_mean[lit], 1e-9, 1e-9)
    problems += _close("mean (I form)", single[lit1], ref_single[lit1], 1e-9, 1e-9)
    if not (np.all(mean[dark] == 0.0) and np.all(single[dark1] == 0.0)):
        problems.append("dark points are not emitted as exact zeros")

    # Sign rule: positive exactly where c (c + cos(alpha) I^2) < 0, which for
    # cos(alpha) >= 0 is c < 0 and cos(alpha) I^2 > |c|; at delta = 0 the mean is 0.
    c = np.cos(phi)
    ci2 = math.cos(alpha) * np.exp(-0.25 * d * d) ** 2
    clear = lit & (d > 0.0) & (np.abs(c) > 1e-9) & (np.abs(c + ci2) > 1e-9)
    if np.any((mean[clear] > 0.0) != (c[clear] * (c[clear] + ci2[clear]) < 0.0)):
        problems.append("sign rule of the post-selected mean violated")

    positive = int(np.count_nonzero(mean > 0.0))
    ambiguous = int(np.count_nonzero(~clear))
    expected_positive = int(np.count_nonzero(clear & (c * (c + ci2) < 0.0)))
    match = re.search(r"anomalous \(positive-mean\) points: (\d+) of (\d+)", stdout)
    if match is None:
        problems.append("summary lacks the anomalous-point count")
    else:
        claimed, total = int(match.group(1)), int(match.group(2))
        if claimed != positive or total != nd * nphi:
            problems.append(f"summary claims {claimed} of {total} anomalous, table has {positive} of {nd * nphi}")
        if not expected_positive <= claimed <= expected_positive + ambiguous:
            problems.append(f"anomalous count {claimed} outside the closed form's [{expected_positive}, "
                            f"{expected_positive + ambiguous}]")
    n_dark = int(np.count_nonzero(norm <= DARK))
    if n_dark != int(np.count_nonzero(dark)) or n_dark == 0:
        problems.append(f"{n_dark} dark rows in the table, closed form has {int(np.count_nonzero(dark))}")
    elif _summary_value(stdout, "flagged by postselect_norm <= 1e-12:") != n_dark:
        problems.append("summary dark-point count differs from the table")
    return problems


def check_distributions(settings: dict[str, str], data: bytes, stdout: str) -> list[str]:
    columns, table = csv_numeric(data)
    if columns != ["p_over_W", "P1_times_W", "P2_times_W"]:
        return [f"distributions columns {columns}"]
    p, p1, p2 = table.T
    delta = parse_number(settings["delta_over_w"])
    phi, alpha = parse_number(settings["phi"]), parse_number(settings["alpha"])
    port = settings.get("port", "dc")
    problems = []
    for name, dens in (("P1", p1), ("P2", p2)):
        problems += _close(f"Simpson integral of {name}", simpson(p, dens), 1.0, 1e-9)
    problems += _close("P2 mirrors P1", p2, p1[::-1], 1e-12)
    f0, f1 = np.sqrt(gaussian_density(p)), np.sqrt(gaussian_density(p, -delta))
    if delta == 0.0:
        problems += _close("unkicked density", p1, gaussian_density(p), 1e-12)
        closed = 0.0
    elif port == "cc":
        problems += _close("kicked density of electron 1", p1, gaussian_density(p, -delta), 1e-12)
        problems += _close("kicked density of electron 2", p2, gaussian_density(p, delta), 1e-12)
        closed = -delta
    elif port == "dc":
        c, i1 = math.cos(phi), math.exp(-0.25 * delta * delta)
        norm, closed = postselected(delta, phi, alpha)
        dens = (f0 * f0 + c * c * f1 * f1 + 2.0 * i1 * c * math.cos(alpha) * f0 * f1) / norm
        problems += _close("post-selected density", p1, dens, 1e-12)
    else:
        return [f"no reference for port {port!r}"]
    problems += _close("Simpson mean of P1", simpson(p, p * p1), closed, 1e-8)
    problems += _close("summary quadrature mean", _summary_value(stdout, "mean p1/W from quadrature of the emitted density:"),
                       closed, 6e-7)
    return problems


def check_decompose(settings: dict[str, str], data: bytes, stdout: str) -> list[str]:
    columns, table = csv_numeric(data)
    if columns != ["p_over_W", "T_a_times_W", "T_b_times_W", "P1_unnormalized_times_W"]:
        return [f"decompose columns {columns}"]
    p, ta, tb, total = table.T
    delta = parse_number(settings["delta_over_w"])
    phi, alpha = parse_number(settings["phi"]), parse_number(settings["alpha"])
    c, i1 = math.cos(phi), math.exp(-0.25 * delta * delta)
    f0, f1 = np.sqrt(gaussian_density(p)), np.sqrt(gaussian_density(p, -delta))
    problems = [] if np.all(ta >= 0.0) else ["T_a has negative entries"]
    problems += _close("T_a + T_b", ta + tb, total, 1e-15)
    problems += _close("T_a", ta, f0 * f0 + c * c * f1 * f1, 1e-12)
    problems += _close("T_b", tb, 2.0 * i1 * c * math.cos(alpha) * f0 * f1, 1e-12)
    norm, _ = postselected(delta, phi, alpha)
    problems += _close("summary norm", _summary_value(stdout, "post-selection norm N ="), norm, 6e-7)
    return problems


def check_ports(settings: dict[str, str], data: bytes, stdout: str) -> list[str]:
    columns, rows = csv_table(data)
    if columns != ["port", "probability", "mean_p1_over_W", "mean_p2_over_W", "mean_defined"]:
        return [f"ports columns {columns}"]
    if [row[0] for row in rows] != ["CC", "CD", "DC", "DD", "TOTAL"]:
        return ["ports rows are not CC, CD, DC, DD, TOTAL"]
    r = parse_number(settings.get("r", repr(math.sqrt(0.5))))
    delta = parse_number(settings["delta_over_w"])
    ref = port_table(r, parse_number(settings["phi"]), parse_number(settings["alpha"]), delta)
    problems = []
    for row in rows[:4]:
        prob, mean1, mean2, defined = float(row[1]), float(row[2]), float(row[3]), int(row[4])
        ref_prob, ref_mean = ref[row[0]]
        problems += _close(f"P({row[0]})", prob, ref_prob, 1e-12)
        if (ref_mean is not None) != bool(defined):
            problems.append(f"port {row[0]} dark flag {defined}")
        elif ref_mean is not None:
            problems += _close(f"<p1>({row[0]})", mean1, ref_mean, 1e-10)
            problems += _close(f"<p2>({row[0]})", mean2, -ref_mean, 1e-10)
    probs = [float(row[1]) for row in rows[:4]]
    balance = -2.0 * (1.0 - r * r) * r * r * delta
    problems += _close("sum of port probabilities", math.fsum(probs), 1.0, 1e-12)
    problems += _close("TOTAL probability", float(rows[4][1]), 1.0, 1e-12)
    problems += _close("TOTAL mean p1 = -2 t^2 r^2 delta", float(rows[4][2]), balance, 1e-12)
    problems += _close("TOTAL mean p2", float(rows[4][3]), -balance, 1e-12)
    return problems


def check_design(settings: dict[str, str], data: bytes, stdout: str) -> list[str]:
    columns, rows = csv_table(data)
    if len(rows) != 1:
        return [f"design table has {len(rows)} rows"]
    row = dict(zip(columns, (float(v) for v in rows[0])))
    d, length = float(settings["separation_m"]), float(settings["length_m"])
    speed, waist = float(settings["speed_m_per_s"]), float(settings["waist_transverse_m"])
    coulomb = Q_E * Q_E / (4.0 * math.pi * EPS0)
    transit = length / speed
    delta_over_w = coulomb / (d * d) * transit / (HBAR / (2.0 * waist))
    problems = _close("delta/W", row.get("delta_over_W", math.nan), delta_over_w, 0.0, 1e-12)
    problems += _close("alpha", row.get("alpha_rad", math.nan), -coulomb * transit / (HBAR * d), 0.0, 1e-12)
    problems += _close("transit time", row.get("transit_time_s", math.nan), transit, 0.0, 1e-15)
    return problems


def check_verify(rc: int, data: bytes, stdout: str) -> list[str]:
    problems = [] if rc == 0 else [f"verify exited {rc}"]
    columns, rows = csv_table(data)
    if columns != ["check", "max_deviation", "tolerance", "passed"]:
        return problems + [f"verify columns {columns}"]
    names = [row[0] for row in rows]
    if names != [name for name, _ in VERIFY_CHECKS]:
        return problems + [f"verify checks {names}"]
    for (name, tolerance), row in zip(VERIFY_CHECKS, rows):
        deviation, stated = float(row[1]), float(row[2])
        if stated > tolerance:
            problems.append(f"{name}: tolerance loosened to {stated:g} (promised {tolerance:g})")
        if not (0.0 <= deviation <= tolerance and row[3] == "1"):
            problems.append(f"{name}: deviation {deviation:.3e} against tolerance {tolerance:g}")
    if "overall: all suites passed" not in stdout:
        problems.append("verify summary does not report all suites passed")
    return problems


def check_dark_probe(rc: int, data: bytes | None, stderr: str) -> list[str]:
    problems = []
    if rc != 1:
        problems.append(f"exit code {rc}, expected 1")
    if not (stderr.startswith("qif-mzi: error:") and "probability" in stderr):
        problems.append("no dark-port error on stderr")
    if data is not None:
        problems.append("a table was written for an unreachable post-selection")
    return problems


def same_values(csv_data: bytes, json_data: bytes) -> list[str]:
    """The CSV and the JSON rendering of one table carry equal values."""
    columns, rows = csv_table(csv_data)
    objects = json.loads(json_data)
    if len(objects) != len(rows) or any(list(obj) != columns for obj in objects):
        return ["CSV and JSON disagree on shape or column names"]
    for row, obj in zip(rows, objects):
        for cell, value in zip(row, obj.values()):
            if isinstance(value, str):
                same = cell == value
            elif isinstance(value, int):
                same = cell == str(value)
            else:
                same = float(cell) == value
            if not same:
                return [f"CSV cell {cell!r} differs from JSON value {value!r}"]
    return []
