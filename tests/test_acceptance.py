"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qif_mzi import (
    BALANCED_R,
    DarkPortError,
    ExperimentInputs,
    InterferometerParams,
    analytic,
    derive_setup,
    numeric,
    tune_separation,
)
from qif_mzi.cli import main
from qif_mzi.verify import (
    check_marginal_oracle,
    check_momentum_kick,
    check_port_sums,
)

REPO = Path(__file__).resolve().parent.parent

HEADLINE = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.3, 1.0)

BASELINE_INPUTS = ExperimentInputs(
    separation=2e-3,
    length=4e-2,
    speed=2e6,
    waist_transverse=1e-5,
    waist_longitudinal=2e-7,
)


def _criterion(number: int, label: str, conditions: dict[str, bool]):
    ok = all(conditions.values())
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {verdict}")
    failed = [name for name, passed in conditions.items() if not passed]
    assert ok, f"criterion {number} ({label}) failed: {failed}"


def test_criterion_1_effective_attraction():
    start = time.perf_counter()
    grid = numeric.default_grid()
    dens1 = analytic.marginal_density(HEADLINE, 1, grid.points, normalized=True)
    dens2 = analytic.marginal_density(HEADLINE, 2, grid.points, normalized=True)
    mean1 = grid.density_mean(dens1)
    mean2 = grid.density_mean(dens2)
    printed_form = analytic.mean_postselected_packet_overlap(HEADLINE)
    closed1 = analytic.mean_postselected(HEADLINE, 1)
    elapsed = time.perf_counter() - start
    print(
        f"[acceptance]   quadrature mean {mean1:+.6f} W, closed form {closed1:+.6f} W, "
        f"single-overlap transcription {printed_form:+.6f} W, "
        f"discrepancy {printed_form - closed1:+.6f} W (reported, not hidden)"
    )
    _criterion(
        1,
        "effective attraction at the working point",
        {
            "quadrature mean = +0.3567 +- 1e-3": abs(mean1 - 0.3567) <= 1e-3,
            "strictly positive": mean1 > 0.0,
            "electron-2 negation (quadrature) within 1e-12": abs(mean1 + mean2) <= 1e-12,
            "electron-2 negation (closed form) exact": analytic.mean_postselected(HEADLINE, 2) == -closed1,
            "single-overlap transcription = +0.4897 +- 1e-3": abs(printed_form - 0.4897) <= 1e-3,
            "runtime < 1 s": elapsed < 1.0,
        },
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    result = check_marginal_oracle(draws=100, seed=20240)
    elapsed = time.perf_counter() - start
    print(f"[acceptance]   100 draws, max pointwise deviation {result.max_deviation:.3e}")
    _criterion(
        2,
        "joint-state oracle vs closed-form marginals",
        {
            "max deviation <= 1e-9 over 100 draws": result.passed,
            "runtime < 30 s": elapsed < 30.0,
        },
    )


def test_criterion_3_momentum_balance():
    checks = {c.name: c for c in check_port_sums(draws=1000, seed=20241)}
    balance = analytic.ehrenfest_check(HEADLINE)
    _criterion(
        3,
        "unconditioned momentum balance",
        {
            "weighted sum = -2 t^2 r^2 delta within 1e-10 (1000 draws)":
                checks["momentum_balance_vs_closed_form"].passed,
            "balanced case equals -0.15 W": balance.closed_form == pytest.approx(-0.15, abs=1e-14)
                and balance.weighted_sum == pytest.approx(-0.15, abs=1e-12),
            "two-electron total momentum 0 within 1e-12":
                checks["two_electron_total_momentum"].passed,
            "per-port electron-2 negation within 1e-12": checks["electron2_negation"].passed,
        },
    )


def test_criterion_4_unitarity():
    checks = {c.name: c for c in check_port_sums(draws=1000, seed=20241)}
    _criterion(
        4,
        "port probabilities sum to one",
        {"sum = 1 within 1e-12 (1000 draws)": checks["port_probability_sum"].passed},
    )


def test_criterion_5_momentum_kick_oracle():
    results = {c.name: c for c in check_momentum_kick(n_points=4096)}
    print(
        f"[acceptance]   displaced-kick deviation {results['kick_oracle_density'].max_deviation:.3e}, "
        f"identity deviation {results['kick_oracle_identity'].max_deviation:.3e}"
    )
    _criterion(
        5,
        "position-phase + DFT reproduces the rigid momentum shift",
        {
            "kicked density within 1e-8 on 4096-point grid": results["kick_oracle_density"].passed,
            "delta = 0 identity within 1e-12": results["kick_oracle_identity"].passed,
        },
    )


def test_criterion_6_experiment_design_numbers():
    start = time.perf_counter()
    setup = derive_setup(BASELINE_INPUTS)
    tuned = tune_separation(setup, 3)
    elapsed = time.perf_counter() - start
    print(
        f"[acceptance]   delta/W {setup.delta_over_width:.4f}, |alpha| {abs(setup.alpha) / math.pi:.4f} pi, "
        f"tuned d {tuned.separation * 1e3:.4f} mm, spread {setup.longitudinal_spread * 1e6:.3f} um"
    )
    _criterion(
        6,
        "laboratory design estimates",
        {
            "delta/W = 0.22 +- 0.05": abs(setup.delta_over_width - 0.22) <= 0.05,
            "|alpha| = 6.96 pi +- 0.1 pi": abs(abs(setup.alpha) / math.pi - 6.96) <= 0.1,
            "tuned d for 6 pi = 2.32 mm +- 0.05 mm": abs(tuned.separation - 2.32e-3) <= 0.05e-3,
            "longitudinal spread within 15% of 6 um":
                abs(setup.longitudinal_spread - 6e-6) <= 0.15 * 6e-6,
            "longitudinal spread ~ 5.8 um": abs(setup.longitudinal_spread - 5.8e-6) <= 0.05e-6,
            "transverse relative spread <= 2e-4": setup.transverse_spread_relative <= 2e-4,
            "fringe spacing within 10% of 6e-4 m":
                abs(setup.fringe_spacing - 6e-4) <= 0.1 * 6e-4,
            "validity checks (1)-(5) all pass": all(c.passed for c in setup.validity),
            "runtime < 1 s": elapsed < 1.0,
        },
    )


def test_criterion_7_mean_surface_structure():
    start = time.perf_counter()
    deltas = np.linspace(0.0, 3.0, 101)
    phis = np.linspace(0.0, 2.0 * math.pi, 101)
    surface = analytic.mean_surface(deltas[:, None], phis[None, :], alpha=0.0)
    elapsed = time.perf_counter() - start

    c = np.cos(phis)[None, :]
    i1 = np.exp(-0.25 * deltas[:, None] ** 2)
    i2 = i1 * i1
    kicked = deltas[:, None] > 0.0
    anomalous_expected = kicked & (c < 0.0) & (i2 > -c)
    anomalous_single_expected = kicked & (c < 0.0) & (i1 > -c)

    phi_zero = analytic.mean_surface(deltas, 0.0).mean
    phi_quarter = analytic.mean_surface(deltas, math.pi / 2).mean
    print(
        f"[acceptance]   anomalous region: {int(np.count_nonzero(anomalous_expected))} of "
        f"{surface.mean.size} grid points, sign structure exact"
    )
    _criterion(
        7,
        "anomalous-region structure over (delta/W, phi)",
        {
            "mean > 0 exactly where cos(phi) < 0 and I^2 > |cos(phi)| (kick on)":
                bool(np.all((surface.mean > 0.0) == anomalous_expected)),
            "single-overlap form > 0 exactly where I > |cos(phi)| (kick on)":
                bool(np.all((surface.mean_single_overlap > 0.0) == anomalous_single_expected)),
            "phi = 0 slice equals -delta/2": bool(
                np.all(np.abs(phi_zero + 0.5 * deltas) <= 1e-15 * (1.0 + deltas))
            ),
            "phi = pi/2 slice vanishes": bool(np.all(np.abs(phi_quarter) <= 1e-15)),
            "runtime < 10 s for the 101 x 101 grid": elapsed < 10.0,
        },
    )


def test_criterion_8_reduced_purity():
    branches, basis = analytic.reduced_state(HEADLINE, 1)
    gram_route = float(branches.purity())
    kernel_route = numeric.kernel_purity(branches.coefficients(), basis)

    no_kick = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.0, 1.0)
    quarter = InterferometerParams(BALANCED_R, math.pi / 2, 0.0, 0.3, 1.0)
    pure_deviations = []
    for params in (no_kick, quarter):
        pure, pure_basis = analytic.reduced_state(params, 1)
        pure_deviations.append(abs(pure.purity() - 1.0))
        pure_deviations.append(abs(numeric.kernel_purity(pure.coefficients(), pure_basis) - 1.0))

    print(
        f"[acceptance]   gram purity {gram_route:.8f}, kernel purity {kernel_route:.8f}, "
        f"pure-corner deviations {max(pure_deviations):.2e}"
    )
    _criterion(
        8,
        "reduced-state purity, two independent routes",
        {
            "purity = 0.9117 +- 1e-3": abs(gram_route - 0.9117) <= 1e-3,
            "routes agree within 1e-6": abs(gram_route - kernel_route) <= 1e-6,
            "purity = 1 within 1e-12 at delta = 0 and phi = pi/2": max(pure_deviations) <= 1e-12,
        },
    )


def test_criterion_9_determinism_and_dark_ports(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"det_{name}.csv"
        code = main(
            ["--config", str(REPO / "configs" / "fig2c.cfg"), "--grid-points", "301", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    sweep_outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"sweep_{name}.json"
        code = main(
            ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3", "--delta-over-w-steps", "7",
             "--phi-min", "0", "--phi-max", "2pi", "--phi-steps", "7", "--alpha", "0",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        sweep_outputs.append(out.read_bytes())

    dark_code = main(["distributions", "--delta-over-w", "0", "--phi", "pi", "--alpha", "0"])
    captured = capsys.readouterr()

    with pytest.raises(DarkPortError):
        analytic.mean_postselected(InterferometerParams(BALANCED_R, math.pi, 0.0, 0.0, 1.0), 1)

    _criterion(
        9,
        "determinism and structured dark-port errors",
        {
            "identical configs give byte-identical CSV": outputs[0] == outputs[1],
            "identical configs give byte-identical JSON": sweep_outputs[0] == sweep_outputs[1],
            "dark-port run exits nonzero": dark_code == 1,
            "dark-port message is structured, not NaN": "vanishes" in captured.err
                and "nan" not in captured.err.lower(),
            "emitted tables carry no NaN": b"nan" not in outputs[0].lower()
                and b"nan" not in sweep_outputs[0].lower(),
        },
    )
