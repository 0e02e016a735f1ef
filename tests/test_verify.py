import math
from types import SimpleNamespace

import numpy as np
import pytest

from qif_mzi import cli, numeric, verify


def test_port_sum_draws_match_the_per_draw_stream():
    # check_port_sums draws all parameter rows at once; the rows must be the
    # ones that one r, phi, alpha, delta draw after another would give.
    batch = verify._draw_params(np.random.default_rng(12346), 1000, delta_max=4.0)
    rng = np.random.default_rng(12346)
    rows = np.array([verify._draw_params(rng, 1, delta_max=4.0)[0] for _ in range(1000)])
    assert np.array_equal(batch, rows)
    rng = np.random.default_rng(12346)
    uniform = [
        (rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 4.0))
        for _ in range(1000)
    ]
    assert np.array_equal(batch, np.array(uniform))


def test_a_nan_marginal_deviation_fails_verify(monkeypatch, capsys, tmp_path):
    # Python's max(0.0, nan) is 0.0: a fold with max() let a NaN draw pass and verify exit 0
    real, calls = numeric.joint_marginal_oracle, []

    def oracle(params, electron, grid):
        result = real(params, electron, grid)
        calls.append(None)
        if len(calls) % 7 == 0:  # one draw in seven
            values = result.values.copy()
            values[3] = math.nan
            return SimpleNamespace(values=values)  # Distribution1D itself refuses NaN samples
        return result

    monkeypatch.setattr(numeric, "joint_marginal_oracle", oracle)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL marginal_oracle_vs_closed_form: max deviation nan" in out
    assert "SUITE FAILURES PRESENT" in out
    # a table cannot spell nan: with --out the run still exits 1, with an error and no file
    table = tmp_path / "verify.csv"
    assert cli.main(["verify", "--out", str(table)]) == 1
    assert "non-finite" in capsys.readouterr().err and not table.exists()


@pytest.mark.parametrize("field", ["max_density_deviation", "mean_shift", "width_change"])
def test_a_nan_in_any_kick_deviation_fails_its_check(monkeypatch, field):
    real = numeric.momentum_kick_oracle
    monkeypatch.setattr(numeric, "momentum_kick_oracle",
                        lambda *args: real(*args)._replace(**{field: math.nan}))
    density, identity, parseval = verify.check_momentum_kick(1024)
    assert not density.passed and not identity.passed and parseval.passed
    assert math.isnan(density.max_deviation) and math.isnan(identity.max_deviation)
