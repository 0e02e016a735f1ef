import math

import numpy as np

from qif_mzi import verify


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
