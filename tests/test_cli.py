import contextlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qif_mzi import ConfigError, GaussianPacket, InterferometerParams, PortPair, analytic, cli, numeric
from qif_mzi.cli import build_config, execute, main, parse_config, typed_table, write_table

REPO = Path(__file__).resolve().parent.parent

FIG2C_TEXT = "mode=distributions\ndelta_over_w=0.3\nphi=2.35619449\nalpha=0\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_document():
    config = parse_config(FIG2C_TEXT)
    assert config.mode == "distributions"
    assert config.delta_over_w == 0.3
    assert config.phi == pytest.approx(2.35619449)
    assert config.alpha == 0.0
    assert config.r == pytest.approx(math.sqrt(0.5))  # defaulted: balanced
    assert config.format == "csv"


def test_parse_pi_suffix():
    config = parse_config("mode=distributions\ndelta_over_w=0.3\nphi=0.75pi\nalpha=-0.5pi\n")
    assert config.phi == 0.75 * math.pi
    assert config.alpha == -0.5 * math.pi
    bare = parse_config("mode=sweep\ndelta_over_w_min=0\ndelta_over_w_max=3\ndelta_over_w_steps=5\nphi_min=0\nphi_max=pi\nphi_steps=5\n")
    assert bare.phi_max == math.pi


def test_parse_comments_and_spacing():
    text = "# preset\nmode = distributions  # trailing comment\n\ndelta_over_w = 0.3\nphi = 0\nalpha = 0\n"
    assert parse_config(text).mode == "distributions"


def test_empty_document_lists_missing_mode():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("")


def test_unknown_key_fails_closed_with_line():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'bogus'"):
        parse_config("mode=ports\nbogus=1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("mode=ports\nphi=0\nphi=1\n")


def test_malformed_number_reports_line():
    err = None
    try:
        parse_config("mode=distributions\ndelta_over_w=abc\nphi=0\nalpha=0\n")
    except ConfigError as caught:
        err = caught
    assert err is not None and err.line == 2


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="delta_over_w"):
        parse_config("mode=distributions\n")
    with pytest.raises(ConfigError, match="phi_steps"):
        parse_config("mode=sweep\ndelta_over_w_min=0\ndelta_over_w_max=1\ndelta_over_w_steps=5\n")


def test_keys_are_mode_scoped():
    with pytest.raises(ConfigError, match="not valid in mode"):
        parse_config(FIG2C_TEXT + "separation_m=2e-3\n")
    with pytest.raises(ConfigError, match="not valid in mode"):
        parse_config("mode=design\nphi=0\n" )


def test_range_validation():
    with pytest.raises(ConfigError, match="odd"):
        build_config({"mode": "distributions", "delta_over_w": "0.3", "phi": "0", "alpha": "0", "grid_points": "100"})
    with pytest.raises(ConfigError, match="ordered"):
        parse_config("mode=sweep\ndelta_over_w_min=2\ndelta_over_w_max=1\ndelta_over_w_steps=5\nphi_min=0\nphi_max=1\nphi_steps=5\n")
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config("mode=sweep\ndelta_over_w_min=0\ndelta_over_w_max=1\ndelta_over_w_steps=1\nphi_min=0\nphi_max=1\nphi_steps=5\n")
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        build_config({"mode": "ports", "delta_over_w": "0.3", "phi": "0", "alpha": "0", "r": "1.5"})
    with pytest.raises(ConfigError, match="unknown mode"):
        build_config({"mode": "plot"})


# ---------------------------------------------------------------------------
# table writer
# ---------------------------------------------------------------------------

def test_csv_shape_and_precision():
    text = write_table(["a", "b"], typed_table({"a": [0.3, 2.0], "b": [1, 0]}), "csv")
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0] == "a,b"
    assert lines[1] == "2.9999999999999999e-01,1"  # 17 significant digits
    assert text.endswith("\n") and "\r" not in text


def test_json_round_trip():
    text = write_table(["name", "x"], typed_table({"name": ["cc"], "x": [0.5]}), "json")
    data = json.loads(text)
    assert data == [{"name": "cc", "x": 0.5}]


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        write_table(["a", "b"], typed_table({"a": [1.0], "b": []}), "csv")


def _reference_csv(names, rows):
    """The cell rules the writer must reproduce: str as is, str(int), %.16e floats."""
    def cell(value):
        if isinstance(value, str):
            return value
        return str(value) if isinstance(value, int) else "%.16e" % value

    return "\n".join([",".join(names)] + [",".join(cell(value) for value in row) for row in rows]) + "\n"


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1, 1e16])
_CELL_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS,
    "int": st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -(2**63), 2**63 - 1]),
    "str": st.text(st.characters(blacklist_characters="\x00"), max_size=8),
}


@st.composite
def mixed_tables(draw):
    """(column names, rows as Python tuples) with float, int and str columns."""
    names = draw(st.lists(st.text(st.characters(blacklist_characters="\x00"), min_size=1, max_size=6),
                          min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(sorted(_CELL_VALUES))) for _ in names]
    n = draw(st.integers(1, 6))
    columns = [draw(st.lists(_CELL_VALUES[kind], min_size=n, max_size=n)) for kind in kinds]
    return names, list(zip(*columns))


@settings(max_examples=200)
@given(mixed_tables())
@example((["p_%d", 'q"'], [(-0.0, "%s,\n")]))
@example((["s"], [("\ud800 \ud83d\ude00 é",)]))
def test_template_writer_matches_reference_formatting(table):
    names, rows = table
    typed = typed_table({name: [row[k] for row in rows] for k, name in enumerate(names)})
    assert [type(cell) for cell in typed.tolist()[0]] == [type(cell) for cell in rows[0]]
    assert write_table(names, typed, "csv") == _reference_csv(names, rows)
    assert write_table(names, typed, "json") == json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_floats(bad):
    table = typed_table({"x": [0.5, bad], "n": [1, 2]})
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="non-finite"):
            write_table(["x", "n"], table, fmt)


def test_table_rejects_unequal_columns_and_mismatched_names():
    for lengths in ((2, 1), (1, 2), (3, 2)):  # a length-1 column would broadcast if it were let through
        with pytest.raises(ValueError, match="equal length"):
            typed_table({"a": [0.0] * lengths[0], "b": [1] * lengths[1]})
    table = typed_table({"a": [0.0], "b": [1]})
    for columns in (["a"], ["b", "a"], ["a", "c"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="do not match"):
            write_table(columns, table, "csv")


@pytest.mark.parametrize("values", [["a\x00"], ["ok", "a\x00b"], ["\x00"]])
def test_typed_table_refuses_nul_in_strings(values):
    # a numpy str field would drop the trailing NUL silently; the writers keep byte 0 for padding
    with pytest.raises(ValueError, match="NUL"):
        typed_table({"s": values, "n": list(range(len(values)))})


def _csv_floats(values):
    """The CSV float cells of a one-column table."""
    text = write_table(["x"], typed_table({"x": np.asarray(values, dtype=np.float64)}), "csv")
    return text.splitlines()[1:]


def _assert_exact_e16(values):
    values = np.asarray(values, dtype=np.float64)
    cells = _csv_floats(values)
    wrong = [(v, cell) for v, cell in zip(values.tolist(), cells) if cell != "%.16e" % v]
    assert len(cells) == values.size and not wrong, wrong[:5]


_ANY_DOUBLE = st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64)))


@settings(max_examples=300)
@given(st.lists(_ANY_DOUBLE.filter(math.isfinite), min_size=1, max_size=50))
def test_csv_floats_are_exactly_percent_e16_for_any_bit_pattern(values):
    _assert_exact_e16(values)


def _e16_battery():
    powers = np.array([float(f"1e{s}") for s in range(-323, 309)])
    subnormals = np.concatenate([np.arange(1, 4097), 2**52 - np.arange(1, 4097), 2 ** np.arange(52)]).astype(np.uint64)
    edges = [0.0, -0.0, sys.float_info.max, -sys.float_info.max, sys.float_info.min, -1.5e-300, 2.5, 0.125]
    random_bits = np.random.default_rng(20260418).integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    battery = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
                              subnormals.view(np.float64), edges, random_bits])
    return battery[np.isfinite(battery)]


def test_csv_floats_are_exactly_percent_e16_on_a_battery():
    battery = _e16_battery()
    _assert_exact_e16(battery)
    # exact decimal ties go to "%", which rounds half to even; the doubles 1e-14 and 1e129 lie below
    # their powers of ten, so their digits carry into the exponent, while 1e23 and 1e-304 do not carry
    assert _csv_floats([1e15 + 0.25, 1e15 + 0.75, 1e-14, 1e129, 1e23, 1e-304, -0.0, 5e-324]) == [
        "1.0000000000000002e+15", "1.0000000000000008e+15", "1.0000000000000000e-14",
        "1.0000000000000000e+129", "9.9999999999999992e+22", "9.9999999999999997e-305",
        "-0.0000000000000000e+00", "4.9406564584124654e-324",
    ]


def test_csv_floats_stay_exact_when_long_double_is_double(monkeypatch):
    # with a plain double long double the error bound is 1e17 * 2^-52 = 22: every cell goes to "%"
    monkeypatch.setattr(cli, "_TOLERANCE", np.longdouble(1e17) * np.finfo(np.float64).eps)
    _assert_exact_e16(_e16_battery()[::20])


def test_power_of_ten_table_is_correctly_rounded():
    eps = np.finfo(np.longdouble).eps
    for s, entry in zip(range(-400, 401), cli._POW10):
        exact = Fraction(10) ** s
        _, exponent = np.frexp(entry)  # entry = m 2^exponent with 1/2 <= m < 1: its ulp is eps 2^(exponent - 1)
        half_ulp = Fraction(float(eps)) * Fraction(2) ** (int(exponent) - 2)
        assert abs(Fraction(*entry.as_integer_ratio()) - exact) <= half_ulp, s


@pytest.mark.parametrize("offset", [-1, 0, 1, "2n+1"])
def test_writer_is_seamless_across_row_chunks(offset):
    n = 2 * cli._CHUNK_ROWS + 1 if offset == "2n+1" else cli._CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    ints = rng.integers(-(2**63), 2**63 - 1, n).tolist()
    strs = [["", "a,b", "é\n", '"q"'][i % 4] * (i % 3) for i in range(n)]
    names = ["x", "n", "s"]
    rows = list(zip(floats, ints, strs))
    table = typed_table({"x": floats, "n": ints, "s": strs})
    assert write_table(names, table, "csv") == _reference_csv(names, rows)
    assert write_table(names, table, "json") == json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_peak_allocation_is_bounded_by_its_output(fmt):
    keys = {"mode": "sweep", "delta_over_w_min": "0", "delta_over_w_max": "3", "delta_over_w_steps": "201",
            "phi_min": "0", "phi_max": "2pi", "phi_steps": "201", "alpha": "0"}
    result = execute(build_config(keys))
    tracemalloc.start()
    try:
        text = write_table(result.columns, result.rows, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the chunk texts and their join; a writer holding per-cell strings or rows peaks at 3x to 4x
    assert peak <= 2.5 * len(text)


# ---------------------------------------------------------------------------
# execution modes
# ---------------------------------------------------------------------------

def test_distributions_reports_both_mean_conventions():
    config = build_config(
        {"mode": "distributions", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0", "grid_points": "401"}
    )
    result = execute(config)
    assert result.columns == ["p_over_W", "P1_times_W", "P2_times_W"]
    assert len(result.rows) == 401
    text = "\n".join(result.summary)
    assert "+0.356704" in text and "+0.489654" in text and "difference" in text


def test_distributions_port_cc_is_the_kicked_packet():
    config = build_config(
        {"mode": "distributions", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0",
         "port": "cc", "grid_points": "401"}
    )
    result = execute(config)
    p = np.array([row[0] for row in result.rows])
    dens1 = np.array([row[1] for row in result.rows])
    peak = p[np.argmax(dens1)]
    assert peak == pytest.approx(-0.3, abs=0.05)


def test_decompose_terms_sum_exactly():
    config = build_config(
        {"mode": "decompose", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0", "grid_points": "201"}
    )
    result = execute(config)
    assert result.columns == ["p_over_W", "T_a_times_W", "T_b_times_W", "P1_unnormalized_times_W"]
    for _, t_a, t_b, total in result.rows:
        assert total == t_a + t_b
        assert t_a >= 0.0


def test_sweep_rows_and_dark_convention():
    config = build_config(
        {
            "mode": "sweep",
            "delta_over_w_min": "0",
            "delta_over_w_max": "3",
            "delta_over_w_steps": "5",
            "phi_min": "0",
            "phi_max": "2pi",
            "phi_steps": "5",
            "alpha": "0",
        }
    )
    result = execute(config)
    assert len(result.rows) == 25  # steps arithmetic
    dark = [row for row in result.rows if row[4] <= 1e-12]
    assert len(dark) == 1  # only delta = 0, phi = pi
    assert dark[0][0] == 0.0 and dark[0][1] == pytest.approx(math.pi)
    assert dark[0][2] == 0.0 and dark[0][3] == 0.0
    # row-major emission: delta outer, phi inner
    assert [row[0] for row in result.rows[:5]] == [0.0] * 5


def test_ports_mode_table():
    config = build_config({"mode": "ports", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0"})
    result = execute(config)
    assert result.columns == ["port", "probability", "mean_p1_over_W", "mean_p2_over_W", "mean_defined"]
    by_port = {row[0]: row for row in result.rows}
    assert by_port["TOTAL"][1] == pytest.approx(1.0, abs=1e-12)
    assert by_port["TOTAL"][2] == pytest.approx(-0.15, abs=1e-12)
    assert by_port["DC"][2] == pytest.approx(0.35670404722052823, rel=1e-10)
    assert by_port["DC"][2] == -by_port["DC"][3]
    assert all(row[4] == 1 for row in result.rows)


def test_ports_mode_marks_dark_ports_without_nan():
    config = build_config({"mode": "ports", "delta_over_w": "0.3", "phi": "0.9", "alpha": "0", "r": "0"})
    result = execute(config)
    by_port = {row[0]: row for row in result.rows}
    assert by_port["CC"][4] == 0 and by_port["CC"][2] == 0.0
    assert by_port["CD"][4] == 1
    text = write_table(result.columns, result.rows, "csv")
    assert "nan" not in text.lower()


def test_design_mode_row_and_checks():
    config = build_config(
        {
            "mode": "design",
            "separation_m": "2e-3",
            "length_m": "4e-2",
            "speed_m_per_s": "2e6",
            "waist_transverse_m": "1e-5",
            "waist_longitudinal_m": "2e-7",
        }
    )
    result = execute(config)
    row = dict(zip(result.columns, result.rows[0]))
    assert row["delta_over_W"] == pytest.approx(0.2187691264976917, rel=1e-12)
    assert row["alpha_over_pi"] == pytest.approx(-6.963637575600754, rel=1e-12)
    assert row["tuned_multiple_2pi"] == 3
    assert row["tuned_separation_m"] == pytest.approx(2.3212125252002514e-3, rel=1e-12)
    for name in ("separation_to_extent", "potential_to_kinetic", "fringe_to_beam",
                 "linearization_error", "transverse_spread"):
        assert row[f"check_{name}_pass"] == 1


def test_verify_mode_small_battery():
    config = build_config(
        {
            "mode": "verify",
            "draws_marginal": "3",
            "draws_ports": "25",
            "joint_grid_points": "257",
            "seed": "7",
        }
    )
    result = execute(config)
    assert result.exit_code == 0
    assert all(row[3] == 1 for row in result.rows)


def test_verify_grid_span_reaches_the_kernel_purity_grid(monkeypatch, capsys):
    seen = []
    kernel_purity = numeric.kernel_purity

    def recording(coeff, basis, grid=None):
        seen.append(grid)
        return kernel_purity(coeff, basis, grid)

    monkeypatch.setattr(numeric, "kernel_purity", recording)
    assert main(["verify", "--draws-marginal", "1", "--draws-ports", "5", "--joint-grid-points", "129",
                 "--grid-span", "12"]) == 0
    assert [(grid.p_min, grid.p_max, grid.n) for grid in seen] == [(-12.0, 12.0, 129)]
    assert "PASS reduced_purity_two_routes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# entry point behaviour
# ---------------------------------------------------------------------------

def test_main_runs_preset_and_writes_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["--config", str(REPO / "configs" / "fig2c.cfg"), "--grid-points", "201"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "wrote 201 row(s)" in capsys.readouterr().out


def test_main_flag_overrides_file(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(FIG2C_TEXT)
    out = tmp_path / "run.json"
    code = main(["--config", str(config_file), "--delta-over-w", "0", "--grid-points", "5",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    # delta = 0: both electrons keep the symmetric input density
    assert rows[2]["P1_times_W"] == pytest.approx(rows[2]["P2_times_W"], rel=1e-14)


def test_main_positional_mode_overrides_file(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(FIG2C_TEXT)
    code = main(["decompose", "--config", str(config_file), "--grid-points", "11"])
    assert code == 0


def test_main_dark_port_is_structured_error(tmp_path, capsys):
    # phases that cancel the DC pair, and the splitters r = 0 and r = 1 that never reach it
    for dark in (["--delta-over-w", "0", "--phi", "pi"],
                 ["--r", "0", "--delta-over-w", "0.3", "--phi", "0.75pi"],
                 ["--r", "1", "--delta-over-w", "0.3", "--phi", "0.75pi"]):
        out = tmp_path / "dark.csv"
        code = main(["distributions", *dark, "--alpha", "0", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "vanishes" in captured.err
        assert "nan" not in captured.err.lower()
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["distributions", "--delta-over-w", "10", "--phi", "0.9pi", "--alpha", "0"],
    ["distributions", "--delta-over-w", "1e300", "--phi", "0.9pi", "--alpha", "0"],
], ids=["half-off-grid", "overflowing"])
def test_main_report_grid_must_hold_every_branch(argv, tmp_path, capsys):
    out = tmp_path / "truncated.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("qif-mzi: error: grid [-8, 8] truncates a branch")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("mode", ["distributions", "decompose"])
def test_main_smallest_normal_width_emits_finite_table(mode, tmp_path, capsys):
    out = tmp_path / "table.csv"
    argv = [mode, "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0", "--width", repr(sys.float_info.min)]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cells = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert cells.shape[0] == numeric.DEFAULT_GRID_POINTS and np.all(np.isfinite(cells))


def test_main_config_error_exit_code(capsys):
    assert main(["distributions"]) == 2  # missing required keys
    assert "config error" in capsys.readouterr().err
    assert main(["--config", "/no/such/file.cfg"]) == 2


_SWEEP = ("mode = sweep\ndelta_over_w_min = 0\ndelta_over_w_max = 3\ndelta_over_w_steps = 5\n"
          "phi_min = 0\nphi_max = 1\nphi_steps = 5\n")
_DESIGN = ("mode = design\nseparation_m = 2e-3\nlength_m = 4e-2\nspeed_m_per_s = 2e6\n"
           "waist_transverse_m = 1e-5\nwaist_longitudinal_m = 2e-7\n")


# one bad value per range-checked key: (document, key, value, line, message)
_RANGE_ERRORS = [
    (FIG2C_TEXT, "format", "xml", 5, "key 'format': expected csv or json, got 'xml'"),
    (FIG2C_TEXT, "r", "1.5", 5, "key 'r': must lie in [0, 1], got 1.5"),
    (FIG2C_TEXT, "width", "0", 5, "key 'width': must be positive, got 0.0"),
    ("mode = ports\nphi = 0\nalpha = 0\n", "delta_over_w", "-0.1", 4, "key 'delta_over_w': must be >= 0, got -0.1"),
    (FIG2C_TEXT, "port", "xx", 5, "key 'port': expected one of cc, cd, dc, dd, got 'xx'"),
    (FIG2C_TEXT, "grid_span", "-2", 5, "key 'grid_span': must be positive, got -2.0"),
    (FIG2C_TEXT, "grid_points", "100", 5, "key 'grid_points': must be odd and >= 3, got 100"),
    ("mode = verify\n", "joint_grid_points", "1", 2, "key 'joint_grid_points': must be odd and >= 3, got 1"),
    ("mode = verify\n", "kick_points", "15", 2, "key 'kick_points': must be >= 16, got 15"),
    (_SWEEP.replace("delta_over_w_min = 0\n", ""), "delta_over_w_min", "-1", 7,
     "key 'delta_over_w_min': must be >= 0, got -1.0"),
    (_SWEEP.replace("delta_over_w_max = 3\n", ""), "delta_over_w_max", "0", 7,
     "key 'delta_over_w_max': range must be ordered: delta_over_w_min < delta_over_w_max (got 0.0 >= 0.0)"),
    (_SWEEP.replace("delta_over_w_steps = 5\n", ""), "delta_over_w_steps", "1", 7,
     "key 'delta_over_w_steps': sweep needs at least 2 steps, got 1"),
    (_SWEEP.replace("phi_max = 1\n", ""), "phi_max", "-1", 7,
     "key 'phi_max': range must be ordered: phi_min < phi_max (got 0.0 >= -1.0)"),
    (_SWEEP.replace("phi_steps = 5\n", ""), "phi_steps", "0", 7, "key 'phi_steps': sweep needs at least 2 steps, got 0"),
    (_DESIGN.replace("separation_m = 2e-3\n", ""), "separation_m", "0", 6, "key 'separation_m': must be positive, got 0.0"),
    (_DESIGN.replace("length_m = 4e-2\n", ""), "length_m", "-1", 6, "key 'length_m': must be positive, got -1.0"),
    (_DESIGN.replace("speed_m_per_s = 2e6\n", ""), "speed_m_per_s", "0", 6,
     "key 'speed_m_per_s': must be positive, got 0.0"),
    (_DESIGN.replace("waist_transverse_m = 1e-5\n", ""), "waist_transverse_m", "0", 6,
     "key 'waist_transverse_m': must be positive, got 0.0"),
    (_DESIGN.replace("waist_longitudinal_m = 2e-7\n", ""), "waist_longitudinal_m", "-2e-7", 6,
     "key 'waist_longitudinal_m': must be positive, got -2e-07"),
    (_DESIGN, "tune_target_n", "0", 7, "key 'tune_target_n': must be a positive integer, got 0"),
    ("mode = verify\n", "seed", "-1", 2, "key 'seed': must be >= 0, got -1"),
    ("mode = verify\n", "draws_marginal", "0", 2, "key 'draws_marginal': must be >= 1, got 0"),
    ("mode = verify\n", "draws_ports", "-5", 2, "key 'draws_ports': must be >= 1, got -5"),
]


# upper bounds on allocation sizes, and values that overflow: (id, document, key, value, line, message)
_LIMIT_ERRORS = [
    ("grid_points-max", FIG2C_TEXT, "grid_points", "1048579", 5, "key 'grid_points': must be <= 1048577, got 1048579"),
    ("joint_grid_points-max", "mode = verify\n", "joint_grid_points", "2051", 2,
     "key 'joint_grid_points': must be <= 2049, got 2051"),
    ("kick_points-max", "mode = verify\n", "kick_points", "1048577", 2,
     "key 'kick_points': must be <= 1048576, got 1048577"),
    ("draws_ports-max", "mode = verify\n", "draws_ports", "100001", 2,
     "key 'draws_ports': must be <= 100000, got 100001"),
    ("sweep-rows-max", _SWEEP.replace("phi_steps = 5\n", ""), "phi_steps", "200001", 7,
     "key 'phi_steps': delta_over_w_steps * phi_steps must be <= 1000000 rows, got 5 * 200001"),
    ("sweep-steps-max", _SWEEP.replace("delta_over_w_steps = 5\n", ""), "delta_over_w_steps", "100000000000", 6,
     "key 'phi_steps': delta_over_w_steps * phi_steps must be <= 1000000 rows, got 100000000000 * 5"),
    ("kick-overflow", "mode = ports\nphi = 0\nalpha = 0\nwidth = 1e200\n", "delta_over_w", "1e200", 5,
     "key 'delta_over_w': the kick delta_over_w * width must be finite, got 1e+200 * 1e+200"),
    ("width-subnormal", FIG2C_TEXT, "width", "1e-310", 5,
     "key 'width': must be a normal double (>= 2.2250738585072014e-308), got 1e-310"),
    ("tune_target_n-max", _DESIGN, "tune_target_n", "100000000000000000000", 7,
     "key 'tune_target_n': must be <= 9223372036854775807, got 100000000000000000000"),
    # derived design quantities outside double or int64 range; the error points at the last input given
    ("design-force-overflow", _DESIGN.replace("separation_m = 2e-3\n", ""), "separation_m", "1e-170", 6,
     "design: derived force is not a finite double for these inputs"),
    ("design-spread-overflow", _DESIGN.replace("speed_m_per_s = 2e6\n", ""), "speed_m_per_s", "1e-300", 6,
     "design: derived longitudinal_spread is not a finite double for these inputs"),
    ("design-multiple-int64", _DESIGN.replace("length_m = 4e-2\n", "").replace("2e6", "1").replace("2e-3", "1e-3"),
     "length_m", "1e30", 6,
     "design: the tuned 2 pi multiple 348181878780037714600009350161492869120 exceeds the int64 range of the table"),
    ("design-multiple-zero", _DESIGN.replace("separation_m = 2e-3\n", ""), "separation_m", "1", 6,
     "design: |alpha| = 0.0438 rad is nearest to 0 x 2 pi; request a positive multiple"),
]


@pytest.mark.parametrize(
    "base, key, value, line, message",
    _RANGE_ERRORS + [case[1:] for case in _LIMIT_ERRORS],
    ids=[case[1] for case in _RANGE_ERRORS] + [case[0] for case in _LIMIT_ERRORS],
)
def test_main_range_error_wording(base, key, value, line, message, tmp_path, capsys):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text(f"{base}{key} = {value}\n")
    assert main(["--config", str(config_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qif-mzi: config error: line {line}: {message}\n"
    assert captured.out == ""


@st.composite
def point_runs(draw):
    """Accepted ``distributions`` and ``ports`` runs: (argv, params, port, grid in units of W or None)."""
    mode = draw(st.sampled_from(["distributions", "ports"]))
    r, width = draw(st.floats(0.0, 1.0)), draw(st.floats(0.25, 4.0))
    delta_over_w, phi, alpha = draw(st.floats(0.0, 6.0)), draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
    keys = {"r": r, "width": width, "delta-over-w": delta_over_w, "phi": phi, "alpha": alpha}
    params = InterferometerParams(r, phi, alpha, delta_over_w * width, width)
    grid = port = None
    if mode == "distributions":
        port = draw(st.sampled_from(list(PortPair)))
        span, n = draw(st.floats(5.0, 16.0)), 2 * draw(st.integers(1, 400)) + 1  # any spacing, resolved or not
        keys.update({"port": port.value, "grid-span": span, "grid-points": n})
        grid = numeric.MomentumGrid(-span, span, n)
    argv = [mode]
    for key, value in keys.items():  # '--key=value' or '--key value', negative values included
        text = value if isinstance(value, str) else repr(value)
        argv += draw(st.sampled_from([[f"--{key}={text}"], [f"--{key}", text]]))
    return argv, params, port, grid


@settings(max_examples=30, deadline=None)
@given(point_runs())
def test_main_point_modes_emit_finite_tables_or_structured_errors(run):
    argv, params, port, grid = run
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.json"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--format", "json", "--out", str(out)])
        if code == 1:
            assert stderr.getvalue().startswith("qif-mzi: error: ") and not out.exists()
            return
        assert code == 0 and stderr.getvalue() == ""
        rows = json.loads(out.read_text())
    numbers = np.array([[cell for cell in row.values() if not isinstance(cell, str)] for row in rows], dtype=float)
    assert np.all(np.isfinite(numbers))
    if grid is None:
        return
    # the summary states the quadrature mean only where Simpson resolves the packets
    alias = grid.alias_bound(1.0)
    assert ("quadrature of the emitted density: unresolved" in stdout.getvalue()) == (alias > numeric.TAIL_BUDGET)
    if alias > numeric.TAIL_BUDGET:
        return
    # Quadrature mean of the emitted density against the closed form, in units of W.  Each
    # branch's analytic mass outside the grid is at most `tail`, and Simpson's aliasing error on it
    # at most `alias`; normalising by the port probability scales both, and the rounding floor, by
    # at most `gain` (large only near dark ports).
    p, dens = numbers[:, 0], numbers[:, 1]
    w = grid.simpson_weights()
    quad = float((w @ (p * dens)) / (w @ dens))
    closed = analytic.port_mean_momenta(params, 1)[port] / params.width
    amp = analytic.port_amplitudes(params)[port]
    i2 = analytic.branch_overlap(params)
    gain = (abs(amp.free) ** 2 + abs(amp.kicked) ** 2 + 2.0 * i2 * abs(amp.free * amp.kicked)) / (
        analytic.port_probabilities(params)[port]
    )
    d = params.delta_over_width
    tail = max(grid.tail_mass(GaussianPacket(1.0, center)) for center in (0.0, -d, d))
    bound = gain * (3.0 * (grid.p_max + 1.0 + abs(closed)) * (tail + alias) + 1e-13 * (grid.p_max + 1.0))
    assert abs(quad - closed) <= bound


@pytest.mark.parametrize("mode, keys", [
    ("distributions", [("--delta-over-w", "0.3"), ("--phi", "-0.5pi"), ("--alpha", "0")]),
    ("ports", [("--delta-over-w", "0.3"), ("--phi", "0.75pi"), ("--alpha", "-1e-5"), ("--r", "0.4")]),
    ("decompose", [("--delta-over-w", "0.3"), ("--phi", "-2.1"), ("--alpha", "-.5"), ("--grid-span", "9")]),
])
def test_main_negative_values_as_separate_arguments(mode, keys, tmp_path, capsys):
    outputs = []
    for form, argv in (("joined", [f"{flag}={value}" for flag, value in keys]),
                       ("separate", [part for pair in keys for part in pair])):
        out = tmp_path / f"{form}.csv"
        assert main([mode, *argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append((captured.out.replace(str(out), "OUT"), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_main_coarse_report_grid_states_the_mean_unresolved(tmp_path, capsys):
    out = tmp_path / "coarse.csv"
    assert main(["distributions", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0",
                 "--grid-points", "11", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("  mean p1/W from quadrature of the emitted density: "
                        "unresolved (spacing h = 1.6 W, alias bound 1.0e+00 > 1e-10)")
    assert lines[2] == "  mean p1/W, closed form with branch overlap I^2:  +0.356704"
    assert len(out.read_text().splitlines()) == 12


@pytest.mark.parametrize("flags", [
    ["--joint-grid-points", "3"],
    ["--joint-grid-points", "9"],
    ["--grid-points", "9", "--draws-marginal", "2", "--draws-ports", "5"],
])
def test_main_verify_refuses_unresolved_oracle_grids(flags, tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("qif-mzi: error: spacing h = ") and "alias bound" in captured.err
    assert captured.out == "" and not out.exists()


_DESIGN_KEYS = ("separation-m", "length-m", "speed-m-per-s", "waist-transverse-m", "waist-longitudinal-m")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-300.0, 300.0), min_size=5, max_size=5),
    st.none() | st.integers(1, 2**64),
)
@example([math.log10(v) for v in (2e-3, 4e-2, 2e6, 1e-5, 2e-7)], None)  # the design preset: exit 0
@example([math.log10(v) for v in (2e-3, 4e-2, 2e6, 1e-5, 2e-7)], 5)
def test_main_design_emits_finite_tables_or_config_errors(exponents, target):
    argv = ["design", "--format", "json"]
    for key, exponent in zip(_DESIGN_KEYS, exponents):
        argv += [f"--{key}", repr(10.0**exponent)]
    if target is not None:
        argv += ["--tune-target-n", str(target)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "design.json"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        if code == 2:
            assert stderr.getvalue().startswith("qif-mzi: config error: ") and stdout.getvalue() == ""
            assert not out.exists()
            return
        assert code == 0 and stderr.getvalue() == ""
        (row,) = json.loads(out.read_text())
    assert all(math.isfinite(value) for value in row.values())


def test_main_unwritable_output(capsys):
    code = main(["distributions", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0",
                 "--grid-points", "11", "--out", "/dev/null/sub/x.csv"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "1e200", "--delta-over-w-steps", "5",
     "--phi-min", "0", "--phi-max", "1", "--phi-steps", "3"],
    ["ports", "--delta-over-w", "1e200", "--phi", "1", "--alpha", "0"],
], ids=["sweep", "ports"])
def test_main_kick_past_any_overlap_emits_finite_table_without_warnings(argv, tmp_path, capsys):
    out = tmp_path / "table.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads(out.read_text())
    assert all(math.isfinite(cell) for row in rows for cell in row.values() if not isinstance(cell, str))


def test_main_large_kick_summary_prints_means_in_scientific_notation(tmp_path, capsys):
    argv = ["ports", "--delta-over-w", "1e200", "--phi", "1", "--alpha", "0", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(len(line) < 120 for line in lines)
    assert lines[1] == "  P(CC) = 0.177018   mean p1 = -1.000000e+200 W"
    assert lines[-2].endswith("port-weighted sum:            -5.000000e+199 W")


_PORTS = ["ports", "--delta-over-w", "0.3", "--alpha", "0"]


@pytest.mark.parametrize("argv, message", [
    (["--bogus"], "unknown key '--bogus'"),
    ([*_PORTS, "--phi", "0.75pi", "--al", "-0.5pi"], "unknown key '--al'"),  # no abbreviations
    ([*_PORTS, "--phi", "0.75pi", "--phi", "1"], "duplicate key 'phi'"),
    ([*_PORTS, "--phi=0.75pi", "--phi", ""], "duplicate key 'phi'"),
    ([*_PORTS, "--phi"], "key 'phi' has an empty value"),
    ([*_PORTS, "--phi="], "key 'phi' has an empty value"),
    (["ports", "extra"], "duplicate key 'mode'"),
    (["--mode", "ports", *_PORTS[1:], "--phi", "1"], "unknown key '--mode'"),  # the positional is mode's spelling
    ([*_PORTS, "--phi", "1", "-x"], "unknown key '-x'"),
    ([*_PORTS, "--phi", "1", "--"], "unknown key '--'"),
], ids=["unknown", "abbreviation", "repeated", "repeated-empty", "trailing", "joined-empty", "stray-positional",
        "mode-flag", "short-flag", "double-dash"])
def test_main_malformed_command_line_is_a_config_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qif-mzi: config error: {message}\n"
    assert captured.out == ""


def test_main_config_file_faults_are_config_errors(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"mode = ports\n\xff\xfe\n")
    text = tmp_path / "run.cfg"
    text.write_text(FIG2C_TEXT)
    assert main(["--config", str(binary)]) == 2
    assert capsys.readouterr().err.startswith(f"qif-mzi: config error: cannot read config file {str(binary)!r}")
    assert main(["--config", str(text), "--config", str(text)]) == 2
    assert capsys.readouterr().err == "qif-mzi: config error: option '--config' is given twice\n"


_FLAGS = {"--" + key.replace("_", "-") for key in cli._KEYS if key != "mode"}


def test_main_help_is_generated_from_the_key_table(capsys):
    for argv in (["--help"], ["-h"], ["ports", "--phi", "1", "-h"]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: qif-mzi [mode] [--config FILE] [--key value | --key=value ...]\n")
        entries = {line.split()[0]: line for line in text.splitlines() if line.startswith("  ")}
        assert set(entries) == {"mode", "--config"} | _FLAGS
        for key, f in cli._KEYS.items():
            line = entries[key if key == "mode" else "--" + key.replace("_", "-")]
            assert f.metadata["help"] in line
            if key != "mode":
                assert line.split()[1] == cli._KINDS[key].__name__.upper()
                assert line.endswith(f" (default {f.default})") == (f.default is not None)
    assert main(["--out", "-h", "--help"]) == 0  # a flag's value is never read as a flag
    assert "--waist-longitudinal-m FLOAT" in capsys.readouterr().out


# Entries that the flags and a file both spell, for the argv property below.
_ARGV_VALUES = {  # (accepted values, a refused value)
    "delta_over_w": (["0.3", "1.5", "0"], "-0.3"),
    "phi": (["0.75pi", "-0.5pi", "-2.1", "pi"], "abc"),
    "alpha": (["0", "-1e-5", "-.5", "0.4pi"], ""),
    "r": (["0.4", "0.9", "1"], "-0.1"),
    "width": (["2", "0.5"], "0"),
    "port": (["cd", "dd", "dc", "cc"], "xx"),
    "grid_points": (["11", "31"], "100"),
    "format": (["csv", "json"], "xml"),
}
_OPTIONAL = {"ports": ["r", "width", "format"], "distributions": ["r", "width", "format", "port", "grid_points"]}
_MOSTLY = st.sampled_from([True] * 9 + [False])
_FLAG_PREFIXES = sorted({flag[:n] for flag in _FLAGS for n in range(3, len(flag))} - _FLAGS - {"--config"})


@st.composite
def command_lines(draw):
    """(argv, config-file text or None): a set of entries as flags, each '--key value' or '--key=value', and
    the same entries as a file; or the flags with one fault that only a command line can hold (file None).
    One draw in ten leaves out the mode or a required key, or takes a refused value."""
    mode = draw(st.sampled_from(["ports", "distributions"]))
    keys = [key for key in ("delta_over_w", "phi", "alpha") if draw(_MOSTLY)]
    keys += draw(st.lists(st.sampled_from(_OPTIONAL[mode]), unique=True, max_size=3))
    entries = []
    for key in draw(st.permutations(keys)):
        accepted, refused = _ARGV_VALUES[key]
        entries.append((key, draw(st.sampled_from(accepted)) if draw(_MOSTLY) else refused))
    mode = mode if draw(_MOSTLY) else None
    units = []  # whole arguments: the mode, or one flag with its value
    for key, value in entries:
        flag = "--" + key.replace("_", "-")
        units.append(draw(st.sampled_from([[f"{flag}={value}"], [flag, value]])))
    if mode is not None:
        units.insert(draw(st.integers(0, len(units))), [mode])
    fault = draw(st.sampled_from([None, None, None, "repeat", "prefix", "unknown", "positional", "mode-flag"]))
    if fault is None:
        lines = ([] if mode is None else [f"mode = {mode}"]) + [f"{key} = {value}" for key, value in entries]
        return [arg for unit in units for arg in unit], "\n".join(lines) + "\n"
    if fault == "repeat" and entries:
        key, _ = draw(st.sampled_from(entries))
        extra = ["--" + key.replace("_", "-"), draw(st.sampled_from(_ARGV_VALUES[key][0]))]
    elif fault == "prefix":
        extra = [draw(st.sampled_from(_FLAG_PREFIXES)), draw(st.sampled_from(["1", "-0.5pi"]))]
    elif fault == "positional":
        extra = [draw(st.sampled_from(["ports", "extra", "0.3"]))] + ([] if mode is not None else ["ports"])
    elif fault == "mode-flag":
        extra = ["--mode", "ports"]
    else:
        extra = [draw(st.sampled_from(["--bogus", "--bogus=1", "-x", "--"]))]
    units.insert(draw(st.integers(0, len(units))), extra)
    return [arg for unit in units for arg in unit], None


@settings(max_examples=80, deadline=None)
@given(command_lines())
@example((["ports", "--delta-over-w", "0.3", "--phi", "0.75pi", "--phi", "1", "--alpha", "0"], None))
@example((["ports", "--delta-over-w", "0.3", "--phi", "-0.5pi", "--alpha", "-1e-5"],
          "mode = ports\ndelta_over_w = 0.3\nphi = -0.5pi\nalpha = -1e-5\n"))
def test_main_reads_flags_by_the_file_rule(command):
    argv, document = command
    with tempfile.TemporaryDirectory() as tmp:
        out, config_file = Path(tmp) / "table.out", Path(tmp) / "run.cfg"
        runs = [argv]
        if document is not None:
            config_file.write_text(document)
            runs.append(["--config", str(config_file)])
        results = []
        for run in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(run + ["--out", str(out)])
            assert code in (0, 1, 2)
            assert (code == 0) == (stderr.getvalue() == "")
            if code == 2:
                assert stderr.getvalue().startswith("qif-mzi: config error: ") and stdout.getvalue() == ""
            results.append((code, stdout.getvalue() if code == 0 else None, out.read_bytes() if code == 0 else None))
            out.unlink(missing_ok=True)
    if document is None:  # a repeated or unknown flag, or a second positional
        assert results[0][0] == 2
    else:  # the same entries as flags or as a file: the same run, byte for byte
        assert results[0] == results[1]


def test_bundled_presets_parse():
    for name in ("fig2a", "fig2b", "fig2c", "fig3", "fig4", "design", "verify"):
        config = parse_config((REPO / "configs" / f"{name}.cfg").read_text())
        assert config.mode in ("distributions", "decompose", "sweep", "design", "verify")
