import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qif_mzi import ConfigError, GaussianPacket, InterferometerParams, PortPair, analytic, cli, floatfmt, numeric
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
    assert parse_config("mode=ports\ndelta_over_w=0.3\nphi=-pi\nalpha=0\n").phi == -math.pi


def test_parse_comments_and_spacing():
    text = "# preset\nmode = distributions  # trailing comment\n\ndelta_over_w = 0.3\nphi = 0\nalpha = 0\n"
    assert parse_config(text).mode == "distributions"


def test_empty_document_lists_missing_mode():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("")


def test_unknown_key_fails_closed_with_line():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'bogus'"):
        parse_config("mode=ports\nbogus=1\n")


def test_width_is_not_a_key(tmp_path, capsys):
    # the CLI works in units of W: W = 1, and a width has no spelling in flags or files
    assert main(["ports", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0", "--width", "2"]) == 2
    assert capsys.readouterr().err == "qif-mzi: config error: unknown key '--width'\n"
    config_file = tmp_path / "width.cfg"
    config_file.write_text("mode = ports\ndelta_over_w = 0.3\nphi = 0.75pi\nalpha = 0\nwidth = 2\n")
    assert main(["--config", str(config_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "qif-mzi: config error: line 5: unknown key 'width'\n" and captured.out == ""


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

def _assert_bytes(got, expected: str):
    """The writer's bytes are ``expected`` in UTF-8 (lone surrogates kept, as the writer keeps them).  A failure
    names the first differing lines: pytest's diff of two whole tables of a megabyte runs for minutes."""
    want = expected.encode("utf-8", "surrogatepass")
    if got != want:
        wrong = [(a, b) for a, b in zip(bytes(got).split(b"\n"), want.split(b"\n")) if a != b]
        pytest.fail(f"{len(got)} bytes, expected {len(want)}; {len(wrong)} differing lines, first {wrong[:5]}")


def test_csv_shape_and_precision():
    text = write_table(["a", "b"], typed_table({"a": [0.3, 2.0], "b": [1, 0]}), "csv")
    _assert_bytes(text, "a,b\n2.9999999999999999e-01,1\n2.0000000000000000e+00,0\n")  # 17 significant digits


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


def _reference_json(names, rows):
    return json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"


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
    assert [type(typed[name].item(0)) for name in names] == [type(cell) for cell in rows[0]]
    _assert_bytes(write_table(names, typed, "csv"), _reference_csv(names, rows))
    _assert_bytes(write_table(names, typed, "json"), _reference_json(names, rows))


def test_empty_tables_are_well_formed():
    table = typed_table({"a": np.array([], np.float64), "b": np.array([], np.int64)})
    _assert_bytes(write_table(["a", "b"], table, "csv"), _reference_csv(["a", "b"], []))
    _assert_bytes(write_table(["a", "b"], table, "json"), _reference_json(["a", "b"], []))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_floats(bad):
    table = typed_table({"x": [0.5, bad], "n": [1, 2]})
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="non-finite"):
            write_table(["x", "n"], table, fmt)
    # the error names the first bad column of the whole table, though a later column fails in an earlier chunk
    a, b = np.zeros(cli._CHUNK_ROWS + 2), np.zeros(cli._CHUNK_ROWS + 2)
    a[-1], b[0] = bad, bad
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="column 'a' holds a non-finite value"):
            write_table(["a", "b"], typed_table({"a": a, "b": b}), fmt)
    # a computed column is checked block by block, before the block's bytes: the blocks before it are out
    x = np.arange(cli._CHUNK_ROWS + 2.0)
    table = cli.GridTable({"x": x[:, None], "z": None},
                          lambda block: {"z": np.where(x[block[0], None] > cli._CHUNK_ROWS, bad, 0.0)})
    out = bytearray()
    with pytest.raises(ValueError, match="column 'z' holds a non-finite value"):
        write_table(["x", "z"], table, "csv", out)
    assert out.count(b"\n") == 1 + cli._CHUNK_ROWS
    with pytest.raises(ValueError, match="computed columns needs a fill"):
        cli.GridTable({"x": x[:, None], "z": None})


@pytest.mark.parametrize("axis", [np.arange(3), np.array(["a", "b", "c"]), np.arange(3, dtype=np.float32)],
                         ids=["int", "str", "float32"])
def test_grid_table_refuses_a_column_that_is_not_float64(axis):
    # the writer formats a grid table's axes into fixed-width float cells, which an int or str axis would not fit
    with pytest.raises(ValueError, match="column 'n' is .*, not float64"):
        cli.GridTable({"x": np.zeros((2, 1)), "n": axis[None, :], "z": np.zeros((2, 3))})


@pytest.mark.parametrize("column", [np.zeros(3), np.zeros((2, 3), bool), np.zeros((2, 3), complex),
                                    np.zeros((2, 3), np.uint64), np.zeros((2, 3), "S1"), np.zeros((2, 3), np.float32)],
                         ids=["1d", "bool", "complex", "unsigned", "bytes", "float32"])
def test_grid_table_refuses_a_column_the_writer_cannot_write(column):
    # the writer's blocks need 2D columns, it has cells only for float64, signed int and str, and float32 values
    # would be written with float64 digits that do not round-trip
    with pytest.raises(ValueError, match="grid table column 'z' is "):
        cli.GridTable({"x": np.zeros((2, 1)), "z": column})


def test_grid_table_refuses_columns_that_do_not_broadcast_when_built():
    with pytest.raises(ValueError, match="broadcast"):
        cli.GridTable({"x": np.zeros((2, 1)), "z": np.zeros((3, 3))})


@pytest.mark.parametrize("full", [np.arange(-3, 3).reshape(2, 3), np.array([["a", "b", "c"], ["d", "é", ","]])],
                         ids=["int", "str"])
def test_grid_table_writes_an_int_or_str_full_column_as_the_same_typed_table(full):
    # only an axis must be float64: a full column is formatted cell by cell, as a typed_table's columns are
    x = np.array([0.5, -1.0])
    grid = cli.GridTable({"x": x[:, None], "n": full})
    typed = typed_table({"x": np.repeat(x, 3), "n": full.ravel()})
    for fmt in ("csv", "json"):
        assert write_table(["x", "n"], grid, fmt) == write_table(["x", "n"], typed, fmt)


def test_table_rejects_unequal_columns_and_mismatched_names():
    for lengths in ((2, 1), (1, 2), (3, 2)):  # a length-1 column would broadcast if it were let through
        with pytest.raises(ValueError, match="equal length"):
            typed_table({"a": [0.0] * lengths[0], "b": [1] * lengths[1]})
    table = typed_table({"a": [0.0], "b": [1]})
    for columns in (["a"], ["b", "a"], ["a", "c"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="do not match"):
            write_table(columns, table, "csv")
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        write_table(["a", "b"], table, "xml")


@pytest.mark.parametrize("values", [["a\x00"], ["ok", "a\x00b"], ["\x00"]])
def test_typed_table_refuses_nul_in_strings(values):
    # a numpy str field would drop the trailing NUL silently; the writers keep byte 0 for padding
    with pytest.raises(ValueError, match="NUL"):
        typed_table({"s": values, "n": list(range(len(values)))})


def _assert_exact_e16(values):
    values = np.asarray(values, dtype=np.float64)
    rows = [(v,) for v in values.tolist()]
    _assert_bytes(write_table(["x"], typed_table({"x": values}), "csv"), _reference_csv(["x"], rows))


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
    table = typed_table({"x": [1e15 + 0.25, 1e15 + 0.75, 1e-14, 1e129, 1e23, 1e-304, -0.0, 5e-324]})
    _assert_bytes(write_table(["x"], table, "csv"), "\n".join([
        "x", "1.0000000000000002e+15", "1.0000000000000008e+15", "1.0000000000000000e-14",
        "1.0000000000000000e+129", "9.9999999999999992e+22", "9.9999999999999997e-305",
        "-0.0000000000000000e+00", "4.9406564584124654e-324",
    ]) + "\n")


def _json_floats(values):
    """Check a one-column JSON table against json.dumps of the same rows, naming the first wrong cells."""
    values = np.asarray(values, dtype=np.float64)
    rows = [(v,) for v in values.tolist()]
    _assert_bytes(write_table(["x"], typed_table({"x": values}), "json"), _reference_json(["x"], rows))


def _json_battery():
    edges = [3.7e22, 7.4e22, 1e16, 9999999999999998.0, 1e-5, 0.0, -0.0, 5e-324, -5e-324, 1e-323,
             2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308, 1e23, 0.1, 0.3, 2.0**-1022]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([_e16_battery(), edges, twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf), -twos])


def test_json_floats_are_exactly_repr_on_a_battery():
    # 3.7e22 and 7.4e22: an end of the rounding interval falls exactly on a short decimal, which the
    # even-mantissa rule takes in; 1e16 and 9999999999999998.0 straddle the switch to exponent form
    battery = _json_battery()
    assert battery.size > floatfmt._SMALL
    _json_floats(battery)


def _padding(seed):
    """_SMALL distinct finite doubles of random bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2**64, 2 * floatfmt._SMALL, dtype=np.uint64).view(np.float64)
    return bits[np.isfinite(bits)][:floatfmt._SMALL]


@settings(max_examples=200)
@given(st.lists(_ANY_DOUBLE.filter(math.isfinite), min_size=1, max_size=40), st.integers(0, 2**32 - 1).map(_padding))
@example([3.7e22, 7.4e22, 1e16, 9999999999999998.0, 1e-5, 0.0, -0.0, 5e-324], _padding(0))
def test_array_path_floats_are_exactly_repr_and_percent_e16(values, padding):
    # the drawn values ride with _SMALL random bit patterns, so that the array path formats them
    cells = np.concatenate([values, padding])
    assert np.unique(cells.view(np.int64)).size >= floatfmt._SMALL
    _json_floats(cells)
    _assert_exact_e16(cells)


def test_floats_stay_exact_when_every_cell_falls_back(monkeypatch):
    # with a margin of 1 no bound is decided: "%" and repr format every cell, and the bytes are unchanged
    rendered = []
    exact = floatfmt._exact
    monkeypatch.setattr(floatfmt, "_exact", lambda values, render: (rendered.append(values.size),
                                                                    exact(values, render))[1])
    monkeypatch.setattr(floatfmt, "_MARGIN", 1.0)
    battery = np.concatenate([_json_battery()[::20], [0.0, -0.0]])
    nonzero = battery[battery != 0.0]  # zeros need no bound: the array path writes them itself
    _assert_exact_e16(battery)
    assert sum(rendered) == nonzero.size
    rendered.clear()
    _json_floats(battery)
    assert sum(rendered) == np.unique(nonzero.view(np.int64)).size


def test_double_double_powers_of_ten_are_correctly_rounded():
    (hi, lo, b), *_ = floatfmt._tables()
    for e, h, low, shift in zip(range(floatfmt._E_LO, floatfmt._E_HI + 1), hi.tolist(), lo.tolist(), b.tolist()):
        exact = Fraction(10) ** e / Fraction(2) ** shift  # 10^e = (hi + lo) 2^b, hi in [1, 2) with ulp 2^-52
        assert 1.0 <= h < 2.0
        assert abs(Fraction(h) - exact) <= Fraction(1, 2**53), e
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2**106, e


def test_small_tables_take_the_exact_path(monkeypatch):
    # under _SMALL values the array path's fixed cost exceeds its saving: every cell is rendered directly
    monkeypatch.setattr(floatfmt, "_render", None)
    values = np.linspace(-3.0, 3.0, floatfmt._SMALL - 1)
    _assert_exact_e16(values)
    _json_floats(values)


def test_json_tables_leave_numpy_ma_unimported():
    # numpy 2.4's np.unique imports numpy.ma, 14 to 17 ms and 1.3 MB resident in a fresh process; the JSON path of
    # _SMALL floats and more, which groups cells by exponent, must not call it
    code = ("import sys; import numpy as np; from qif_mzi import cli, floatfmt; before = 'numpy.ma' in sys.modules; "
            "cli.write_table(['x'], cli.typed_table({'x': np.linspace(0.1, 1e20, floatfmt._SMALL)}), 'json'); "
            "print(before, 'numpy.ma' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert child.returncode == 0, child.stderr
    before, after = child.stdout.split()
    assert after == before


_LOADED_BY_EVERY_MODE = ["qif_mzi.analytic", "qif_mzi.cli", "qif_mzi.core", "qif_mzi.floatfmt", "qif_mzi.numeric"]


@pytest.mark.parametrize("argv, extra", [
    (["--config", str(REPO / "configs" / "fig2a.cfg")], []),
    (["--config", str(REPO / "configs" / "fig3.cfg")], []),
    (["--config", str(REPO / "configs" / "fig4.cfg")], []),
    (["ports", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0"], []),
    (["--config", str(REPO / "configs" / "design.cfg")], ["qif_mzi.experiment"]),
    (["--config", str(REPO / "configs" / "verify.cfg")], ["qif_mzi.verify"]),
], ids=["distributions", "decompose", "sweep", "ports", "design", "verify"])
def test_each_mode_loads_only_the_submodules_it_uses(argv, extra, tmp_path):
    # every process compiles what it imports, about 70 bytes resident per source byte: experiment and verify
    # load only in the modes that call them
    code = ("import sys; from qif_mzi.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(name for name in sys.modules if name.startswith('qif_mzi.'))); sys.exit(code)")
    child = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "table.csv")],
                           capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == repr(sorted(_LOADED_BY_EVERY_MODE + extra))


def test_main_writes_through_the_module_attribute_write_table(monkeypatch, tmp_path):
    # the benchmark times cli.write_table by wrapping that attribute: main must look it up there
    calls = []
    real = cli.write_table
    monkeypatch.setattr(cli, "write_table", lambda *args: (calls.append(args[2]), real(*args))[1])
    out = tmp_path / "fig2a.json"
    assert main(["--config", str(REPO / "configs" / "fig2a.cfg"), "--format", "json", "--out", str(out)]) == 0
    assert calls == ["json"] and out.stat().st_size > 0


class _Counting:
    """A ``write_table`` sink that keeps only the count of the bytes appended to it, and of the pieces."""

    def __init__(self):
        self.size = self.pieces = 0

    def __iadd__(self, data):
        self.size += len(data)
        self.pieces += 1
        return self

    def __len__(self):
        return self.size


_PORTS_ARGV = ["ports", "--delta-over-w", "0.3", "--phi", "0.9", "--alpha", "0"]


def _main_writes(monkeypatch, table, fmt, out):
    """main's exit status for a ports command line whose run returns ``table``, written as ``fmt`` to ``out``."""
    monkeypatch.setattr(cli, "execute", lambda config: cli.RunResult(table))
    return main([*_PORTS_ARGV, "--format", fmt, "--out", str(out)])


@pytest.mark.parametrize("offset", [-1, 0, 1, "2n+1", "empty", "json-1", "json+0", "json+1"])
def test_writer_is_seamless_across_row_chunks(offset, monkeypatch, tmp_path, capsys):
    # main streams the table to its file chunk by chunk: the file must hold the in-memory bytes, the JSON tail
    # fixed on the last chunk only, and "[]" for no rows.  JSON's chunks are shorter, by the writer's own rule
    names = ["x", "n", "s"]
    chunk = {fmt: cli._separators(names, fmt)[1] for fmt in ("csv", "json")}
    assert chunk["csv"] == cli._CHUNK_ROWS and chunk["json"] < cli._CHUNK_ROWS
    n = (0 if offset == "empty" else 2 * cli._CHUNK_ROWS + 1 if offset == "2n+1"
         else chunk["json"] + int(offset[4:]) if isinstance(offset, str) else cli._CHUNK_ROWS + offset)
    rng = np.random.default_rng(n)
    floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    ints = rng.integers(-(2**63), 2**63 - 1, n).tolist()
    strs = [["", "a,b", "é\n", '"q"'][i % 4] * (i % 3) for i in range(n)]
    rows = list(zip(floats, ints, strs))
    table = typed_table({"x": floats, "n": ints, "s": strs})
    for fmt, reference in (("csv", _reference_csv), ("json", _reference_json)):
        text = write_table(names, table, fmt)
        _assert_bytes(text, reference(names, rows))
        assert write_table(names, table, fmt, _Counting()).pieces == 1 + -(-n // chunk[fmt])  # the head, then chunks
        out = tmp_path / f"table.{fmt}"
        assert _main_writes(monkeypatch, table, fmt, out) == 0
        assert out.read_bytes() == text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_refused_table_never_touches_the_file(fmt, monkeypatch, tmp_path, capsys):
    # the finiteness check covers the whole table before the first byte leaves, so the lazily opened file is
    # neither created nor truncated, though the NaN sits past the first chunk
    values = np.zeros(cli._CHUNK_ROWS + 2)
    values[-1] = math.nan
    table = typed_table({"x": values, "n": np.arange(values.size)})
    fresh, existing = tmp_path / "new" / f"table.{fmt}", tmp_path / f"old.{fmt}"
    existing.write_bytes(b"x,n\n1.0,2\n")
    for out in (fresh, existing):
        assert _main_writes(monkeypatch, table, fmt, out) == 1
        assert "non-finite" in capsys.readouterr().err
    assert not fresh.parent.exists()
    assert existing.read_bytes() == b"x,n\n1.0,2\n"


_SWEEP_201 = {"mode": "sweep", "delta_over_w_min": "0", "delta_over_w_max": "3", "delta_over_w_steps": "201",
              "phi_min": "0", "phi_max": "2pi", "phi_steps": "201", "alpha": "0"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_peak_allocation_is_bounded_by_its_output(fmt, traced_peak):
    result = execute(build_config(_SWEEP_201))
    text, peak = traced_peak(lambda: write_table(result.columns, result.rows, fmt))
    # the buffer and one block's temporaries peak at about 1.3x to 1.4x; a str of the text besides its bytes makes
    # 2.3x, and a writer holding per-cell strings or rows 3x to 4x
    assert peak <= 1.75 * len(text)


def _sweep_argv(config):
    return ["sweep", *(f"--{key.replace('_', '-')}={value}" for key, value in config.items() if key != "mode")]


def _warm_floatfmt(fmt):
    write_table(["x"], typed_table({"x": np.linspace(0.0, 1.0, 1024)}), fmt, _Counting())  # builds floatfmt's tables


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_peak_allocation_does_not_grow_with_the_file(fmt, tmp_path, capsys, traced_peak):
    # the table goes to the file block by block, so main peaks at the run's own peak plus what a block holds beyond
    # it (none for CSV or JSON, where JSON's blocks of 4096 rows held 0.5 MB); holding the 4.7 MB CSV or 8.7 MB JSON
    # file breaks the bound, and the sink test below catches a block's text kept into the next block's formatting
    out = tmp_path / f"sweep.{fmt}"
    _warm_floatfmt(fmt)
    _, run = traced_peak(lambda: execute(build_config(_SWEEP_201)))
    code, peak = traced_peak(lambda: main([*_sweep_argv(_SWEEP_201), "--format", fmt, "--out", str(out)]))
    assert code == 0 and out.stat().st_size > 4_000_000
    assert peak <= run + 2_000_000


def _main_sweep_peak(steps, fmt, out, traced_peak):
    """main's traced peak on a ``steps`` sweep written as ``fmt`` to ``out``."""
    config = {**_SWEEP_201, "delta_over_w_steps": str(steps[0]), "phi_steps": str(steps[1])}
    _warm_floatfmt(fmt)
    code, peak = traced_peak(lambda: main([*_sweep_argv(config), "--format", fmt, "--out", str(out)]))
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_peak_allocation_on_the_501_sweep_stays_well_under_one_plane(fmt, tmp_path, capsys, traced_peak):
    # the writer evaluates mean_surface for each of its blocks and drops the block once its bytes are out, so main
    # traces one block's evaluation and formatting: 1.13 MB for CSV and 1.09 MB for JSON, 0.56 and 0.54 float64
    # planes of the grid, where holding the three planes traced 3.94
    out = tmp_path / f"sweep.{fmt}"
    peak = _main_sweep_peak((501, 501), fmt, out, traced_peak)
    assert out.stat().st_size > 29_000_000
    assert peak <= 0.65 * 8 * 501 * 501


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_peak_allocation_does_not_grow_from_the_501_to_the_1000_sweep(fmt, capsys, traced_peak):
    # four times the grid adds the longer axes and their text: +66 kB (CSV) and +107 kB (JSON), where one plane of
    # the 1000 x 1000 grid is 8 MB.  The 117 MB (CSV) and 227 MB (JSON) of text go to the null device
    peak_501 = _main_sweep_peak((501, 501), fmt, os.devnull, traced_peak)
    peak_1000 = _main_sweep_peak((1000, 1000), fmt, os.devnull, traced_peak)
    assert peak_1000 <= peak_501 + 250_000


@pytest.mark.parametrize("steps", [(501, 501), (1000, 1000), (2, 500_000), (101, 101)],
                         ids=["501", "1000", "thin", "fig4"])
def test_execute_peak_allocation_exceeds_its_table_by_at_most_4_mb(steps, traced_peak):
    # execute holds no grid-sized array: a sweep's table is its two axes and a fill that the writer calls per block,
    # and execute traces the axes and 8.3 to 8.5 kB besides, where the three planes it held traced 1.9 to 2.9 MB
    # beyond them (placeholder planes, never filled, would pass a bound on the table's bytes alone)
    config = {**_SWEEP_201, "delta_over_w_steps": str(steps[0]), "phi_steps": str(steps[1])}
    result, peak = traced_peak(lambda: execute(build_config(config)))
    stored = [result.rows[name] for name in result.columns if result.rows[name] is not None]
    assert [values.shape for values in stored] == [(steps[0], 1), (1, steps[1])]
    assert peak <= sum(values.nbytes for values in stored) + 64_000


@pytest.mark.parametrize("render,bound", [(floatfmt.e16, 10.5), (floatfmt.shortest, 11.25)], ids=["e16", "shortest"])
def test_float_formatter_peak_allocation_per_block(render, bound, traced_peak):
    # a writer block of the 501 x 501 sweep: 8 delta rows of its three columns, 12,024 doubles.  floatfmt frees its
    # dead arrays and updates in place: 10.1 (e16) and 10.8 (shortest) times the input, against 16.7 and 17.7 with
    # every intermediate alive to the end of its function; the 24-byte cells themselves are 3 times the input
    deltas, phis = np.linspace(0.0, 3.0, 501), np.linspace(0.0, 2 * math.pi, 501)
    block = np.stack(analytic.mean_surface(deltas[200:208, None], phis[None, :], 0.0))
    cells, peak = traced_peak(lambda: render(block), warm=True)
    assert cells.shape == block.shape + (24,)
    assert peak <= bound * block.nbytes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("steps,size,bound", [((201, 201), 4_000_000, 1_600_000), ((501, 501), 4_000_000, 1_600_000),
                                              ((2, 3 * cli._CHUNK_ROWS + 5), 2_500_000, 1_600_000),
                                              ((2, 100_000), 20_000_000, 1_600_000 + 24 * 100_000)],
                         ids=["201", "501", "wide-phi", "long-phi"])
def test_writer_peak_allocation_into_a_sink_does_not_grow_with_the_table(steps, size, bound, fmt, traced_peak):
    # one block's temporaries: 1.1 to 1.4 MB (CSV) and 0.9 to 1.3 MB (JSON), for files of 2.9 to 54 MB; keeping the
    # cells through the zero-dropping copy and the text into the next block makes 1.8 to 2.1 MB (CSV) and 1.5 to 2.0 MB
    # (JSON).  The wide grid's blocks are slices of a phi row, where one block per delta row would hold 12,293 rows'
    # temporaries.  A long axis adds its text, 24 bytes a value, held once: 3.5 (CSV) and 3.4 MB (JSON) at
    # 2 x 100,000, where joining the text from its pieces held it twice, 5.9 and 6.9 MB
    config = {**_SWEEP_201, "delta_over_w_steps": str(steps[0]), "phi_steps": str(steps[1])}
    result = execute(build_config(config))
    _warm_floatfmt(fmt)
    sink, peak = traced_peak(lambda: write_table(result.columns, result.rows, fmt, _Counting()))
    assert len(sink) > size
    assert peak < bound
    if fmt == "json":  # a JSON chunk pads to a CSV chunk's text: 0.86 to 0.98 times its peak, equal rows 1.3 to 1.9
        _warm_floatfmt("csv")
        _, csv_peak = traced_peak(lambda: write_table(result.columns, result.rows, "csv", _Counting()))
        assert peak < 1.1 * csv_peak


def _sweep_config(delta_steps, phi_steps, delta_min=0.0, delta_span=3.0, phi_min=0.0, phi_span=2 * math.pi,
                  alpha=0.4):
    return {"mode": "sweep", "delta_over_w_min": repr(delta_min), "delta_over_w_max": repr(delta_min + delta_span),
            "delta_over_w_steps": str(delta_steps), "phi_min": repr(phi_min), "phi_max": repr(phi_min + phi_span),
            "phi_steps": str(phi_steps), "alpha": repr(alpha)}


def _row_major(result):
    """A mode's table as rows of Python values, the first axis outer: its axes broadcast against its full columns read
    as one block of the whole grid, so a sweep's are one whole-grid mean_surface call's."""
    (grid,) = numeric.blocks(result.rows.shape, len(result.rows))
    full = result.rows.full(grid)
    columns = np.broadcast_arrays(*(full.get(name, result.rows[name]) for name in result.columns))
    return list(zip(*(values.ravel().tolist() for values in columns)))


def _records(result):
    """A mode's table as one ``{column name: value}`` dict a row, in row-major order."""
    return [dict(zip(result.columns, row)) for row in _row_major(result)]


_PINNED = [_sweep_config(d, cli._CHUNK_ROWS + k) for d in (2, 3) for k in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.builds(_sweep_config, st.integers(2, 60), st.integers(2, 60), st.floats(0.0, 2.0), st.floats(1e-3, 3.0),
                 st.floats(-7.0, 7.0), st.floats(1e-3, 7.0), st.floats(-math.pi, math.pi).filter(bool)))
@example(_PINNED[0])
@example(_PINNED[1])
@example(_PINNED[2])
@example(_PINNED[3])
@example(_PINNED[4])
@example(_PINNED[5])
def test_sweep_tables_match_the_reference_of_their_row_major_expansion(config):
    # the writer assembles a sweep from its axes and planes in blocks of whole delta rows or slices of one; the
    # bytes must be those of the rows written out one by one
    result = execute(build_config(config))
    rows = _row_major(result)
    assert len(rows) == len(result.rows) == int(config["delta_over_w_steps"]) * int(config["phi_steps"])
    _assert_bytes(write_table(result.columns, result.rows, "csv"), _reference_csv(result.columns, rows))
    _assert_bytes(write_table(result.columns, result.rows, "json"), _reference_json(result.columns, rows))


def _parsed_floats(text, fmt, columns):
    """The float columns of a written table, parsed back: the CSV's %.16e and the JSON's repr both round-trip."""
    if fmt == "csv":
        return np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2).T
    return np.array([[row[name] for name in columns] for row in json.loads(text)]).T


@pytest.mark.parametrize("steps", [(501, 501), (2, 3 * cli._CHUNK_ROWS + 5), (101, 101), (37, 113)],
                         ids=["501", "thin", "fig4", "short-last"])
def test_sweep_planes_filled_in_blocks_equal_one_mean_surface_call(steps, monkeypatch):
    # the writer evaluates mean_surface for each of its blocks, whole delta rows or slices of one (the thin grid's
    # phi rows span four CSV blocks; 113 phi steps leave a short last block), once for every grid point; each cell it
    # writes, as CSV and as JSON, must be that of one whole-grid call
    whole_grid, sizes = analytic.mean_surface, []
    result = execute(build_config(_sweep_config(*steps, alpha=0.4)))
    deltas, phis = result.rows["delta_over_W"].ravel(), result.rows["phi_rad"].ravel()
    seen = np.zeros(steps, int)

    def counted(delta_over_width, phi, alpha):
        rows, cols = np.searchsorted(deltas, delta_over_width.ravel()), np.searchsorted(phis, phi.ravel())
        assert np.array_equal(deltas[rows], delta_over_width.ravel()) and np.array_equal(phis[cols], phi.ravel())
        seen[np.ix_(rows, cols)] += 1
        sizes.append(rows.size * cols.size)
        return whole_grid(delta_over_width, phi, alpha)

    monkeypatch.setattr(analytic, "mean_surface", counted)
    expected = whole_grid(deltas[:, None], phis[None, :], 0.4)
    for fmt in ("csv", "json"):
        seen[:], sizes[:] = 0, []
        text = write_table(result.columns, result.rows, fmt)
        assert (seen == 1).all()
        assert max(sizes) <= cli._separators(result.columns, fmt)[1]
        for name, column, plane in zip(result.columns[2:], _parsed_floats(text, fmt, result.columns)[2:], expected):
            assert np.array_equal(column.view(np.int64), plane.ravel().view(np.int64)), (fmt, name)


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
    p = result.rows["p_over_W"].ravel()
    dens1 = result.rows["P1_times_W"].ravel()
    peak = p[np.argmax(dens1)]
    assert peak == pytest.approx(-0.3, abs=0.05)


def test_decompose_terms_sum_exactly():
    config = build_config(
        {"mode": "decompose", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0", "grid_points": "201"}
    )
    result = execute(config)
    assert result.columns == ["p_over_W", "T_a_times_W", "T_b_times_W", "P1_unnormalized_times_W"]
    for row in _records(result):
        assert row["P1_unnormalized_times_W"] == row["T_a_times_W"] + row["T_b_times_W"]
        assert row["T_a_times_W"] >= 0.0


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
    rows = _row_major(result)
    dark = [row for row in rows if row[4] <= 1e-12]
    assert len(dark) == 1  # only delta = 0, phi = pi
    assert dark[0][0] == 0.0 and dark[0][1] == pytest.approx(math.pi)
    assert dark[0][2] == 0.0 and dark[0][3] == 0.0
    # row-major emission: delta outer, phi inner
    assert [row[0] for row in rows[:5]] == [0.0] * 5
    # each walk of the table folds its summary afresh: a second one, by the writer, gives the same lines
    summary = list(result.summary)
    write_table(result.columns, result.rows, "csv")
    assert result.summary == summary and summary[1] == "  anomalous (positive-mean) points: 4 of 25 (16.0%)"


def test_ports_mode_table():
    config = build_config({"mode": "ports", "delta_over_w": "0.3", "phi": "0.75pi", "alpha": "0"})
    result = execute(config)
    assert result.columns == ["port", "probability", "mean_p1_over_W", "mean_p2_over_W", "mean_defined"]
    by_port = {row["port"]: row for row in _records(result)}
    assert by_port["TOTAL"]["probability"] == pytest.approx(1.0, abs=1e-12)
    assert by_port["TOTAL"]["mean_p1_over_W"] == pytest.approx(-0.15, abs=1e-12)
    assert by_port["DC"]["mean_p1_over_W"] == pytest.approx(0.35670404722052823, rel=1e-10)
    assert by_port["DC"]["mean_p1_over_W"] == -by_port["DC"]["mean_p2_over_W"]
    assert all(row["mean_defined"] == 1 for row in by_port.values())


def test_ports_mode_marks_dark_ports_without_nan():
    config = build_config({"mode": "ports", "delta_over_w": "0.3", "phi": "0.9", "alpha": "0", "r": "0"})
    result = execute(config)
    by_port = {row["port"]: row for row in _records(result)}
    assert by_port["CC"]["mean_defined"] == 0 and by_port["CC"]["mean_p1_over_W"] == 0.0
    assert by_port["CD"]["mean_defined"] == 1
    text = write_table(result.columns, result.rows, "csv")
    assert b"nan" not in text.lower()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ports_table_writes_an_exact_zero_without_sign(fmt, tmp_path, capsys):
    # at delta = 0 the CD mean of p1 and the TOTAL mean of p2 are exact -0.0: the table writes 0, as the summary prints
    out = tmp_path / f"ports.{fmt}"
    argv = ["ports", "--delta-over-w", "0", "--phi", "0.75pi", "--alpha", "0", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert re.search(r"-0\.0*(e\+00)?[,\n]", text) is None  # a negative zero cell, in either format


def test_summaries_print_an_exact_zero_without_sign(tmp_path, capsys):
    # at delta = 0 the CD mean and the closed-form unconditioned mean are exact -0.0
    assert main(["ports", "--delta-over-w", "0", "--phi", "0.75pi", "--alpha", "0", "--out", str(tmp_path / "p.csv")]) == 0
    ports = capsys.readouterr().out
    assert "-0.000000" not in ports
    assert "  P(CD) = 0.728553   mean p1 = +0.000000 W\n" in ports
    assert "  unconditioned mean of p1, closed form -2 t^2 r^2 delta: +0.000000 W\n" in ports
    # fig2a's quadrature mean is a true -7.67e-17 and keeps its sign
    out = tmp_path / "fig2a.csv"
    assert main(["--config", str(REPO / "configs" / "fig2a.cfg"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "distributions mode: port DC, r=0.707107, delta/W=0, phi=2.35619449 rad, alpha=0.00000000 rad\n"
        "  mean p1/W from quadrature of the emitted density: -0.000000\n"
        "  mean p1/W, closed form with branch overlap I^2:  +0.000000\n"
        "  mean p1/W, closed form with packet overlap I:    +0.000000\n"
        "  overlap-convention difference:                   +0.000000\n"
        f"wrote 2001 row(s) to {out} (csv)\n"
    )


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
    (row,) = _records(result)
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
            "seed": "7",
        }
    )
    result = execute(config)
    assert result.exit_code == 0
    assert all(row["passed"] == 1 for row in _records(result))


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
    # phases that cancel the DC pair, the splitters r = 0 and r = 1 that never reach it, and r = 0 at CC: every
    # pair's density comes from the port algebra, so every dark pair reports its own probability the same way
    for dark, port in ((["--delta-over-w", "0", "--phi", "pi"], "DC"),
                       (["--r", "0", "--delta-over-w", "0.3", "--phi", "0.75pi"], "DC"),
                       (["--r", "1", "--delta-over-w", "0.3", "--phi", "0.75pi"], "DC"),
                       (["--r", "0", "--port", "cc", "--delta-over-w", "0.3", "--phi", "0.75pi"], "CC")):
        out = tmp_path / "dark.csv"
        code = main(["distributions", *dark, "--alpha", "0", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "vanishes" in captured.err
        assert "nan" not in captured.err.lower()
        assert captured.err == (f"qif-mzi: error: post-selected probability vanishes (P({port}) = 0.000e+00); "
                                "density undefined\n")
        assert not out.exists()


_POINT = ["--delta-over-w", "0.3", "--phi", "1", "--alpha", "0"]
_TRUNCATED, _WIDTH_OVERFLOW = "grid [-8, 8] truncates a branch", "grid bounds must be ordered and a finite width apart"


@pytest.mark.parametrize("argv, error", [
    (["distributions", "--delta-over-w", "10", "--phi", "0.9pi", "--alpha", "0"], _TRUNCATED),
    (["distributions", "--delta-over-w", "1e300", "--phi", "0.9pi", "--alpha", "0"], _TRUNCATED),
    # a span whose grid width overflows the double range
    (["distributions", *_POINT, "--grid-span", "1e308"], _WIDTH_OVERFLOW),
    (["decompose", *_POINT, "--grid-span", "1e308"], _WIDTH_OVERFLOW),
], ids=["half-off-grid", "overflowing", "distributions-span-overflow", "decompose-span-overflow"])
def test_main_report_grid_must_hold_every_branch(argv, error, tmp_path, capsys):
    out = tmp_path / "truncated.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"qif-mzi: error: {error}")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("mode", ["distributions", "decompose"])
def test_main_report_grid_too_wide_to_square_warns_nothing(mode, tmp_path, capsys):
    # a 1e300 W grid is finite, but (p / W)^2 overflows on it: a packet's amplitude is 0.0 from |p / W| = 38.6 on, so
    # the cells must be written without a RuntimeWarning, which the suite turns into an error
    out = tmp_path / f"{mode}.csv"
    assert main([mode, *_POINT, "--grid-span", "1e300", "--grid-points", "5", "--out", str(out)]) == 0
    edges = [line.split(",")[1:] for line in out.read_text().splitlines()[1::4]]
    assert edges == [["0.0000000000000000e+00"] * len(edges[0])] * 2
    assert capsys.readouterr().err == ""


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
    ("mode = ports\nphi = 0\nalpha = 0\n", "delta_over_w", "-0.1", 4, "key 'delta_over_w': must be >= 0, got -0.1"),
    (FIG2C_TEXT, "port", "xx", 5, "key 'port': expected one of cc, cd, dc, dd, got 'xx'"),
    (FIG2C_TEXT, "grid_span", "-2", 5, "key 'grid_span': must be positive, got -2.0"),
    (FIG2C_TEXT, "grid_points", "100", 5, "key 'grid_points': must be odd and >= 3, got 100"),
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
    # verify's battery has fixed sizes: its former size keys are unknown at any value
    ("mode = verify\n", "joint_grid_points", "1", 2, "unknown key 'joint_grid_points'"),
    ("mode = verify\n", "kick_points", "15", 2, "unknown key 'kick_points'"),
    ("mode = verify\n", "draws_marginal", "0", 2, "unknown key 'draws_marginal'"),
    ("mode = verify\n", "draws_ports", "-5", 2, "unknown key 'draws_ports'"),
]


# upper bounds on allocation sizes, and values that overflow: (id, document, key, value, line, message)
_LIMIT_ERRORS = [
    ("grid_points-max", FIG2C_TEXT, "grid_points", "1048579", 5, "key 'grid_points': must be <= 1048577, got 1048579"),
    # the former verify size bounds: a value above the old bound is an unknown key, not a limit error
    ("joint_grid_points-max", "mode = verify\n", "joint_grid_points", "2051", 2, "unknown key 'joint_grid_points'"),
    ("kick_points-max", "mode = verify\n", "kick_points", "1048577", 2, "unknown key 'kick_points'"),
    ("draws_ports-max", "mode = verify\n", "draws_ports", "100001", 2, "unknown key 'draws_ports'"),
    ("sweep-rows-max", _SWEEP.replace("phi_steps = 5\n", ""), "phi_steps", "200001", 7,
     "key 'phi_steps': delta_over_w_steps * phi_steps must be <= 1000000 rows, got 5 * 200001"),
    ("phi-range-overflow", _SWEEP.replace("phi_min = 0\n", "phi_min = -1e308\n").replace("phi_max = 1\n", ""),
     "phi_max", "1e308", 7, "key 'phi_max': range width phi_max - phi_min must be finite (got 1e+308 - -1e+308)"),
    # phases whose sum or difference overflows, in the two modes that take cos and sin of alpha +- phi
    ("ports-phase-overflow", "mode = ports\ndelta_over_w = 0.3\nphi = 1e308\n", "alpha", "1e308", 4,
     "key 'alpha': |alpha| + |phi| must be finite (got 1e+308 and 1e+308)"),
    ("distributions-phase-overflow", "mode = distributions\nport = cc\ndelta_over_w = 0.3\nphi = 1e308\n", "alpha",
     "-1e308", 5, "key 'alpha': |alpha| + |phi| must be finite (got -1e+308 and 1e+308)"),
    ("sweep-steps-max", _SWEEP.replace("delta_over_w_steps = 5\n", ""), "delta_over_w_steps", "100000000000", 6,
     "key 'phi_steps': delta_over_w_steps * phi_steps must be <= 1000000 rows, got 100000000000 * 5"),
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
    ("design-separation-underflow", _DESIGN.replace("= 2e-3", "= 1e-140").replace("= 4e-2", "= 1e-309"),
     "tune_target_n", "9223372036854775807", 7,
     "design: the tuned separation for |alpha| = 9223372036854775807 x 2 pi is 0.0, not a positive double"),
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
    r, delta_over_w = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 6.0))
    phi, alpha = draw(st.floats(-7.0, 7.0)), draw(st.floats(-7.0, 7.0))
    keys = {"r": r, "delta-over-w": delta_over_w, "phi": phi, "alpha": alpha}
    params = InterferometerParams(r, phi, alpha, delta_over_w)
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
    alias = GaussianPacket(1.0).alias_bound(grid.spacing)
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
    closed = analytic.port_mean_momenta(params, 1)[port]
    amp = analytic.port_amplitudes(params)[port]
    i2 = GaussianPacket(params.width).overlap(params.delta) ** 2
    gain = (abs(amp.free) ** 2 + abs(amp.kicked) ** 2 + 2.0 * i2 * abs(amp.free * amp.kicked)) / (
        analytic.port_probabilities(params)[port]
    )
    d = params.delta_over_width
    tail = max(GaussianPacket(1.0, center).tail_mass(grid.p_min, grid.p_max) for center in (0.0, -d, d))
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


# verify runs at the fixed resolutions of verify.run_all: no key sets its grids or draw counts
_VERIFY_SIZE_KEYS = [
    ("joint_grid_points", "2049", True),
    ("kick_points", "4096", True),
    ("draws_marginal", "100", True),
    ("draws_ports", "1000", True),
    ("grid_span", "1e308", False),
    ("grid_points", "2001", False),
]


@pytest.mark.parametrize("key, value, unknown", _VERIFY_SIZE_KEYS, ids=[case[0] for case in _VERIFY_SIZE_KEYS])
def test_main_verify_has_no_resolution_keys(key, value, unknown, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    config_file = tmp_path / "verify.cfg"
    config_file.write_text(f"mode = verify\n{key} = {value}\n")
    for argv, line, spelling in ((["--config", str(config_file)], "line 2: ", key), (["verify", flag, value], "", flag)):
        assert main(argv + ["--out", str(tmp_path / "verify.csv")]) == 2
        message = f"unknown key '{spelling}'" if unknown else f"key '{key}' is not valid in mode 'verify'"
        assert capsys.readouterr() == ("", f"qif-mzi: config error: {line}{message}\n")
        assert not (tmp_path / "verify.csv").exists()


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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ports", "distributions --port cc", "distributions --port cd", "distributions --port dc",
                     "distributions --port dd"]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 5.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example("ports", 0.5, 0.3, 1e308, 1e308)
@example("distributions --port cc", 0.5, 0.3, 1e308, 1e308)
def test_main_port_modes_print_no_nan_at_any_finite_phase(mode, r, delta_over_w, phi, alpha):
    # a phase sum alpha + phi that overflowed made every exit pair NaN with exit 0
    argv = [*mode.split(), "--r", repr(r), "--delta-over-w", repr(delta_over_w), "--phi", repr(phi),
            "--alpha", repr(alpha)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        assert not re.search(r"\b(nan|inf)\b", stdout.getvalue().lower())
    else:
        assert code in (1, 2)
        assert stderr.getvalue().startswith("qif-mzi: ") and stderr.getvalue().count("\n") == 1


def test_main_unwritable_output(capsys):
    code = main(["distributions", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "0",
                 "--grid-points", "11", "--out", "/dev/null/sub/x.csv"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["distributions", "sweep"])
def test_main_failed_write_prints_its_error_and_no_summary(mode, capsys):
    # the summary follows the table, since a sweep's folds the blocks the writer reads: a run whose file cannot be
    # written prints the error alone
    argv = _sweep_argv(_SWEEP_201) if mode == "sweep" else ["distributions", *_POINT, "--grid-points", "11"]
    assert main([*argv, "--out", "/dev/null/sub/x.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qif-mzi: error: cannot write output file")


def test_main_sweep_without_out_prints_the_summary_it_prints_with_it(tmp_path, capsys):
    argv = _sweep_argv({**_SWEEP_201, "delta_over_w_steps": "5", "phi_steps": "5"})
    assert main(argv) == 0
    bare = capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == bare + f"wrote 25 row(s) to {out} (csv)\n"
    assert "anomalous (positive-mean) points: 4 of 25" in bare and "postselect_norm <= 1e-12: 1" in bare


def test_sweep_summary_names_the_first_of_equal_maxima_across_blocks(monkeypatch, capsys):
    # np.argmax over a whole plane names its first maximum in row-major order; the fold over the blocks of a walk
    # (two slices of each phi row here) must name the same one
    def flat(delta_over_width, phi, alpha):
        ones = np.ones(np.broadcast_shapes(delta_over_width.shape, phi.shape))
        return analytic.MeanSurface(ones, ones, ones)

    monkeypatch.setattr(analytic, "mean_surface", flat)
    assert main(_sweep_argv(_sweep_config(3, cli._CHUNK_ROWS + 7, delta_min=0.5, phi_min=-1.0))) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  anomalous (positive-mean) points: 12309 of 12309 (100.0%)",
        "  largest anomalous mean: +1.000000 W at delta/W=0.5, phi=-1.000000 rad",
    ]


_WHOLE_DELTA = st.floats(0.0, 1.7e308)
_WHOLE_PHASE = st.floats(-1e308, 1e308)


def _ordered(lo, hi):
    return lo < hi and math.isfinite(hi - lo)


@settings(max_examples=60, deadline=None)
@given(st.tuples(_WHOLE_DELTA, _WHOLE_DELTA).map(sorted).filter(lambda r: _ordered(*r)),
       st.tuples(_WHOLE_PHASE, _WHOLE_PHASE).map(sorted).filter(lambda r: _ordered(*r)),
       _WHOLE_PHASE, st.integers(2, 7), st.integers(2, 7))
@example((0.0, 1.7e308), (-1e308, 7e307), 1e308, 2, 3)
@example((1e-300, 3e-300), (0.0, 1e-300), -1e308, 3, 2)
def test_sweep_cells_are_finite_over_the_whole_accepted_ranges(deltas, phis, alpha, delta_steps, phi_steps):
    # the writer checks a computed block before its bytes, and a refusal after the first block would leave a
    # truncated file: no accepted sweep may reach that check
    config = build_config({"mode": "sweep", "delta_over_w_min": repr(deltas[0]), "delta_over_w_max": repr(deltas[1]),
                           "delta_over_w_steps": str(delta_steps), "phi_min": repr(phis[0]), "phi_max": repr(phis[1]),
                           "phi_steps": str(phi_steps), "alpha": repr(alpha)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _row_major(execute(config))
    assert np.isfinite(rows).all()


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


@pytest.mark.parametrize("argv", [
    ["ports", "--delta-over-w", "0.3", "--phi", "1e200", "--alpha", "0"],
    ["distributions", "--delta-over-w", "0.3", "--phi", "0.75pi", "--alpha", "-1e200"],
    ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "1", "--delta-over-w-steps", "2",
     "--phi-min", "0", "--phi-max", "1", "--phi-steps", "2", "--alpha", "1e200"],
], ids=["ports-phi", "distributions-alpha", "sweep-alpha"])
def test_main_large_phase_prints_a_short_header(argv, capsys):
    # phi and alpha used to print with :.8f, a 276-character header for phi = 1e200
    assert main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert len(header) < 120 and "e+200 rad" in header


_DESIGN_ARGV = ["--config", str(REPO / "configs" / "design.cfg")]  # flags override the preset's keys


@pytest.mark.parametrize("argv, line", [
    (["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "1", "--delta-over-w-steps", "2",
      "--phi-min", "0", "--phi-max", "1e300", "--phi-steps", "2"],
     "  largest anomalous mean: +0.028306 W at delta/W=1, phi=1.000000e+300 rad"),
    ([*_DESIGN_ARGV, "--waist-transverse-m", "1e50"], "  delta / W              2.1877e+54"),
    ([*_DESIGN_ARGV, "--length-m", "4e7"], "  alpha                  -2.1877e+10 rad = -6.9636e+09 pi"),
    ([*_DESIGN_ARGV, "--length-m", "4e7", "--separation-m", "2e6"],
     "  tuned separation       2.3212e+09 mm gives |alpha| = 3 x 2 pi"),
], ids=["sweep-phi", "design-delta-over-w", "design-alpha", "design-tuned-separation"])
def test_main_summary_numbers_switch_to_scientific_from_1e9(argv, line, capsys):
    # fixed point printed phi = 1e300 with 300 digits, and delta / W = 2.2e54 with 55
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    assert all(len(text) < 120 for text in lines)


_DESIGN_SUMMARY = """\
design mode: SI setup -> dimensionless model
  transit time           2.000000e-08 s
  coulomb force          5.767694e-23 N
  momentum kick delta    1.153539e-30 kg m/s
  momentum width W       5.272859e-30 kg m/s
  delta / W              0.2188
  alpha                  -21.8769 rad = -6.9636 pi
  fringe spacing h/delta 5.7441e-04 m
  longitudinal spread    5.7918e-06 m
  transverse growth      6.7008e-05 (relative)
  kinetic scale          6.1043e-29 J
  potential scale        5.7677e-28 J
  tuned separation       2.3212 mm gives |alpha| = 3 x 2 pi
  PASS separation_to_extent: ratio 200 >= 100
  PASS potential_to_kinetic: ratio 9.449 >= 5
  PASS fringe_to_beam: ratio 57.44 >= 10
  PASS linearization_error: ratio 2.5e-05 <= 0.001
  PASS transverse_spread: ratio 6.701e-05 <= 0.001
"""

_DESIGN_HEADER = (
    "separation_m,length_m,speed_m_per_s,waist_transverse_m,waist_longitudinal_m,transit_time_s,force_N,"
    "delta_kg_m_per_s,width_W_kg_m_per_s,delta_over_W,alpha_rad,alpha_over_pi,fringe_spacing_m,"
    "longitudinal_spread_m,transverse_spread_m,transverse_spread_relative,kinetic_scale_J,potential_scale_J,"
    "tuned_multiple_2pi,tuned_separation_m,tuned_alpha_rad,"
    "check_separation_to_extent_ratio,check_separation_to_extent_pass,"
    "check_potential_to_kinetic_ratio,check_potential_to_kinetic_pass,check_fringe_to_beam_ratio,"
    "check_fringe_to_beam_pass,check_linearization_error_ratio,check_linearization_error_pass,"
    "check_transverse_spread_ratio,check_transverse_spread_pass"
)


def test_main_design_preset_summary_and_columns(tmp_path, capsys):
    # the preset's whole stdout, and its table's columns in order: the inputs, the derived cells, two per check
    assert main(_DESIGN_ARGV) == 0
    assert capsys.readouterr() == (_DESIGN_SUMMARY, "")
    out = tmp_path / "design.csv"
    assert main([*_DESIGN_ARGV, "--out", str(out)]) == 0
    assert capsys.readouterr().out == _DESIGN_SUMMARY + f"wrote 1 row(s) to {out} (csv)\n"
    header = out.read_text().splitlines()[0]
    assert header == _DESIGN_HEADER and len(header.split(",")) == 31


def test_main_design_with_failing_checks_prints_fail_and_writes_zero(tmp_path, capsys):
    # beams 20 um apart for a metre: only the potential-to-kinetic check still passes
    out = tmp_path / "design.csv"
    assert main([*_DESIGN_ARGV, "--separation-m", "2e-5", "--length-m", "1", "--out", str(out)]) == 0
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL ")]
    failing = ("separation_to_extent", "fringe_to_beam", "linearization_error", "transverse_spread")
    assert [line.split()[1] for line in fails] == [f"{name}:" for name in failing]
    with out.open() as handle:
        (row,) = csv.DictReader(handle)
    for name in (*failing, "potential_to_kinetic"):
        assert row[f"check_{name}_pass"] == str(int(name not in failing))


def test_design_keys_are_experiment_inputs_fields_in_order():
    # RunConfig.design passes the design keys' values to ExperimentInputs by position
    from qif_mzi.experiment import ExperimentInputs

    names = [f.name for f in dataclasses.fields(ExperimentInputs)]
    keys = cli._mode_keys("design", "required")
    assert len(names) == len(keys)
    assert all(key.startswith(name + "_") for name, key in zip(names, keys))


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
    ([*_PORTS, "--phi", "1e999"], "key 'phi': value '1e999' is not finite"),
    (["distributions", *_PORTS[1:], "--phi", "1", "--grid-points", "3.5"],
     "key 'grid_points': cannot parse integer from '3.5'"),
], ids=["unknown", "abbreviation", "repeated", "repeated-empty", "trailing", "joined-empty", "stray-positional",
        "mode-flag", "short-flag", "double-dash", "non-finite", "non-integer"])
def test_main_malformed_command_line_is_a_config_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qif-mzi: config error: {message}\n"
    assert captured.out == ""


def test_main_seed_beyond_the_integer_digit_limit_is_a_short_config_error(tmp_path, capsys):
    # a non-negative seed of any length is valid by the key's rule, but int() parses at most
    # sys.get_int_max_str_digits() digits: the error names that limit and echoes only a prefix
    limit = sys.get_int_max_str_digits()
    seed = "1234567890" * (limit // 10 + 70)
    message = (f"key 'seed': cannot parse integer from '12345678901234567890'... ({len(seed)} characters; "
               f"Python parses at most {limit} digits)")
    assert main(["verify", "--seed", seed]) == 2
    assert capsys.readouterr() == ("", f"qif-mzi: config error: {message}\n")
    config = tmp_path / "verify.cfg"
    config.write_text(f"mode = verify\nseed = {seed}\n")
    assert main(["--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"qif-mzi: config error: line 2: {message}\n")
    assert parse_config(f"mode = verify\nseed = {seed[:limit]}\n").seed == int(seed[:limit])


@pytest.mark.parametrize("value, problem", [
    ("1" * 5000, "value '11111111111111111111'... (5000 characters) is not finite"),
    ("x" * 5000, "cannot parse number from 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    ("1" * 400 + "pi", "value '11111111111111111111'... (402 characters) is not finite"),
    ("1e999".zfill(20), "value '0000000000000001e999' is not finite"),  # 20 characters: echoed whole
], ids=["not-finite", "unparsable", "not-finite-pi", "prefix-length"])
def test_main_overlong_float_is_a_short_config_error(value, problem, capsys):
    # float() parses a value of any length: both errors echo a 20-character prefix and the length, not the value
    assert main([*_PORTS, "--phi", value]) == 2
    assert capsys.readouterr() == ("", f"qif-mzi: config error: key 'phi': {problem}\n")


_LONG = 3000  # characters of user text that an error echoes as its first 20 and its length


@pytest.mark.parametrize("argv, message", [
    (["m" * _LONG], f"unknown mode {'m' * 20!r}... ({_LONG} characters); expected one of " + ", ".join(cli.MODES)),
    ([*_PORTS, "--phi", "1", "--" + "k" * _LONG], f"unknown key {'--' + 'k' * 18!r}... ({_LONG + 2} characters)"),
    ([*_PORTS, "--phi", "1", "--format", "j" * _LONG],
     f"key 'format': expected csv or json, got {'j' * 20!r}... ({_LONG} characters)"),
    (["verify", "--seed", "x" * _LONG], f"key 'seed': cannot parse integer from {'x' * 20!r}... ({_LONG} characters)"),
], ids=["mode", "key", "format", "integer"])
def test_main_overlong_text_is_a_short_config_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"qif-mzi: config error: {message}\n")


def test_main_config_file_faults_are_config_errors(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"mode = ports\n\xff\xfe\n")
    text = tmp_path / "run.cfg"
    text.write_text(FIG2C_TEXT)
    assert main(["--config", str(binary)]) == 2
    assert capsys.readouterr().err.startswith(f"qif-mzi: config error: cannot read config file {str(binary)!r}")
    assert main(["--config", str(text), "--config", str(text)]) == 2
    assert capsys.readouterr().err == "qif-mzi: config error: option '--config' is given twice\n"
    bare = tmp_path / "bare.cfg"
    bare.write_text("mode = ports\nphi\n")
    assert main(["--config", str(bare)]) == 2
    assert capsys.readouterr().err == "qif-mzi: config error: line 2: expected 'key = value', got 'phi'\n"
    bare.write_text(f"mode = ports\n{'x' * _LONG}\n")
    assert main(["--config", str(bare)]) == 2
    message = f"line 2: expected 'key = value', got {'x' * 20!r}... ({_LONG} characters)"
    assert capsys.readouterr() == ("", f"qif-mzi: config error: {message}\n")


def test_main_reads_a_config_file_as_utf8_in_any_locale(tmp_path):
    # the C locale without UTF-8 mode: the locale's encoding is ASCII
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(REPO / "src")}
    preset = tmp_path / "ports.cfg"
    preset.write_text("# phase φ = 3π/4\nmode = ports\ndelta_over_w = 0.3\nphi = 0.75pi\nalpha = 0\n", encoding="utf-8")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"mode = ports\n\xff\xfe\n")
    child = [sys.executable, "-c", "import sys; from qif_mzi.cli import main; sys.exit(main())", "--config"]
    runs = {path: subprocess.run([*child, str(path)], capture_output=True, text=True, env=env) for path in (preset, binary)}
    assert (runs[preset].returncode, runs[preset].stderr) == (0, "")
    assert runs[preset].stdout.startswith("ports mode: ")
    assert runs[binary].returncode == 2
    assert runs[binary].stderr.startswith(f"qif-mzi: config error: cannot read config file {str(binary)!r}")


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
    "port": (["cd", "dd", "dc", "cc"], "xx"),
    "grid_points": (["11", "31"], "100"),
    "format": (["csv", "json"], "xml"),
}
_OPTIONAL = {"ports": ["r", "format"], "distributions": ["r", "format", "port", "grid_points"]}
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


def _reproduce_figures(monkeypatch, repo):
    """``scripts/reproduce_figures.py``'s ``run()`` with its ``REPO`` pointed at ``repo``."""
    spec = importlib.util.spec_from_file_location("reproduce_figures", REPO / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "REPO", repo)
    return script.run()


def test_reproduce_figures_writes_one_csv_per_preset(monkeypatch, tmp_path, capsys):
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    assert _reproduce_figures(monkeypatch, tmp_path) == 0
    presets = sorted(path.stem for path in (tmp_path / "configs").glob("*.cfg"))
    assert len(presets) == 7 and presets[-1] == "verify"
    assert sorted(path.stem for path in (tmp_path / "out").iterdir()) == presets
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("---")] == presets


def test_reproduce_figures_returns_the_failing_run_code(monkeypatch, tmp_path, capsys):
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    (tmp_path / "configs" / "broken.cfg").write_text("mode = ports\n")  # sorts first; lacks the working point
    assert _reproduce_figures(monkeypatch, tmp_path) == 2
    assert "missing required keys" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []  # the script stops at the first failing run


def test_compare_outputs_reports_only_a_run_that_differs(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_outputs", REPO / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = [("ports.csv", ["ports", "--delta-over-w", "0.3", "--phi", "1", "--alpha", "0"])]
    assert script.compare(REPO, runs) == []
    assert capsys.readouterr().out == ""
    # the script states the platform fingerprint before its results
    monkeypatch.setattr(script, "battery", lambda: runs)
    assert script.main([str(REPO)]) == 0
    fingerprint, result = capsys.readouterr().out.splitlines()
    assert fingerprint == script.fingerprint()
    assert fingerprint.startswith(f"platform: numpy {np.__version__}; exp float64 ")
    assert result == "1 of 1 runs identical"
    # it names the OpenBLAS core picked at run time, which OPENBLAS_CORETYPE overrides
    core = script.blas_core()
    assert f"; core {core}; " in fingerprint
    if core != "unknown" and platform.machine() == "x86_64":
        read_core = "import compare_outputs; print(compare_outputs.blas_core())"
        child = subprocess.run([sys.executable, "-c", read_core], capture_output=True, text=True, cwd=REPO / "scripts",
                               env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"})
        assert child.stdout == "Haswell\n"
    # a copy whose ports summary reads differently: the same table, a different stdout
    shutil.copytree(REPO / "src" / "qif_mzi", tmp_path / "src" / "qif_mzi", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = tmp_path / "src" / "qif_mzi" / "cli.py"
    cli_py.write_text(cli_py.read_text().replace('f"ports mode: ', 'f"ports mode (changed): '))
    assert script.compare(tmp_path, runs) == ["ports.csv"]
    assert capsys.readouterr().out == "DIFFERS ports.csv: stdout\n"
