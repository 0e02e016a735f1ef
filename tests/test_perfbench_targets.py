"""The benchmark's span tracer wraps attributes of the program by name; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

from qif_mzi import analytic, cli, core, experiment, numeric, verify

REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"
MODULES = {"cli": cli, "analytic": analytic, "numeric": numeric, "experiment": experiment,
           "verify": verify, "core": core}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_resolves_to_a_callable():
    targets = _spans().targets(MODULES)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for _, owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("case", ["fig2a.csv", "design.json", "fig4.json", "non-ascii.csv"])
def test_traced_table_bytes_are_the_size_of_the_written_file(case, monkeypatch, tmp_path, capsys):
    # cli.write_table.bytes is len() of the writer's return value, main's file sink: it must count the file's
    # bytes, over the three chunks of fig4's 10,201 rows too
    preset, fmt = case.split(".")
    out = tmp_path / case
    if preset == "non-ascii":  # a ports command line whose run returns a table with a two-byte character
        rows = cli.typed_table({"s": ["é\n", "a"], "x": [0.5, -1.0]})
        monkeypatch.setattr(cli, "execute", lambda config: cli.RunResult(rows))
        argv = ["ports", "--delta-over-w", "0.3", "--phi", "0.9", "--alpha", "0"]
    else:
        argv = ["--config", str(REPO / "configs" / f"{preset}.cfg")]
    argv += ["--format", fmt, "--out", str(out)]
    tracer = _spans().Tracer(MODULES)
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.remove()
    assert tracer.calls["cli.write_table"] == 1
    assert tracer.metric("cli.write_table.bytes", 1) == out.stat().st_size


@pytest.mark.parametrize("case", ["37x41.csv", "3x4097.json"])
def test_traced_sweep_counts_every_row_and_the_written_file(case, tmp_path, capsys):
    # a sweep hands the writer its axes and planes at their own shapes, not its rows: len() of that table must still
    # be the row count, which the tracer reads, so cli.write_table.cells is five cells a row
    shape, fmt = case.split(".")
    delta_steps, phi_steps = (int(n) for n in shape.split("x"))
    out = tmp_path / case
    argv = ["sweep", "--delta-over-w-min", "0", "--delta-over-w-max", "3", "--delta-over-w-steps", str(delta_steps),
            "--phi-min", "0", "--phi-max", "2pi", "--phi-steps", str(phi_steps), "--alpha", "0.4",
            "--format", fmt, "--out", str(out)]
    tracer = _spans().Tracer(MODULES)
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.remove()
    assert tracer.calls["cli.write_table"] == 1
    assert tracer.metric("cli.write_table.cells", 1) == 5 * delta_steps * phi_steps
    assert tracer.metric("cli.write_table.bytes", 1) == out.stat().st_size
