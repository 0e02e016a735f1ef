"""The benchmark's span tracer wraps attributes of the program by name; each must still exist."""

import importlib.util
from pathlib import Path

from qif_mzi import analytic, cli, core, experiment, numeric, verify

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "analytic": analytic, "numeric": numeric, "experiment": experiment,
               "verify": verify, "core": core}
    targets = spans.targets(modules)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for _, owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
