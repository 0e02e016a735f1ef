import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qif_mzi

REPO = Path(__file__).resolve().parent.parent

# the names ``from qif_mzi import *`` gave when the package imported its submodules eagerly, less the deleted
# ``to_model``
PUBLIC_NAMES = {
    "AliasingError", "BALANCED_R", "CODATA2018", "ConfigError", "DARK_THRESHOLD", "DarkPortError", "DerivedSetup",
    "Distribution1D", "EhrenfestBalance", "ExperimentInputs", "GaussianPacket", "GridError", "GridSpanError",
    "InterferometerParams", "KickOracleResult", "MeanSurface", "MomentumGrid", "PhysicalConstants", "PortPair",
    "TuneResult", "ValidityCheck", "analytic", "core", "default_grid", "derive_setup", "ehrenfest_check",
    "experiment", "free_spread_width", "joint_marginal_oracle", "kernel_purity", "kick_sign", "marginal_density",
    "mean_postselected", "mean_postselected_packet_overlap", "mean_surface", "momentum_kick_oracle", "numeric",
    "port_amplitudes", "port_marginal_density", "port_mean_momenta", "port_probabilities", "postselect_norm",
    "reduced_state", "separation_for_alpha", "term_decomposition", "tune_separation",
}


def _fresh(code: str) -> str:
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = ("import sys; import qif_mzi; "
            "print(sorted(name for name in sys.modules if name.startswith('qif_mzi.')), 'numpy' in sys.modules)")
    assert _fresh(code) == "[] False"


def test_submodules_resolve_as_attributes_after_a_bare_import():
    code = ("import qif_mzi; "
            "print([getattr(qif_mzi, name).__name__ for name in ('analytic', 'cli', 'core', 'experiment', "
            "'floatfmt', 'numeric', 'verify')])")
    assert _fresh(code) == repr([f"qif_mzi.{name}" for name in
                                 ("analytic", "cli", "core", "experiment", "floatfmt", "numeric", "verify")])


def test_every_export_is_its_submodules_object():
    assert set(qif_mzi.__all__) == PUBLIC_NAMES
    for name in qif_mzi.__all__:
        value = getattr(qif_mzi, name)
        if name in ("analytic", "core", "experiment", "numeric"):
            assert value is sys.modules[f"qif_mzi.{name}"]
        else:
            assert value is getattr(importlib.import_module(f"qif_mzi.{qif_mzi._EXPORTS[name]}"), name)


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from qif_mzi import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(qif_mzi))
    assert "__version__" in dir(qif_mzi)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qif_mzi' has no attribute 'no_such_name'$"):
        qif_mzi.no_such_name
