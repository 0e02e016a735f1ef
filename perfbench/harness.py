"""Running one pass of a workload through ``qif_mzi.cli.main`` and checking it.

``prepare`` must run before numpy is imported anywhere in the process: it
sets the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import ROOT, Operation

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: One BLAS thread, which is within any nproc.  On a 2-core VM, two OpenBLAS
#: threads made the 513 x 513 complex eigvalsh of numeric.kernel_purity about
#: six times slower than one (0.2-1.6 s against 0.08 s) and far less steady.
BLAS_THREADS = 1


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def prepare() -> None:
    """Put the checkout's sources on the path and set the BLAS thread count."""
    if not (ROOT / "src" / "qif_mzi" / "cli.py").is_file():
        raise SetupError(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was set")
    for name in _BLAS_ENV:
        os.environ[name] = str(min(BLAS_THREADS, usable_cores()))
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def environment(seed: int) -> dict:
    """nproc, interpreter, numpy, the BLAS library and its live thread count, and the seed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "seed": seed,
    }


def _blas_threads(np) -> int | str:
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} requested (live count unavailable)"


@dataclass
class Outcome:
    rc: int | None  # None: main raised
    stdout: str
    stderr: str
    data: bytes | None = None  # the table written, if any
    digest: str | None = None

    def fingerprint(self) -> tuple:
        return self.rc, self.stdout, self.stderr, self.digest


def clear_outputs(ops: list[Operation]) -> None:
    for op in ops:
        Path(op.out).unlink(missing_ok=True)


def run_pass(cli, ops: list[Operation]) -> list[Outcome]:
    """One operation at a time, stdout and stderr captured; this is the timed part."""
    outcomes = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.argv())
            except Exception:  # an escaped exception is a failed operation, not a crashed run
                rc = None
                traceback.print_exc(file=err)
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue()))
    return outcomes


def collect(ops: list[Operation], outcomes: list[Outcome], keep_data: bool) -> None:
    """Read back each operation's table (outside the timed part)."""
    for op, outcome in zip(ops, outcomes):
        path = Path(op.out)
        if path.is_file():
            data = path.read_bytes()
            outcome.digest = hashlib.sha256(data).hexdigest()
            outcome.data = data if keep_data else None


def check_pass(ops: list[Operation], outcomes: list[Outcome]) -> list[list[str]]:
    """Problems of each operation; every check is made apart from the program."""
    import reference

    by_label = {op.label: outcome for op, outcome in zip(ops, outcomes)}
    problems = []
    for op, outcome in zip(ops, outcomes):
        try:
            problems.append(_check(reference, op, outcome, by_label))
        except (ValueError, KeyError, IndexError) as err:
            problems.append([f"unreadable output: {err!r}"])
    return problems


def _check(reference, op: Operation, outcome: Outcome, by_label: dict) -> list[str]:
    if op.kind == "dark-probe":
        return reference.check_dark_probe(outcome.rc, outcome.data, outcome.stderr)
    if outcome.data is None or (outcome.rc != 0 and op.kind != "verify"):
        return [f"exit {outcome.rc} without the expected table: {outcome.stderr.strip()}"]
    if op.kind == "verify":
        return reference.check_verify(outcome.rc, outcome.data, outcome.stdout)
    if op.fmt == "json":
        twin = by_label[op.label.rsplit(".", 1)[0] + ".csv"]
        return reference.same_values(twin.data, outcome.data)
    check = getattr(reference, f"check_{op.kind}")
    return check(op.settings(), outcome.data, outcome.stdout)
