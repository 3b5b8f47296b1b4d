import ctypes
import os
from typing import NamedTuple

import numpy as np
import pytest


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS selected at load time, or "unknown"."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    # dlsym on the extension also searches the libraries it links, OpenBLAS among them.
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    """numpy's version, BLAS build and OpenBLAS kernel: the bitwise pins hold on one kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # show_config(mode=...) needs numpy >= 1.25
        build = "unknown"
    line = f"numpy {np.__version__}, BLAS {build}, OpenBLAS core {_openblas_core()}"
    forced = os.environ.get("OPENBLAS_CORETYPE")
    if forced:
        line += f" (OPENBLAS_CORETYPE={forced})"
    return line


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class Decomposition(NamedTuple):
    """One call of np.linalg.svd, eigh or eigvalsh, and whether its input is zero."""

    name: str
    zero: bool


class Decompositions(list):
    """The decompositions made while a test runs, in call order."""

    def of(self, name: str, zero: bool | None = None) -> int:
        """How many calls of name, counting only zero or only nonzero inputs when zero is given."""
        return sum(c.name == name and zero in (None, c.zero) for c in self)


@pytest.fixture
def decompositions(monkeypatch) -> Decompositions:
    """Record every np.linalg.svd, eigh and eigvalsh call from the test's setup on.

    Tests clear() it before the calls they count.
    """
    calls = Decompositions()

    def counted(name, real):
        def call(a, *args, **kwargs):
            calls.append(Decomposition(name, not np.any(a)))
            return real(a, *args, **kwargs)
        return call

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
