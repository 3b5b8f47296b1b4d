"""Process set-up shared by every benchmark entry point, and the environment stamp.

Import this module before numpy: `pin_threads` only takes effect if BLAS and
OpenMP have not been loaded yet.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The benchmark machine has two cores; every process it starts runs its
# linear algebra on one thread so runs do not compete with each other or
# with the parent.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingSourceError(RuntimeError):
    """The checkout does not hold the ncpgd sources the benchmark measures."""


def pin_threads():
    for name in THREAD_VARS:
        os.environ[name] = "1"


def use_checkout_sources():
    """Put the checkout's src/ first on sys.path, or raise if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "ncpgd", "__init__.py")):
        raise MissingSourceError(f"no ncpgd package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def verify_imported(module):
    """Raise unless `module` was loaded from the checkout's src/."""
    path = os.path.realpath(module.__file__)
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise MissingSourceError(f"{module.__name__} imported from {path}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: checkout sources, one BLAS thread."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names its code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ncpgd")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
