"""Machine-speed reference kernels that use numpy and Python but not ncpgd.

On a shared machine, other tenants can slow identical work by a third or more
for minutes at a time. Each run times one of these kernels next to its jobs;
a time t measured while the kernel took k (the median of the samples nearest
to the job) is reported as t * REF / k, the time on the reference machine (a
two-core cloud VM at its uncontended speed). A change to ncpgd moves the jobs
but not the kernels.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import benchenv

# Best times of the kernels below on the reference machine.
IN_PROCESS_REF_S = 0.0096
SPAWN_REF_S = 0.103

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((200, 200))
_S = _M[:100, :100] + _M[:100, :100].T
_v = _rng.standard_normal(200)


def in_process() -> float:
    """Seconds for a fixed mix of interpreter work, small-array numpy calls
    and dense decompositions, the three costs of the library workloads."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        w = np.asarray(_v, dtype=float).copy()
        w.flags.writeable = False
        acc += float(np.dot(w, w)) * {"i": i}["i"] + float(np.all(np.isfinite(w)))
    np.linalg.svd(_M)
    np.linalg.eigh(_S)
    return time.perf_counter() - t0


def spawn() -> float:
    """Seconds to start a fresh interpreter that imports numpy, the first
    part of every CLI job and of every set-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=benchenv.child_env(), check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0
