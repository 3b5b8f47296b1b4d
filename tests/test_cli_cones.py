"""`ncpgd cones` byte for byte: stdout, stderr and exit code on every kind of set.

Each case runs `python -m ncpgd.cli cones` in a fresh process with the default
log level. The cases cover the kink of both planar sets, an epigraph interior
point, the origin of a sparse set, a nonnegative sparse point, a
rank-deficient low-rank matrix and a PSD point without a tangent projection,
so any change to a printed cone query shows as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cones.txt"
SRC = Path(__file__).parent.parent / "src"

CASES = [
    ["--set", "curve", "--x", "0,0", "--v", "1,0"],
    ["--set", "curve", "--x", "0,0", "--v", "0.3,-0.7"],
    ["--set", "epigraph", "--x=-1,2", "--v", "0.5,-0.25"],
    ["--set", "sparse:n=2,s=1", "--x", "0,0", "--v", "1,-2"],
    ["--set", "nonneg-sparse:n=3,s=2", "--x", "0,2,0", "--v=-1,0,0.5"],
    ["--set", "lowrank:m=3,n=2,r=1", "--x", "1,2,2,4,0,0", "--v", "0.5,1,-1,0,2,3"],
    ["--set", "psd:n=3,r=1", "--x", "0,0,0,0,0,0,0,0,0", "--v=-1,0,0,0,-2,0,0,0,-3"],
]


def cones_text(workdir: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCPGD_LOG", None)
    blocks = []
    for args in CASES:
        argv = ["cones"] + args
        proc = subprocess.run([sys.executable, "-m", "ncpgd.cli"] + argv, cwd=workdir,
                              env=env, capture_output=True, text=True)
        blocks.append(f"$ ncpgd {' '.join(argv)}\nexit={proc.returncode}\n"
                      f"[stdout]\n{proc.stdout}[stderr]\n{proc.stderr}")
    return "".join(blocks)


def test_cones_output_matches_golden_bytes(tmp_path):
    assert cones_text(tmp_path) == GOLDEN.read_text(encoding="utf-8")
