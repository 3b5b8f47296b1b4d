"""`ncpgd check` byte for byte: stdout, stderr and exit code of each property suite.

Each case runs `python -m ncpgd.cli check` in a fresh process with the default
log level and seed. The first two are the command lines the benchmark's
cli-certify workload runs; the third covers the projected-translation suite
at a size a test can afford. A change to a suite's printed lines, its count of
checks or its exit code shows as a diff; the Armijo suite's count of replayed
steps also moves with its draws.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "check.txt"
SRC = Path(__file__).parent.parent / "src"

CASES = [
    ["--suite", "prox-equals-regular", "--trials", "1"],
    ["--suite", "armijo-postcondition", "--trials", "6"],
    ["--suite", "projected-translation", "--trials", "60"],
]


def check_text(workdir: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCPGD_LOG", None)
    blocks = []
    for args in CASES:
        argv = ["check"] + args
        proc = subprocess.run([sys.executable, "-m", "ncpgd.cli"] + argv, cwd=workdir,
                              env=env, capture_output=True, text=True)
        blocks.append(f"$ ncpgd {' '.join(argv)}\nexit={proc.returncode}\n"
                      f"[stdout]\n{proc.stdout}[stderr]\n{proc.stderr}")
    return "".join(blocks)


def test_check_output_matches_golden_bytes(tmp_path):
    assert check_text(tmp_path) == GOLDEN.read_text(encoding="utf-8")
